"""Form class groups and the form lemma.

Classes are taken with respect to proper (determinant +1) equivalence of
primitive forms, so (2, 1, 3) and (2, -1, 3) are distinct classes when they
are not properly equivalent.  compose is Gauss composition and
FormClassGroup the class group it makes of the reduced forms of
qforms.enumerate_reduced.  lemma_r_check tests the form lemma: the
principal forms of d and d r^2 represent the same primes, up to finitely
many, exactly when the class numbers agree.  Only the classgroup and lemma-r
subcommands import this module; their documents are built here.  The
discriminant scans of classify live in scans, which needs none of this.
"""

from __future__ import annotations

import math

from .arith import factorize, primes_up_to
from .errors import VerificationError
from .qforms import QuadForm, check_discriminant, class_number, enumerate_reduced


def _check_definite(f: QuadForm) -> None:
    if f.a <= 0 or f.disc >= 0:
        raise VerificationError(
            "PRECONDITION", f"form {f.a, f.b, f.c} is not positive definite"
        )



def reduce_form(f: QuadForm) -> QuadForm:
    """Gauss reduction to the unique reduced representative of the class.

    Reduced means |b| <= a <= c with b >= 0 whenever |b| = a or a = c.
    """
    _check_definite(f)
    a, b, c = f.a, f.b, f.c
    while True:
        if a > c:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            # translate b into (-a, a]
            k = (a - b) // (2 * a)  # floor
            b2 = b + 2 * k * a
            c = c + k * (b + k * a)
            b = b2
            continue
        break
    if (b == -a) or (a == c and b < 0):
        b = -b
    out = QuadForm(a, b, c)
    assert out.disc == f.disc and out.is_reduced()
    return out


def principal_form(d: int) -> QuadForm:
    """The principal (identity) form of discriminant d."""
    check_discriminant(d)
    b = d % 2
    return QuadForm(1, b, (b * b - d) // 4)



def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """Gauss composition of primitive forms of the same discriminant.

    Returns the reduced representative of the composed class, by Shanks'
    formula (Cohen, Algorithm 5.4.7): with s = (b1 + b2)/2, two extended
    gcds give d1 = gcd(a1, a2, s) and the composite has leading coefficient
    a1 a2 / d1^2.
    """
    d = f.disc
    if g.disc != d:
        raise VerificationError("PRECONDITION", "composition needs equal discriminants")
    if not (f.is_primitive() and g.is_primitive()):
        raise VerificationError("PRECONDITION", "composition needs primitive forms")
    _check_definite(f)
    _check_definite(g)
    if f.a > g.a:
        f, g = g, f
    a1, a2, b2, c2 = f.a, g.a, g.b, g.c
    s = (f.b + b2) // 2
    n = b2 - s
    e, y1, _ = _xgcd(a2, a1)  # y1 a2 = e = gcd(a1, a2) mod a1
    d1, x2, y2 = _xgcd(s, e)  # x2 s + y2 e = d1 = gcd(a1, a2, s) > 0, as e > 0
    v1, v2 = a1 // d1, a2 // d1
    r = (-y1 * y2 * n - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    return reduce_form(QuadForm(v1 * v2, b3, (b3 * b3 - d) // (4 * v1 * v2)))


def form_power(f: QuadForm, k: int) -> QuadForm:
    """k-th power of the class of f (k >= 0), by repeated squaring."""
    result = reduce_form(principal_form(f.disc))
    base = reduce_form(f)
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result



class FormClassGroup:
    """The class group of primitive forms of discriminant d."""

    def __init__(self, d: int):
        self.d = d
        self.reduced_forms = enumerate_reduced(d)
        self.identity = reduce_form(principal_form(d))

    @property
    def h(self) -> int:
        return len(self.reduced_forms)

    def element_order(self, f: QuadForm) -> int:
        f = reduce_form(f)
        o = self.h
        for q, _ in factorize(self.h):
            while o % q == 0 and form_power(f, o // q) == self.identity:
                o //= q
        return o

    def elementary_divisors(self) -> list[int]:
        """Invariant factors d1 | d2 | ... multiplying to h; [] for h = 1.

        Recovered from the multiset of element orders: for each prime q the
        number N_j of elements killed by q^j gives N_j / N_(j-1) = q^r_j,
        where r_j counts the invariant factors divisible by q^j.
        """
        orders = [self.element_order(f) for f in self.reduced_forms]
        factors: list[int] = []  # largest first
        for q, e in factorize(self.h):
            below = 0  # the q-exponent of N_(j-1)
            for j in range(1, e + 1):
                n_j = sum(1 for o in orders if q**j % o == 0)
                expo = dict(factorize(n_j)).get(q, 0)
                assert q**expo == n_j, "group order bookkeeping failed"
                factors += [1] * (expo - below - len(factors))
                for i in range(expo - below):
                    factors[i] *= q
                below = expo
        factors.reverse()
        assert math.prod(factors) == self.h
        return factors

    def is_two_torsion(self) -> bool:
        """Whether every class squares to the identity, decided by squaring.

        The ambiguous-form count stays out of this path, so the two can
        check each other.
        """
        return all(compose(f, f) == self.identity for f in self.reduced_forms)

    def ambiguous_count(self) -> int:
        """Number of ambiguous reduced forms."""
        return sum(1 for f in self.reduced_forms if f.is_ambiguous())


def class_group_report(d: int) -> dict:
    """The classgroup document of d: class number, structure and reduced forms."""
    group = FormClassGroup(d)
    return {
        "d": d,
        "class_number": group.h,
        "elementary_divisors": group.elementary_divisors(),
        "two_torsion": group.is_two_torsion(),
        "ambiguous_classes": group.ambiguous_count(),
        "forms": [[f.a, f.b, f.c] for f in group.reduced_forms],
    }


def represented_primes(f: QuadForm, bound: int) -> list[int]:
    """All primes p <= bound represented by f over integer (u, v) != (0, 0).

    Exhaustive over the lattice ellipse f(u, v) <= bound: for positive
    definite f the ranges |u| <= sqrt(4c*bound/|d|), |v| <= sqrt(4a*bound/|d|)
    cover every solution.
    """
    _check_definite(f)
    if bound < 2:
        return []
    d = -f.disc
    umax = math.isqrt(4 * f.c * bound // d)
    vmax = math.isqrt(4 * f.a * bound // d)
    hit = bytearray(bound + 1)
    for u in range(-umax, umax + 1):
        for v in range(0, vmax + 1):
            if u <= 0 and v == 0:
                continue  # (0,0) excluded; (u,v) and (-u,-v) agree
            val = f(u, v)
            if val <= bound:
                hit[val] = 1
    return [p for p in primes_up_to(bound) if hit[p]]


_LEMMA_CUTOFF = 100  # "almost all": ignore represented primes up to here


def lemma_r_check(d: int, r: int, bound: int = 100000) -> dict:
    """Compare prime sets of the principal forms of disc d and d r^2.

    The represented-prime sets (above a small cutoff) agree exactly when the
    class numbers agree; the verdict records that the equivalence holds.
    The result is the lemma-r document, its inputs included.
    """
    check_discriminant(d)
    if r < 2:
        raise VerificationError("PRECONDITION", "r must be at least 2")
    if not _LEMMA_CUTOFF < bound <= 10**6:
        raise VerificationError("PRECONDITION", f"bound {bound} out of range")
    Q = principal_form(d)
    Qr = principal_form(d * r * r)
    h_d = class_number(d)
    h_dr2 = class_number(d * r * r)
    s1 = {p for p in represented_primes(Q, bound) if p > _LEMMA_CUTOFF}
    s2 = {p for p in represented_primes(Qr, bound) if p > _LEMMA_CUTOFF}
    sets_equal = s1 == s2
    return {
        "d": d,
        "r": r,
        "bound": bound,
        "h_d": h_d,
        "h_dr2": h_dr2,
        "sets_equal": sets_equal,
        "verdict": sets_equal == (h_d == h_dr2),
    }
