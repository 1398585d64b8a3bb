"""Positive definite binary quadratic forms and their class groups.

A form (a, b, c) stands for a*x^2 + b*x*y + c*y^2 with discriminant
d = b^2 - 4ac < 0 and a > 0. Class groups are always taken with respect to
proper (determinant +1) equivalence of primitive forms, so (2, 1, 3) and
(2, -1, 3) are distinct classes when they are not properly equivalent.
classify_h1 and classify_two_torsion scan every |d| up to a bound for class
number one and for one class per genus, from the flags of reduced_form_flags.
lemma_r_check tests the form lemma: the principal forms of d and d r^2
represent the same primes, up to finitely many, exactly when the class
numbers agree.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import NamedTuple

from .arith import factorize, is_squarefree, primes_up_to, squarefree_part
from .errors import VerificationError

__all__ = [
    "QuadForm",
    "reduce_form",
    "enumerate_reduced",
    "principal_form",
    "compose",
    "form_power",
    "FormClassGroup",
    "class_number",
    "reduced_form_flags",
    "classify_h1",
    "classify_two_torsion",
    "represented_primes",
    "lemma_r_check",
    "check_discriminant",
    "twist_discriminant",
    "fundamental_decomposition",
    "is_fundamental_discriminant",
]


class QuadForm(NamedTuple):
    """The form a*x^2 + b*x*y + c*y^2; forms compare and hash as (a, b, c)."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, u: int, v: int) -> int:
        return self.a * u * u + self.b * u * v + self.c * v * v

    @property
    def content(self) -> int:
        return math.gcd(self.a, self.b, self.c)

    def is_primitive(self) -> bool:
        return self.content == 1

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def is_ambiguous(self) -> bool:
        """Whether this reduced form is its own inverse class: b = 0, a = b or a = c."""
        return self.b == 0 or self.a == self.b or self.a == self.c

    def inverse(self) -> "QuadForm":
        return QuadForm(self.a, -self.b, self.c)


def _check_definite(f: QuadForm) -> None:
    if f.a <= 0 or f.disc >= 0:
        raise VerificationError(
            "PRECONDITION", f"form {f.a, f.b, f.c} is not positive definite"
        )


def check_discriminant(d: int) -> None:
    """Raise PRECONDITION unless d < 0 and d = 0 or 1 mod 4."""
    if d >= 0 or d % 4 not in (0, 1):
        raise VerificationError("PRECONDITION", f"{d} is not a negative discriminant")


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


# enumerate_reduced walks about |d|/6 pairs (a, b): 1.3 s at |d| = 10^8, 15 s at 10^9
_CLASS_GROUP_LIMIT = 10**9


def enumerate_reduced(d: int) -> list[QuadForm]:
    """All primitive reduced forms of discriminant d, sorted by (a, b).

    Imprimitive reduced forms exist for non-fundamental d (e.g. (2, 2, 2) at
    d = -12) but do not belong to the class group and are excluded.
    |d| above 10^9 raises PRECONDITION rather than walk for minutes.
    """
    check_discriminant(d)
    if -d > _CLASS_GROUP_LIMIT:
        raise VerificationError(
            "PRECONDITION", f"|d| = {-d} exceeds the class-group limit {_CLASS_GROUP_LIMIT}"
        )
    out = []
    amax = math.isqrt(-d // 3)
    for a in range(1, amax + 1):
        b0 = d & 1
        for b in range(-a + ((-a ^ b0) & 1), a + 1, 2):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            if math.gcd(a, b, c) != 1:
                continue
            out.append(QuadForm(a, b, c))
    out.sort(key=lambda f: (f.a, f.b))
    return out


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


def class_number(d: int) -> int:
    return len(enumerate_reduced(d))


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


def reduced_form_flags(bound: int) -> tuple[bytearray, bytearray]:
    """Two flags per n = |d| <= bound, from the primitive reduced forms
    (a, b, c) with a >= 2 and b >= 0.

    nonprincipal[n] is set when some primitive reduced form of discriminant
    -n has a >= 2, so h(-n) > 1.  nonambiguous[n] is set when one has
    0 < b < a < c, so its class is not its own inverse.  A reduced form with
    b < 0 has the same a and c as its b > 0 companion, so it adds no flag.

    The forms are never listed one by one.  For fixed a and b, with
    g = gcd(a, b), (a, b, c) is primitive exactly when gcd(c, g) = 1, so the
    admissible c are the residue classes r mod g with gcd(r, g) = 1 (the one
    class mod 1 when g = 1).  On such a class n = 4ac - b^2 runs through an
    arithmetic progression of step 4ag, and n <= bound exactly when
    c <= (b^2 + bound) / 4a.  Each progression sets its flags in one
    bytearray slice assignment from a buffer of ones: nonprincipal from the
    first c >= a of the class, nonambiguous (when 0 < b < a) from the first
    c > a.
    """
    if not 0 <= bound <= 10**6:
        raise VerificationError("PRECONDITION", f"bound {bound} out of range")
    nonprincipal = bytearray(bound + 1)
    nonambiguous = bytearray(bound + 1)
    # a >= 2 makes every step at least 8, so no slice is longer than this
    ones = bytearray(b"\x01") * (bound // 8 + 1)
    amax = math.isqrt(bound // 3)
    units = [[r for r in range(g) if math.gcd(r, g) == 1] for g in range(amax + 1)]
    for a in range(2, amax + 1):
        for b in range(a + 1):
            g = math.gcd(a, b)
            step = 4 * a * g
            for r in units[g]:
                c = a + (r - a) % g  # the least c >= a with c = r mod g
                n = 4 * a * c - b * b
                nonprincipal[n::step] = ones[: len(range(n, bound + 1, step))]
                if 0 < b < a:
                    if c == a:
                        n += step
                    nonambiguous[n::step] = ones[: len(range(n, bound + 1, step))]
    return nonprincipal, nonambiguous


# bytes.translate table: a clear flag becomes a compress selector, a set one not
_CLEAR = bytes([1]) + bytes(255)


def _unflagged(flags: bytearray) -> list[int]:
    """The negative discriminants -n, by increasing n >= 3, whose flag is clear.

    Only the slots n = 3 and n = 0 (mod 4) are read, as two strided slices.
    """
    ns = []
    for start in (3, 4):
        clear = flags[start::4].translate(_CLEAR)
        ns += compress(range(start, len(flags), 4), clear)
    return [-n for n in sorted(ns)]


def classify_h1(bound: int) -> list[int]:
    """All negative discriminants with |d| <= bound and class number one."""
    return _unflagged(reduced_form_flags(bound)[0])


def classify_two_torsion(bound: int) -> list[int]:
    """All negative discriminants with |d| <= bound and Cl(d) of exponent <= 2.

    That is the case precisely when every reduced form is ambiguous.  The
    squaring-based test on FormClassGroup stays as the independent check.
    """
    return _unflagged(reduced_form_flags(bound)[1])


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
        "h_d": h_d,
        "h_dr2": h_dr2,
        "sets_equal": sets_equal,
        "verdict": sets_equal == (h_d == h_dr2),
    }


def twist_discriminant(delta: int) -> int:
    """Discriminant of Q(sqrt(delta)) for squarefree delta."""
    if not is_squarefree(delta):
        raise VerificationError("PRECONDITION", f"{delta} is not squarefree")
    return delta if delta % 4 == 1 else 4 * delta


def fundamental_decomposition(d: int) -> tuple[int, int]:
    """Write d = N^2 * dK with dK a fundamental discriminant; returns (dK, N)."""
    check_discriminant(d)
    dK = twist_discriminant(squarefree_part(d))
    n = math.isqrt(d // dK)
    assert dK * n * n == d
    return dK, n


def is_fundamental_discriminant(d: int) -> bool:
    """d = 1 mod 4 squarefree, or d = 4m with m = 2, 3 mod 4 squarefree."""
    return d < 0 and d % 4 in (0, 1) and fundamental_decomposition(d)[1] == 1
