"""Positive definite binary quadratic forms and their class groups.

A form (a, b, c) stands for a*x^2 + b*x*y + c*y^2 with discriminant
d = b^2 - 4ac < 0 and a > 0. Class groups are always taken with respect to
proper (determinant +1) equivalence of primitive forms, so (2, 1, 3) and
(2, -1, 3) are distinct classes when they are not properly equivalent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import primes_up_to, squarefree_part
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
    "represented_primes",
    "is_valid_discriminant",
    "fundamental_decomposition",
]


@dataclass(frozen=True, order=True)
class QuadForm:
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

    def transform(self, p: int, q: int, r: int, s: int) -> "QuadForm":
        """Apply the determinant-one substitution (x, y) -> (px + qy, rx + sy)."""
        if p * s - q * r != 1:
            raise ValueError("transform matrix must have determinant 1")
        a = self(p, r)
        c = self(q, s)
        b = 2 * (self.a * p * q + self.c * r * s) + self.b * (p * s + q * r)
        return QuadForm(a, b, c)


def _check_definite(f: QuadForm) -> None:
    if f.a <= 0 or f.disc >= 0:
        raise VerificationError(
            "PRECONDITION", f"form {f.a, f.b, f.c} is not positive definite"
        )


def is_valid_discriminant(d: int) -> bool:
    """True iff d < 0 and d = 0 or 1 mod 4."""
    return d < 0 and d % 4 in (0, 1)


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
    if not is_valid_discriminant(d):
        raise VerificationError("PRECONDITION", f"{d} is not a negative discriminant")
    b = d % 2
    return QuadForm(1, b, (b * b - d) // 4)


def enumerate_reduced(d: int) -> list[QuadForm]:
    """All primitive reduced forms of discriminant d, sorted by (a, b).

    Imprimitive reduced forms exist for non-fundamental d (e.g. (2, 2, 2) at
    d = -12) but do not belong to the class group and are excluded.
    """
    if not is_valid_discriminant(d):
        raise VerificationError("PRECONDITION", f"{d} is not a negative discriminant")
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


def _coprime_representative(g: QuadForm, n: int) -> QuadForm:
    """A form properly equivalent to g whose leading coefficient is
    coprime to n. Searches primitive vectors (u, v) by growing box; a
    primitive form represents values coprime to any modulus, with small
    witnesses in practice."""
    if math.gcd(g.a, n) == 1:
        return g
    bound = 1
    while bound <= abs(n) + 2:
        for u in range(-bound, bound + 1):
            for v in range(-bound, bound + 1):
                if max(abs(u), abs(v)) != bound and bound > 1:
                    continue
                if math.gcd(u, v) != 1:
                    continue
                if math.gcd(g(u, v), n) != 1:
                    continue
                # extend (u, v) to a determinant-one matrix
                gg, x, y = _xgcd(u, v)
                if gg < 0:
                    gg, x, y = -gg, -x, -y
                assert gg == 1
                # u*x + v*y = 1 gives det(u, -y; v, x) = 1
                return g.transform(u, -y, v, x)
        bound += 1
    raise VerificationError(
        "PRECONDITION", f"no value of {g} coprime to {n}; form imprimitive?"
    )


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

    Returns the reduced representative of the composed class. Route: replace
    g by an equivalent form with leading coefficient coprime to f.a, align
    the middle coefficients by CRT so the pair is concordant, then multiply.
    """
    d = f.disc
    if g.disc != d:
        raise VerificationError("PRECONDITION", "composition needs equal discriminants")
    if not (f.is_primitive() and g.is_primitive()):
        raise VerificationError("PRECONDITION", "composition needs primitive forms")
    f = reduce_form(f)
    g = reduce_form(g)
    g2 = _coprime_representative(g, f.a)
    a1, b1 = f.a, f.b
    a2, b2 = g2.a, g2.b
    # B = b1 mod 2a1, B = b2 mod 2a2; solvable since b1 = b2 = d (mod 2).
    assert (b1 - b2) % 2 == 0
    k = ((b2 - b1) // 2 * pow(a1, -1, a2)) % a2
    B = b1 + 2 * a1 * k
    a3 = a1 * a2
    num = B * B - d
    assert num % (4 * a3) == 0
    return reduce_form(QuadForm(a3, B, num // (4 * a3)))


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
        if not is_valid_discriminant(d):
            raise VerificationError(
                "PRECONDITION", f"{d} is not a negative discriminant"
            )
        self.d = d
        self.reduced_forms = enumerate_reduced(d)
        self._index = {f: i for i, f in enumerate(self.reduced_forms)}
        self.identity = reduce_form(principal_form(d))
        self._table: list[list[int]] | None = None

    @property
    def h(self) -> int:
        return len(self.reduced_forms)

    def composition_table(self) -> list[list[int]]:
        """Index table t[i][j] with forms[i] * forms[j] = forms[t[i][j]]."""
        if self._table is None:
            forms = self.reduced_forms
            self._table = [
                [self._index[compose(f, g)] for g in forms] for f in forms
            ]
        return self._table

    def element_order(self, f: QuadForm) -> int:
        f = reduce_form(f)
        o = self.h
        for q in _prime_divisors(self.h):
            while o % q == 0 and form_power(f, o // q) == self.identity:
                o //= q
        return o

    def elementary_divisors(self) -> list[int]:
        """Invariant factors d1 | d2 | ... multiplying to h; [] for h = 1.

        Recovered from the multiset of element orders: for each prime q the
        counts N_j of elements killed by q^j determine the Sylow partition
        via N_j = q^(sum_i min(lam_i, j)).
        """
        h = self.h
        if h == 1:
            return []
        orders = [self.element_order(f) for f in self.reduced_forms]
        partitions: dict[int, list[int]] = {}
        for q in _prime_divisors(h):
            e_total = _valuation(h, q)  # sum of the partition of the q-Sylow
            lam: list[int] = []
            prev = 0
            j = 1
            while sum(lam) < e_total:
                qj = q**j
                nj = sum(1 for o in orders if qj % o == 0)
                expo = _valuation(nj, q)
                assert q**expo == nj, "group order bookkeeping failed"
                # expo = sum_i min(lam_i, j); parts of size >= j grew by 1 each
                grew = expo - prev
                for i in range(grew):
                    if i < len(lam):
                        lam[i] += 1
                    else:
                        lam.append(1)
                prev = expo
                j += 1
            partitions[q] = sorted(lam, reverse=True)
        width = max(len(v) for v in partitions.values())
        factors = []
        for i in range(width):
            val = 1
            for q, lam in partitions.items():
                if i < len(lam):
                    val *= q ** lam[i]
            factors.append(val)
        factors.sort()
        assert math.prod(factors) == h
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


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _valuation(n: int, q: int) -> int:
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def reduced_forms_up_to(bound: int) -> dict[int, list[QuadForm]]:
    """Primitive reduced forms for every discriminant -bound <= d < 0,
    bucketed by d. One pass over reduced triples (a, b, c) is much faster
    than per-discriminant enumeration when the whole range is wanted.
    """
    if bound < 3:
        return {}
    buckets: dict[int, list[QuadForm]] = {}
    amax = math.isqrt(bound // 3)
    for a in range(1, amax + 1):
        for b in range(0, a + 1):
            cmin = max(a, b * b // (4 * a) + 1)  # force d < 0
            cmax = (b * b + bound) // (4 * a)
            for c in range(cmin, cmax + 1):
                d = b * b - 4 * a * c
                if d >= 0 or d < -bound:
                    continue
                if math.gcd(a, math.gcd(b, c)) != 1:
                    continue
                buckets.setdefault(d, []).append(QuadForm(a, b, c))
                # negative-b companion; excluded when it collides with +b
                if 0 < b < a and a != c:
                    buckets[d].append(QuadForm(a, -b, c))
    for forms in buckets.values():
        forms.sort(key=lambda f: (f.a, f.b))
    return buckets


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


def fundamental_decomposition(d: int) -> tuple[int, int]:
    """Write d = N^2 * dK with dK a fundamental discriminant; returns (dK, N)."""
    if not is_valid_discriminant(d):
        raise VerificationError("PRECONDITION", f"{d} is not a negative discriminant")
    m = squarefree_part(d)
    dK = m if m % 4 == 1 else 4 * m
    n2 = d // dK
    n = math.isqrt(n2)
    assert n * n == n2
    return dK, n
