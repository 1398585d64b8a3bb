"""Positive definite binary quadratic forms, class numbers and discriminants.

A form (a, b, c) stands for a*x^2 + b*x*y + c*y^2 with discriminant
d = b^2 - 4ac < 0 and a > 0. enumerate_reduced lists the primitive reduced
forms of d, and class_number counts them; the discriminant helpers split d
into its fundamental part and conductor. This is the half of the forms layer
that `verify` and `ap` run. Composition, the class group, the discriminant
scans and the form lemma live in classgroups.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import is_squarefree, squarefree_part
from .errors import VerificationError


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


def check_discriminant(d: int) -> None:
    """Raise PRECONDITION unless d < 0 and d = 0 or 1 mod 4."""
    if d >= 0 or d % 4 not in (0, 1):
        raise VerificationError("PRECONDITION", f"{d} is not a negative discriminant")


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


def class_number(d: int) -> int:
    return len(enumerate_reduced(d))


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
