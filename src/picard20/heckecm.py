"""Prime coefficients of weight-3 CM newforms, their certificates, and twist
matching.

For an imaginary quadratic field of class number one the Hecke character of
infinity-type 2 gives a newform whose coefficient at a split prime p is
a_p = 2(x^2 - D'y^2) where p = x^2 + D'y^2 with x, y in (1/2)N. The constant
D' normalizes away the extra units for d_K = -3 and -4. split_stream reads
a_p of every split p up to a bound off one walk of the norm form against the
prime sieve, computing each from the X^2 and D'Y^2 the walk already holds.
norm_form_ap turns one solution into a_p, and ap_h1, which solves one prime
at a time by cornacchia, is the stream's oracle. principality_certificate
is the inverse, reading p = x^2 + Dy^2 back from a_p.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .arith import cornacchia, is_square, is_squarefree, kronecker, prime_flags
from .errors import VerificationError
from .qforms import class_number, is_fundamental_discriminant, twist_discriminant

__all__ = [
    "SPLIT",
    "INERT",
    "RAMIFIED",
    "CMRule",
    "TwistVerdict",
    "split_type",
    "split_types",
    "norm_form",
    "split_stream",
    "norm_form_ap",
    "no_representation",
    "ap_h1",
    "principality_certificate",
    "match_twist",
]

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"


class _CMFields(NamedTuple):
    d_K: int
    twist: int | None = None


class CMRule(_CMFields):
    """CM field data: fundamental discriminant d_K of class number one and
    the form constant D. twist, when set, is the squarefree integer of a
    quadratic twist; None means the untwisted normalization.

    A NamedTuple, as are the records of ellsurf and mwheights, so that no
    subcommand imports dataclasses; the fields are checked in __new__, which
    a NamedTuple body cannot define itself.
    """

    __slots__ = ()

    def __new__(cls, d_K: int, twist: int | None = None):
        if not is_fundamental_discriminant(d_K):
            raise VerificationError("PRECONDITION", f"{d_K} is not a fundamental discriminant")
        if twist is not None and not is_squarefree(twist):
            raise VerificationError("PRECONDITION", f"twist {twist} is not squarefree")
        if class_number(d_K) != 1:
            raise VerificationError("PRECONDITION", f"class number of {d_K} is not one")
        return super().__new__(cls, d_K, twist)

    @property
    def D(self) -> int:
        return -self.d_K if self.d_K % 4 != 0 else -self.d_K // 4


# indexed by the Kronecker symbol: 0 ramified, 1 split, -1 inert
_KINDS = (RAMIFIED, SPLIT, INERT)


def split_type(d_K: int, p: int) -> str:
    """How the prime p behaves in Q(sqrt(d_K)), read from kronecker(d_K, p).

    p must be prime. This is not checked: every caller takes p from
    primes_up_to, and the sieve is the proof.
    """
    return _KINDS[kronecker(d_K, p)]


def split_types(d_K: int) -> list[str]:
    """split_type(d_K, p) of every prime p, as a table read at p mod |d_K|.

    kronecker(d_K, .) is a character mod |d_K| for a discriminant d_K, so one
    symbol per residue 0 < r < |d_K| serves every prime. Residue 0 is the
    prime |d_K| itself, when it is one, and is ramified; so is every p
    dividing d_K. split_type is the table's oracle.
    """
    return [RAMIFIED] + [_KINDS[kronecker(d_K, r)] for r in range(1, abs(d_K))]


def norm_form(d_K: int) -> tuple[int, int]:
    """(D', scale): a split p has scale*p = X^2 + D'Y^2 with X, Y > 0.

    scale is 4 for odd d_K, which realizes x = X/2, y = Y/2, and 1 for even
    d_K, where the normalization forces integral x, y.
    """
    if d_K == -3:
        return 27, 4
    if d_K == -4:
        return 4, 1
    return (-d_K, 4) if d_K % 4 else (-d_K // 4, 1)


def split_stream(d_K: int, pmax: int, flags: bytearray | None = None) -> dict[int, int]:
    """a_p of the untwisted newform at each split 3 < p <= pmax.

    One walk over X, Y >= 0 up to X^2 + D'Y^2 <= scale*pmax, with X of the
    parity that makes scale divide the sum (odd for scale 1, that of Y for
    scale 4), looked up in flags = prime_flags(pmax); pass flags to share one
    sieve. Once D' absorbs the extra units, +-pi and +-conj(pi) are the only
    elements of norm p, so each split p has exactly one solution with X, Y > 0:
    the one cornacchia(D', scale*p) returns in ap_h1. Ramified p are dropped.
    At a hit the walk holds X^2 and D'Y^2, so it stores
    a_p = 2(X^2 - D'Y^2)/scale there; norm_form_ap of the same solution is
    its oracle.
    """
    Dp, scale = norm_form(d_K)
    if flags is None:
        flags = prime_flags(pmax)
    limit = scale * max(pmax, 0)
    stream = {}
    for y in range(math.isqrt(limit // Dp) + 1):
        dy = Dp * y * y
        for x in range(y % 2 if scale == 4 else 1, math.isqrt(limit - dy) + 1, 2):
            xx = x * x
            p = (xx + dy) // scale
            if flags[p] and p > 3 and d_K % p:
                stream[p] = 2 * (xx - dy) // scale
    return stream


def no_representation(d_K: int, p: int) -> VerificationError:
    """The NO_REPRESENTATION error of a split p whose norm form has no solution."""
    Dp, scale = norm_form(d_K)
    return VerificationError("NO_REPRESENTATION", f"{scale * p} = x^2 + {Dp}y^2 has no solution")


def norm_form_ap(d_K: int, p: int, sol: tuple[int, int] | None) -> int:
    """a_p = 2(X^2 - D'Y^2)/scale of the untwisted newform at a split p.

    sol is the norm-form solution (X, Y) of p, from cornacchia; None, when p
    has none, is NO_REPRESENTATION. This is ap_h1's formula and the oracle of
    the a_p that split_stream computes in its walk.
    """
    if sol is None:
        raise no_representation(d_K, p)
    Dp, scale = norm_form(d_K)
    x, y = sol
    ap = 2 * (x * x - Dp * y * y) // scale
    assert abs(ap) <= 2 * p
    return ap


def ap_h1(rule: CMRule, p: int) -> int:
    """Coefficient a_p of the newform of the rule, one prime at a time.

    Split p: solve scale*p = X^2 + D'Y^2 by cornacchia and return
    norm_form_ap. Inert p gives 0. A twist by delta multiplies the result by
    kronecker(delta*, p), delta* the discriminant of Q(sqrt(delta)). This is
    the per-prime oracle of split_stream; the CLI reads the stream.
    """
    st = split_type(rule.d_K, p)
    if st == RAMIFIED:
        raise VerificationError("PRECONDITION", f"p = {p} is not unramified")
    if st == INERT:
        return 0
    Dp, scale = norm_form(rule.d_K)
    ap = norm_form_ap(rule.d_K, p, cornacchia(Dp, scale * p))
    if rule.twist is not None:
        ap *= kronecker(twist_discriminant(rule.twist), p)
    return ap


def principality_certificate(p: int, ap: int, D: int) -> tuple[Fraction, Fraction]:
    """Half-integers (x, y) with p = x^2 + D y^2, built from a_p alone.

    The chain is 2p - a_p = m^2 D, 2p + a_p = s^2, (x, y) = (s/2, m/2);
    each step must land on integers or the input is not of CM shape.
    """
    m_squared, rem = divmod(2 * p - ap, D)
    if rem != 0 or m_squared <= 0 or not is_square(m_squared):
        raise VerificationError(
            "CHAIN_FAILURE", f"(2p - a_p)/D = {2 * p - ap}/{D} is not a positive square"
        )
    s_squared = 2 * p + ap
    if s_squared < 0 or not is_square(s_squared):
        raise VerificationError(
            "CHAIN_FAILURE", f"2p + a_p = {s_squared} is not a square"
        )
    x = Fraction(math.isqrt(s_squared), 2)
    y = Fraction(math.isqrt(m_squared), 2)
    if x * x + D * y * y != p:
        raise VerificationError("CHAIN_FAILURE", f"certificate failed at p={p}")
    return x, y


class TwistVerdict(NamedTuple):
    """Outcome of comparing geometric coefficients with the CM rule.

    kind is one of:
        matches_base    -- equal to the untwisted coefficients at every prime
        quadratic_twist -- off by kronecker(delta*, .); delta recorded
        cubic_class     -- d_K = -3 only: every a_p fits some cubic branch
        no_match        -- with the first split prime where the data leaves
                           the base stream

    expected maps each split prime to the coefficient the data was compared
    with: the base stream for matches_base and no_match, the base stream
    times kronecker(delta*, p) for quadratic_twist, None for cubic_class.
    """

    kind: str
    delta: int | None = None
    failing_prime: int | None = None
    expected: dict | None = None


_MIN_MATCH_PRIMES = 5
_TWIST_SEARCH_BOUND = 1000


def match_twist(
    geometric: list[tuple[int, int]], rule: CMRule
) -> TwistVerdict:
    """Identify the twist relating geometric a_p data to the base newform.

    Inert and ramified rows are discarded; at least 5 split rows must
    remain. A candidate fits when it agrees with the data at every split
    row, and the first that fits is the verdict. The candidates, in order:
    the base stream; for d_K = -4, the base stream times kronecker(delta*, p)
    for each squarefree 1 < |delta| <= _TWIST_SEARCH_BOUND; for d_K = -3,
    the class of streams whose every a_p has a principality certificate
    with D = 3. If none fits, the verdict is no_match at the first split
    prime where the data leaves the base stream.
    """
    rows = [
        (p, ap)
        for p, ap in geometric
        if split_type(rule.d_K, p) == SPLIT
    ]
    if len(rows) < _MIN_MATCH_PRIMES:
        raise VerificationError(
            "INSUFFICIENT_DATA",
            f"need at least {_MIN_MATCH_PRIMES} split primes, got {len(rows)}",
        )
    stream = split_stream(rule.d_K, max(p for p, _ in rows))
    base = {}
    for p, _ in rows:
        if p not in stream:
            raise no_representation(rule.d_K, p)
        base[p] = stream[p]

    def fits(row_fits) -> bool:
        return all(row_fits(p, ap) for p, ap in rows)

    def certified(p: int, ap: int) -> bool:
        try:
            principality_certificate(p, ap, 3)
        except VerificationError:
            return False
        return True

    if fits(lambda p, ap: ap == base[p]):
        return TwistVerdict("matches_base", expected=base)
    if rule.d_K == -4:
        for adelta in range(2, _TWIST_SEARCH_BOUND + 1):
            for delta in (adelta, -adelta):
                if not is_squarefree(delta):
                    continue
                dstar = twist_discriminant(delta)
                if fits(lambda p, ap: ap == base[p] * kronecker(dstar, p)):
                    twisted = {p: ap * kronecker(dstar, p) for p, ap in base.items()}
                    return TwistVerdict("quadratic_twist", delta=delta, expected=twisted)
    if rule.d_K == -3 and fits(certified):
        return TwistVerdict("cubic_class")
    failing = next(p for p, ap in rows if ap != base[p])
    return TwistVerdict("no_match", failing_prime=failing, expected=base)
