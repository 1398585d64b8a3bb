"""Prime coefficients of weight-3 CM newforms, their certificates, and twist
matching.

For an imaginary quadratic field of class number one the Hecke character of
infinity-type 2 gives a newform whose coefficient at a split prime p is
a_p = 2(x^2 - D'y^2) where p = x^2 + D'y^2 with x, y in (1/2)N. The constant
D' normalizes away the extra units for d_K = -3 and -4. split_stream reads
a_p of every split p up to a bound off one walk of the norm form against the
prime sieve, computing each from the X^2 and D'Y^2 the walk already holds,
and ap_report builds the `ap` document from it. The stream's oracle, which
solves one prime at a time by Cornacchia's algorithm, lives in
tests/oracles.py. principality_certificate is the inverse, reading
p = x^2 + Dy^2 back from a_p.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import NamedTuple

from .arith import is_square, is_squarefree, kronecker, prime_flags, primes_above_3
from .errors import VerificationError
from .qforms import class_number, is_fundamental_discriminant, twist_discriminant


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


def split_types(d_K: int) -> list[str]:
    """How each prime p behaves in Q(sqrt(d_K)), as a table read at p mod |d_K|.

    kronecker(d_K, .) is a character mod |d_K| for a discriminant d_K, so one
    symbol per residue 0 < r < |d_K| serves every prime. Residue 0 is the
    prime |d_K| itself, when it is one, and is ramified; so is every p
    dividing d_K. Its oracle, split_type, which reads kronecker(d_K, p) one
    prime at a time, lives in tests/oracles.py.
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
    elements of norm p, so each split p has exactly one solution with X, Y > 0.
    Each X^2 is read from one table of squares, as a stride-2 slice per Y, so
    at a hit the walk holds X^2 and D'Y^2 and stores a_p = 2(X^2 - D'Y^2)/scale.
    The walk keeps every prime it meets; the at most two with p <= 3 or p | d_K
    (2 and 7 for d_K = -7) are deleted after it. Its oracle, which solves each
    prime by Cornacchia's algorithm, lives in tests/oracles.py.
    """
    Dp, scale = norm_form(d_K)
    if flags is None:
        flags = prime_flags(pmax)
    limit = scale * max(pmax, 0)
    squares = [x * x for x in range(math.isqrt(limit) + 1)]
    stream = {}
    # one loop per scale, so that the inner loop holds no test of it
    if scale == 1:
        for y in range(math.isqrt(limit // Dp) + 1):
            dy = Dp * y * y
            for xx in squares[1 : math.isqrt(limit - dy) + 1 : 2]:
                p = xx + dy
                if flags[p]:
                    stream[p] = 2 * (xx - dy)
    else:
        for y in range(math.isqrt(limit // Dp) + 1):
            dy = Dp * y * y
            for xx in squares[y % 2 : math.isqrt(limit - dy) + 1 : 2]:
                p = (xx + dy) >> 2
                if flags[p]:
                    stream[p] = (xx - dy) >> 1
    for p in range(2, max(3, -d_K) + 1):
        if p <= 3 or d_K % p == 0:
            stream.pop(p, None)
    return stream


# ap sieves pmax + 1 bytes and walks the norm form once before its first
# row; cold on 2 cores with bytecode off, --pmax 10^6 takes a median 0.165 s
# at a 35.6 MB peak RSS and --pmax 10^7 1.55-1.74 s at 181.6 MB
_AP_LIMIT = 10**7


def _ap_rows(d_K: int, twist: int, pmax: int) -> list:
    """(p, kind, a_p) for each prime 3 < p <= pmax, a_p from one norm-form walk.

    A split p missing from the stream is NO_REPRESENTATION. The rows are
    tuples, and the stream is emptied as they are built, to keep the
    render's peak low. Each kind is read from one table of split_types, at
    p mod |d_K|.
    """
    CMRule(d_K, twist if twist != 1 else None)
    dstar = twist_discriminant(twist)
    flags = prime_flags(pmax)
    stream = split_stream(d_K, pmax, flags)
    kinds = split_types(d_K)
    modulus = len(kinds)
    rows = []
    for p in primes_above_3(flags):
        kind = kinds[p % modulus]
        ap = None
        if kind == SPLIT:
            # popped, not read: the row's int for the next p takes the freed
            # key's slot, where a key kept to the end would leave a hole
            # among the kept a_p that the render's strings cannot reuse
            ap = stream.pop(p, None)
            if ap is None:
                raise no_representation(d_K, p)
            if dstar != 1:
                ap *= kronecker(dstar, p)
        rows.append((p, kind, ap))
    return rows


def ap_report(d_K: int, pmax: int, twist: int) -> dict:
    """The ap document: one row per prime 3 < p <= pmax, from _ap_rows."""
    if pmax > _AP_LIMIT:
        raise VerificationError("PRECONDITION", f"pmax={pmax} exceeds the ap limit {_AP_LIMIT}")
    return {"dK": d_K, "twist": twist, "pmax": pmax, "rows": _ap_rows(d_K, twist, pmax)}


def no_representation(d_K: int, p: int) -> VerificationError:
    """The NO_REPRESENTATION error of a split p whose norm form has no solution."""
    Dp, scale = norm_form(d_K)
    return VerificationError("NO_REPRESENTATION", f"{scale * p} = x^2 + {Dp}y^2 has no solution")


def principality_certificate(p: int, ap: int, D: int) -> tuple[Fraction, Fraction]:
    """Half-integers (x, y) with p = x^2 + D y^2, built from a_p alone.

    The chain is 2p - a_p = m^2 D, 2p + a_p = s^2, (x, y) = (s/2, m/2);
    each step must land on integers or the input is not of CM shape.
    fractions is imported here, the one place the module makes a Fraction,
    so that `ap` never loads it.
    """
    from fractions import Fraction

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
        no_match        -- no candidate fits

    expected maps each split prime to the coefficient the data was compared
    with: the base stream for matches_base and no_match, the base stream
    times kronecker(delta*, p) for quadratic_twist, None for cubic_class.
    """

    kind: str
    delta: int | None = None
    expected: dict | None = None


_MIN_MATCH_PRIMES = 5
_TWIST_SEARCH_BOUND = 1000


def match_twist(
    geometric: list[tuple[int, int]], rule: CMRule
) -> TwistVerdict:
    """Identify the twist relating geometric a_p data to the base newform.

    Inert and ramified rows, read from split_types at p mod |d_K|, are
    discarded; at least 5 split rows must remain. A candidate fits when it
    agrees with the data at every split row, and the first that fits is the
    verdict. The candidates, in order:
    the base stream; for d_K = -4, the base stream times kronecker(delta*, p)
    for each squarefree 1 < |delta| <= _TWIST_SEARCH_BOUND; for d_K = -3,
    the class of streams whose every a_p has a principality certificate
    with D = 3. If none fits, the verdict is no_match.
    """
    kinds = split_types(rule.d_K)
    rows = [(p, ap) for p, ap in geometric if kinds[p % len(kinds)] == SPLIT]
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
        # one sieve marks the squarefree |delta|, and delta* is formed
        # directly: delta if delta = 1 mod 4, else 4 delta
        squarefree = bytearray([1]) * (_TWIST_SEARCH_BOUND + 1)
        for q in range(2, math.isqrt(_TWIST_SEARCH_BOUND) + 1):
            squarefree[q * q :: q * q] = bytes(len(squarefree[q * q :: q * q]))
        for adelta in compress(range(2, _TWIST_SEARCH_BOUND + 1), squarefree[2:]):
            for delta in (adelta, -adelta):
                dstar = delta if delta % 4 == 1 else 4 * delta
                if fits(lambda p, ap: ap == base[p] * kronecker(dstar, p)):
                    twisted = {p: ap * kronecker(dstar, p) for p, ap in base.items()}
                    return TwistVerdict("quadratic_twist", delta=delta, expected=twisted)
    if rule.d_K == -3 and fits(certified):
        return TwistVerdict("cubic_class")
    return TwistVerdict("no_match", expected=base)
