"""Prime coefficients of weight-3 CM newforms, and twist matching.

For an imaginary quadratic field of class number one the Hecke character of
infinity-type 2 gives a newform whose coefficient at a split prime p is
a_p = 2(x^2 - D'y^2) where p = x^2 + D'y^2 with x, y in (1/2)N. The constant
D' normalizes away the extra units for d_K = -3 and -4.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import cornacchia, is_prime, is_square, is_squarefree, kronecker
from .errors import VerificationError
from .qforms import class_number, is_fundamental_discriminant, twist_discriminant

__all__ = [
    "SPLIT",
    "INERT",
    "RAMIFIED",
    "CMRule",
    "TwistVerdict",
    "split_type",
    "ap_h1",
    "cubic_shape_holds",
    "match_twist",
]

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"


@dataclass(frozen=True)
class CMRule:
    """CM field data: fundamental discriminant d_K of class number one, the
    form constant D, and the level constant D_prime. twist, when set, is the
    squarefree integer of a quadratic twist; None means the untwisted
    normalization.
    """

    d_K: int
    twist: int | None = None

    def __post_init__(self):
        if not is_fundamental_discriminant(self.d_K):
            raise VerificationError(
                "PRECONDITION", f"{self.d_K} is not a fundamental discriminant"
            )
        if self.twist is not None and not is_squarefree(self.twist):
            raise VerificationError("PRECONDITION", f"twist {self.twist} is not squarefree")
        if class_number(self.d_K) != 1:
            raise VerificationError(
                "PRECONDITION", f"class number of {self.d_K} is not one"
            )

    @property
    def D(self) -> int:
        return -self.d_K if self.d_K % 4 != 0 else -self.d_K // 4

    @property
    def D_prime(self) -> int:
        if self.d_K == -3:
            return 27
        if self.d_K == -4:
            return 4
        return self.D


def split_type(d_K: int, p: int) -> str:
    if not is_prime(p):
        raise VerificationError("PRECONDITION", f"{p} is not prime")
    chi = kronecker(d_K, p)
    return SPLIT if chi == 1 else INERT if chi == -1 else RAMIFIED


def ap_h1(rule: CMRule, p: int) -> int:
    """Coefficient a_p of the newform of the rule.

    Split p: solve 4p = X^2 + D'Y^2 (odd d_K; realizes x = X/2, y = Y/2)
    or p = x^2 + D'y^2 (even d_K, where the normalization forces integral
    x, y) and return 2(x^2 - D'y^2). Inert p gives 0. A twist by delta
    multiplies the result by kronecker(delta*, p), delta* the discriminant
    of Q(sqrt(delta)).
    """
    st = split_type(rule.d_K, p)
    if st == RAMIFIED or rule.D_prime % p == 0:
        raise VerificationError("PRECONDITION", f"p = {p} is not unramified")
    if st == INERT:
        return 0
    Dp = rule.D_prime
    if rule.d_K % 4 == 0:
        sol = cornacchia(Dp, p)
        if sol is None:
            raise VerificationError(
                "NO_REPRESENTATION", f"{p} = x^2 + {Dp}y^2 has no solution"
            )
        x, y = sol
        ap = 2 * (x * x - Dp * y * y)
    else:
        sol = cornacchia(Dp, 4 * p)
        if sol is None:
            raise VerificationError(
                "NO_REPRESENTATION", f"4*{p} = X^2 + {Dp}Y^2 has no solution"
            )
        X, Y = sol
        ap = (X * X - Dp * Y * Y) // 2
    assert abs(ap) <= 2 * p
    if rule.twist is not None:
        ap *= kronecker(twist_discriminant(rule.twist), p)
    return ap


def cubic_shape_holds(p: int, ap: int) -> bool:
    """Whether 2p + a_p and (2p - a_p)/3 are both squares of integers, the
    shape of a_p for every cubic twist of the d_K = -3 newform."""
    plus = 2 * p + ap
    minus = 2 * p - ap
    return plus >= 0 and is_square(plus) and minus % 3 == 0 and is_square(minus // 3)


@dataclass(frozen=True)
class TwistVerdict:
    """Outcome of comparing geometric coefficients with the CM rule.

    kind is one of:
        matches_base    -- equal to the untwisted coefficients at every prime
        quadratic_twist -- off by kronecker(delta*, .); delta recorded
        cubic_class     -- d_K = -3 only: every a_p fits some cubic branch
        no_match        -- with the first offending prime

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
    remain. For d_K not in {-3, -4} only the identity twist can occur, so
    the verdict is matches_base or no_match. For d_K = -4 a quadratic twist
    is searched by its sign pattern; for d_K = -3 each coefficient is
    checked against the cubic-branch shape 2p + a_p = (2x)^2,
    (2p - a_p)/3 = (2y)^2.
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
    base_rule = CMRule(rule.d_K)
    base = {p: ap_h1(base_rule, p) for p, _ in rows}

    mismatch = next((p for p, ap in rows if ap != base[p]), None)
    if mismatch is None:
        return TwistVerdict("matches_base", expected=base)

    if rule.d_K == -4:
        for p, ap in rows:
            if abs(ap) != abs(base[p]):
                # magnitude change means a biquadratic twist, out of scope
                return TwistVerdict("no_match", failing_prime=p, expected=base)
        signs = {p: 1 if ap == base[p] else -1 for p, ap in rows}
        for adelta in range(2, _TWIST_SEARCH_BOUND + 1):
            for delta in (adelta, -adelta):
                if not is_squarefree(delta):
                    continue
                dstar = twist_discriminant(delta)
                if all(kronecker(dstar, p) == s for p, s in signs.items()):
                    twisted = {p: ap * kronecker(dstar, p) for p, ap in base.items()}
                    return TwistVerdict("quadratic_twist", delta=delta, expected=twisted)
        return TwistVerdict("no_match", failing_prime=rows[0][0], expected=base)

    if rule.d_K == -3:
        for p, ap in rows:
            if not cubic_shape_holds(p, ap):
                return TwistVerdict("no_match", failing_prime=p, expected=base)
        return TwistVerdict("cubic_class")

    return TwistVerdict("no_match", failing_prime=mismatch, expected=base)
