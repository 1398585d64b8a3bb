"""Elliptic K3 surfaces over Q(t): Weierstrass models, Kodaira fibers, counting.

Models are globally minimal with integer polynomial coefficients, deg a_i <= 2i.
Fiber types come from the characteristic-0 valuation table, so no Tate algorithm
is run in residue characteristic p; instead good_prime() certifies that the
reduction mod p has the same local data as the model over Q, and counting at
p > 3 works fiberwise on the smooth model through component bookkeeping.
Every fiber, t=oo included, is read from c4 and c6 mod p in the one chart t:
_local takes (f / pi^k)(t0), which at t=oo is the coefficient of
t^(weight - k).  count_fiber reads a character sum only for smooth and I_n
fibers, whose Weierstrass cubic it counts by one lookup: in a per-prime table
of the cubic character sums S(k, k), built in O(p) by one exact integer
product where c4 and c6 are both nonzero mod p, or, when c4 or c6 vanishes
at the fiber, in a cache of at most eleven direct sums, one per power-residue
class; the direct sum _charsum_count is their oracle.  An additive fiber
counts its components, and an I0* fiber splits when its residual cubic
divides T^p - T.  surface_count takes c4 and c6 at every t in F_p in one pass
of forward differences; the cubic's discriminant marks the singular fibers
(1728 Delta = c4^3 - c6^2), and only those and t=oo go to count_fiber, the
one-fiber API and the pass's oracle, which looks up the fiber's place.  See
COUNT_LIMIT for the cost per prime.

A prime p > 3 is good when it divides neither d nor one cached integer,
lead Res(R, R' u4 u6): lead = lead(Delta) lead(c4) lead(c6), R the product of
the finite places, u_c = c / prod f^{v_c(f)} the cofactor of c in (c4, c6).
Since p not dividing lead keeps deg R, p divides the resultant exactly when R
mod p has a repeated root or a root of some u_c: when places merge or stop
being squarefree, or c gains order at a place.  So no good prime costs any
polynomial arithmetic mod p.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from fractions import Fraction
from itertools import repeat
from math import comb, gcd
from typing import NamedTuple, Optional

from .arith import is_prime, is_squarefree, kronecker, squarefree_part
from .errors import VerificationError
from .polys import (
    Poly,
    factor_int_poly,
    padd,
    pdeg,
    pderiv,
    peval_mod,
    pmod,
    pmul,
    poly_str,
    ppow,
    ppow_mod,
    pquo_exact,
    pscale,
    psub,
    ptrim,
    pvalues_mod,
    resultant,
    valuation,
)

INFINITY = "t=oo"

# stand-in valuation for an identically vanishing c4 or c6
_INF = 10**9

_DEGREE_BOUND = {"a1": 2, "a2": 4, "a3": 6, "a4": 8, "a6": 12}

# weights of the invariants: in the chart s = 1/t an invariant f of weight w
# is s^w f(1/s), so its order at t=oo is w - deg f
_WEIGHT = {"c4": 8, "c6": 12, "delta": 24}


def place_label(f: Optional[Poly]) -> str:
    """Human-readable name of a place: "t=0", "t=-1", "t=oo", "t^2+t+1=0"."""
    if f is None:
        return INFINITY
    if pdeg(f) == 1:
        return f"t={Fraction(-f[0], f[1])}"
    return poly_str(f) + "=0"


# ---------------------------------------------------------------- Kodaira types


class Kodaira(NamedTuple):
    """Invariants of one Kodaira fiber type.

    family is "I" for I_n, "I*" for I_b*, and the symbol itself for the
    additive types II, III, IV, IV*, III*, II*; n is the n of I_n or the b of
    I_b*, and 0 otherwise.  root_rank and root_disc describe the root lattice
    (A_{n-1} for I_n, D_{b+4} for I_b*, ...).  root_disc is also the order of
    the component group, so the simple components are indexed
    0 .. root_disc - 1; exponent, the exponent of that group, bounds the
    denominators of heights.  correction is the height correction at a
    non-identity simple component of III, IV, IV* and III*, and None for
    every other type.
    """

    family: str
    n: int
    components: int
    euler: int
    root_rank: int
    root_disc: int
    exponent: int
    correction: Optional[Fraction]


# components, Euler number, root discriminant (the component group is cyclic
# of that order), height correction
_ADDITIVE = {
    "II": (1, 2, 1, None),
    "III": (2, 3, 2, Fraction(1, 2)),
    "IV": (3, 4, 3, Fraction(2, 3)),
    "IV*": (7, 8, 3, Fraction(4, 3)),
    "III*": (8, 9, 2, Fraction(3, 2)),
    "II*": (9, 10, 1, None),
}


def kodaira(symbol: str) -> Kodaira:
    """The invariants of a Kodaira symbol such as "I5", "I0*" or "IV*".

    The Euler numbers of the singular fibers sum to 24 on a K3 surface.  I0 is
    a smooth fiber, not a Kodaira type here.
    """
    if symbol in _ADDITIVE:
        components, euler, disc, correction = _ADDITIVE[symbol]
        return Kodaira(symbol, 0, components, euler, components - 1, disc, disc, correction)
    if symbol.startswith("I") and symbol.endswith("*") and symbol[1:-1].isdecimal():
        b = int(symbol[1:-1])
        return Kodaira("I*", b, b + 5, b + 6, b + 4, 4, 2 if b % 2 == 0 else 4, None)
    if symbol.startswith("I") and symbol[1:].isdecimal() and int(symbol[1:]) >= 1:
        n = int(symbol[1:])
        return Kodaira("I", n, n, n, n - 1, n, n, None)
    raise VerificationError("PRECONDITION", f"unknown Kodaira symbol {symbol!r}")


def shioda_tate_rank(fibers, mw_rank: int) -> int:
    """Shioda-Tate: the zero section and a fiber, the root ranks of the
    (Kodaira symbol, multiplicity) pairs, and the Mordell-Weil rank."""
    return 2 + sum(kodaira(sym).root_rank * mult for sym, mult in fibers) + mw_rank


# In residue characteristic 0 a fiber's Euler number is v(Delta) (Ogg), and a
# potentially good fiber has v(Delta) = min(3 v(c4), 2 v(c6)): one lookup
# from v(Delta) names it
_POTENTIALLY_GOOD = {euler: sym for sym, (_, euler, _, _) in _ADDITIVE.items()} | {6: "I0*"}


def _kodaira_from_valuations(v4: int, v6: int, vd: int, place: str) -> str:
    # characteristic-0 table; v4/v6 may be the _INF sentinel for vanishing c4/c6
    if vd == 0:
        return "good"
    if v4 >= 4 and vd >= 12:
        raise VerificationError(
            "NON_MINIMAL", f"model is not minimal at {place}: v(c4)>=4, v(D)>=12"
        )
    if v4 == 0 and v6 == 0:
        return f"I{vd}"
    if v4 == 2 and v6 == 3 and vd > 6:
        return f"I{vd - 6}*"
    if vd == min(3 * v4, 2 * v6) and vd in _POTENTIALLY_GOOD:
        return _POTENTIALLY_GOOD[vd]
    raise VerificationError(
        "PRECONDITION", f"unclassifiable valuation triple ({v4},{v6},{vd}) at {place}"
    )


# ---------------------------------------------------------------- model data


# The records are NamedTuples, so that no subcommand imports dataclasses; the
# fields are checked and normalised in __new__, which a NamedTuple body cannot
# define itself, and replace() makes a checked copy through it.


def replace(record, **changes):
    """A copy of a record with some fields changed, checked as a new one.

    Unlike NamedTuple._replace, the copy goes through the record's __new__.
    """
    return type(record)(**{**record._asdict(), **changes})


class _SectionFields(NamedTuple):
    x_num: Poly
    x_den: Poly
    y_num: Poly
    y_den: Poly
    torsion_order: int  # 0 means infinite order
    component_hits: tuple  # ((place label, component index), ...)


class SectionData(_SectionFields):
    """A point of the generic fiber, coordinates as integer rational functions."""

    __slots__ = ()

    def __new__(cls, x_num, x_den=(1,), y_num=(), y_den=(1,), torsion_order=0, component_hits=()):
        coords = [ptrim(tuple(f)) for f in (x_num, x_den, y_num, y_den)]
        if any(not isinstance(c, int) for f in coords for c in f):
            # valuations and pole orders divide in Z[t]
            raise VerificationError("PRECONDITION", "section has non-integer coefficients")
        x_num, x_den, y_num, y_den = coords
        if not x_den or not y_den:
            raise VerificationError("PRECONDITION", "section with zero denominator")
        if torsion_order < 0:
            raise VerificationError("PRECONDITION", "negative torsion order")
        hits = tuple((str(pl), int(k)) for pl, k in component_hits)
        return super().__new__(cls, x_num, x_den, y_num, y_den, torsion_order, hits)


class FiberDatum(NamedTuple):
    """One singular fiber (or a Galois orbit of them, for a place of degree > 1)."""

    place: str
    poly: Optional[Poly]  # irreducible factor of Delta over Q; None at t=oo
    kodaira_type: str
    vc4: Optional[int]  # None when c4 vanishes identically
    vc6: Optional[int]  # None when c6 vanishes identically
    vdelta: int
    component_count: int
    euler_number: int

    @property
    def degree(self) -> int:
        """Degree of the place: 1 at t=oo, else the degree of its polynomial."""
        return 1 if self.poly is None else pdeg(self.poly)


class _SurfaceFields(NamedTuple):
    name: str
    a1: Poly
    a2: Poly
    a3: Poly
    a4: Poly
    a6: Poly
    d: int  # declared Neron-Severi discriminant
    rank20_over_Q: bool
    sections: tuple
    expected_config: tuple
    twist_by: int  # accumulated squarefree quadratic twist, 1 = untwisted


class SurfaceModel(_SurfaceFields):
    """Weierstrass model y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q(t)."""

    __slots__ = ()

    def __new__(
        cls, name, a1, a2, a3, a4, a6, d, rank20_over_Q=False, sections=(),
        expected_config=(), twist_by=1,
    ):
        coeffs = [ptrim(tuple(f)) for f in (a1, a2, a3, a4, a6)]
        for (key, bound), f in zip(_DEGREE_BOUND.items(), coeffs):
            if pdeg(f) > bound:
                raise VerificationError(
                    "PRECONDITION", f"deg {key} = {pdeg(f)} exceeds K3 bound {bound}"
                )
            if any(not isinstance(c, int) for c in f):
                raise VerificationError("PRECONDITION", f"{key} has non-integer coefficients")
        if not isinstance(d, int) or d >= 0:
            raise VerificationError("PRECONDITION", "declared discriminant must be a negative integer")
        if not is_squarefree(twist_by):
            raise VerificationError("PRECONDITION", "twist_by must be squarefree and nonzero")
        config = tuple((str(pl), str(sym)) for pl, sym in expected_config)
        self = super().__new__(
            cls, name, *coeffs, d, rank20_over_Q, tuple(sections), config, twist_by
        )
        if not discriminant(self):
            raise VerificationError("PRECONDITION", "discriminant vanishes identically")
        for s in self.sections:
            if not _section_on_model(s, self):
                raise VerificationError(
                    "PRECONDITION", f"section does not satisfy the equation of {self.name}"
                )
        return self


def _section_on_model(s: SectionData, m: SurfaceModel) -> bool:
    # clear denominators of y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6
    xd2 = pmul(s.x_den, s.x_den)
    xd3 = pmul(xd2, s.x_den)
    yd2 = pmul(s.y_den, s.y_den)
    lhs = pmul(pmul(s.y_num, s.y_num), xd3)
    lhs = padd(lhs, pmul(pmul(m.a1, pmul(s.x_num, s.y_num)), pmul(xd2, s.y_den)))
    lhs = padd(lhs, pmul(pmul(m.a3, s.y_num), pmul(xd3, s.y_den)))
    rhs = pmul(ppow(s.x_num, 3), yd2)
    rhs = padd(rhs, pmul(pmul(m.a2, pmul(s.x_num, s.x_num)), pmul(s.x_den, yd2)))
    rhs = padd(rhs, pmul(pmul(m.a4, s.x_num), pmul(xd2, yd2)))
    rhs = padd(rhs, pmul(m.a6, pmul(xd3, yd2)))
    return psub(lhs, rhs) == ()


# ---------------------------------------------------------------- invariants


@functools.lru_cache(maxsize=None)
def b_invariants(model: SurfaceModel) -> tuple[Poly, Poly, Poly, Poly]:
    """(b2, b4, b6, b8) of the model."""
    a1, a2, a3, a4, a6 = model.a1, model.a2, model.a3, model.a4, model.a6
    b2 = padd(pmul(a1, a1), pscale(a2, 4))
    b4 = padd(pscale(a4, 2), pmul(a1, a3))
    b6 = padd(pmul(a3, a3), pscale(a6, 4))
    b8 = padd(pmul(pmul(a1, a1), a6), pscale(pmul(a2, a6), 4))
    b8 = psub(b8, pmul(a1, pmul(a3, a4)))
    b8 = padd(b8, pmul(a2, pmul(a3, a3)))
    b8 = psub(b8, pmul(a4, a4))
    return b2, b4, b6, b8


@functools.lru_cache(maxsize=None)
def c_invariants(model: SurfaceModel) -> tuple[Poly, Poly]:
    """(c4, c6) of the model."""
    b2, b4, b6, _ = b_invariants(model)
    c4 = psub(pmul(b2, b2), pscale(b4, 24))
    c6 = padd(psub(pscale(pmul(b2, b4), 36), ppow(b2, 3)), pscale(b6, -216))
    return c4, c6


@functools.lru_cache(maxsize=None)
def discriminant(model: SurfaceModel) -> Poly:
    """Delta(t); satisfies 1728 Delta = c4^3 - c6^2."""
    b2, b4, b6, b8 = b_invariants(model)
    delta = pscale(pmul(pmul(b2, b2), b8), -1)
    delta = psub(delta, pscale(ppow(b4, 3), 8))
    delta = psub(delta, pscale(pmul(b6, b6), 27))
    delta = padd(delta, pscale(pmul(b2, pmul(b4, b6)), 9))
    c4, c6 = c_invariants(model)
    assert psub(pscale(delta, 1728), psub(ppow(c4, 3), pmul(c6, c6))) == ()
    return delta


def _invariants(model: SurfaceModel) -> dict[str, Poly]:
    """The invariants named in _WEIGHT."""
    c4, c6 = c_invariants(model)
    return {"c4": c4, "c6": c6, "delta": discriminant(model)}


# ---------------------------------------------------------------- classification


def _order(inv: dict[str, Poly], name: str, place: Optional[Poly]) -> Optional[int]:
    """Order of the invariant at the place (t=oo when place is None), or None
    when the invariant vanishes identically."""
    f = inv[name]
    if not f:
        return None
    return _WEIGHT[name] - pdeg(f) if place is None else valuation(f, place)


def _fiber_datum(inv: dict[str, Poly], poly: Optional[Poly], vd: int) -> FiberDatum:
    place = place_label(poly)
    v4, v6 = _order(inv, "c4", poly), _order(inv, "c6", poly)
    sym = _kodaira_from_valuations(
        _INF if v4 is None else v4, _INF if v6 is None else v6, vd, place
    )
    k = kodaira(sym)
    return FiberDatum(place, poly, sym, v4, v6, vd, k.components, k.euler)


@functools.lru_cache(maxsize=None)
def classify_fibers(model: SurfaceModel) -> tuple[FiberDatum, ...]:
    """Singular fibers of the model, finite places first, t=oo last.

    Each fiber's Euler number is its v(Delta), and the orders of Delta at
    all places, t=oo included, sum to its weight 24, so the Euler numbers
    sum to 24 without a check.
    """
    inv = _invariants(model)
    _, factors = factor_int_poly(discriminant(model))
    places = list(factors)
    v_infinity = _order(inv, "delta", None)
    if v_infinity > 0:
        places.append((None, v_infinity))
    return tuple(_fiber_datum(inv, f, m) for f, m in places)


@functools.lru_cache(maxsize=None)
def rank20_effective(model: SurfaceModel) -> bool:
    """Whether the model counts as rank 20 over Q: the one place that decides.

    A model that does not claim rank20_over_Q does not.  A claim is refused
    with PRECONDITION when the Shioda-Tate sum of the fibers (root rank times
    place degree) and the free sections is not 20.  Quadratic twisting
    destroys rank 20 over Q except for d = -4, where every quadratic twist of
    the model stays in the family.
    """
    if not model.rank20_over_Q:
        return False
    rank = shioda_tate_rank(
        ((F.kodaira_type, F.degree) for F in classify_fibers(model)),
        sum(1 for s in model.sections if not s.torsion_order),
    )
    if rank != 20:
        raise VerificationError(
            "PRECONDITION", f"lattice ranks of {model.name} sum to {rank}, not 20"
        )
    return model.twist_by == 1 or model.d == -4


# ---------------------------------------------------------------- good primes


@functools.lru_cache(maxsize=None)
def _bad_product(model: SurfaceModel) -> int:
    """lead Res(R, R' u4 u6): the primes p > 3 not dividing d that divide it
    are exactly the ones good_prime() rejects."""
    finite = [F for F in classify_fibers(model) if F.poly is not None]
    places = functools.reduce(pmul, (F.poly for F in finite), (1,))
    lead, g = discriminant(model)[-1], pderiv(places)
    for c, name in zip(c_invariants(model), ("vc4", "vc6")):
        if c:
            lead *= c[-1]
            powers = (ppow(F.poly, getattr(F, name)) for F in finite)
            u = pquo_exact(c, functools.reduce(pmul, powers, (1,)))
            assert u is not None  # every place is primitive, and so their product
            g = pmul(g, u)
    return lead * resultant(places, g)


def good_prime(model: SurfaceModel, p: int) -> bool:
    """Whether reduction mod p keeps all local fiber data, t=oo included.

    p must be a prime > 3 dividing neither d nor lead Res(R, R' u4 u6), where
    lead = lead(Delta) lead(c4) lead(c6) with a vanishing c4 or c6 left out,
    R is the product of the finite places and u_c = c / prod f^{v_c(f)} is
    the cofactor of each nonvanishing c in (c4, c6).  p not dividing lead
    keeps the content of Delta, the leading coefficient of each place and the
    orders at t=oo; it also keeps deg R mod p, so p divides the resultant
    exactly when R mod p shares a root with R' u4 u6 mod p, that is when R
    mod p has a repeated root (a place stops being squarefree or two places
    meet) or a root of some u_c (c gains order at a place).
    """
    return p > 3 and is_prime(p) and model.d % p != 0 and _bad_product(model) % p != 0


# ---------------------------------------------------------------- counting


class _CountingContext(NamedTuple):
    p: int
    chi: tuple
    inverse: array  # inverse[x] = 1/x mod p, inverse[0] = 0
    # S(A, B) = sum over X of chi(X^3 + A X + B); S(k, k) is indexed by k in
    # F_p, in an array, not a tuple of ints, to keep the cached context from
    # adding to peak memory; None when c4 or c6 is zero mod p
    s_kk: Optional[array]
    s_classes: dict  # S(A, B) with AB = 0, filled by _cubic_sum
    # c4 and c6 mod p, the one chart every fiber is read from: by pvalues_mod
    # at every t in F_p, and by _local at a singular fiber and at t=oo
    c4: Poly
    c6: Poly
    rank20_split: bool  # rank 20 over Q at a split prime


# surface_count is O(p) work per prime, at most one exact product, at most
# five direct sums and one pass over the fibers: for d19 about 0.010 s at
# p = 3001 and 0.051 s at 9973, and for d4, which builds no table, 0.011 s and
# 0.038 s, context included (2-core Xeon, Python 3.11)
COUNT_LIMIT = 10**4


def _cubic_sum_table(p: int, chi: tuple, inverse: array) -> array:
    """S(k, k) for every k in F_p, from one exact product of integers.

    x^3 + k x + k = (x + 1)(x^3/(x + 1) + k) for x != -1, so S(k, k) is
    chi(-1) + R[k], R[k] = sum over y in F_p of w[y] chi(y + k) with
    w[y] = sum of chi(x + 1) over x^3/(x + 1) = y.  R is a cyclic
    correlation, taken by Kronecker substitution: the reversed w + 3 and one
    period of chi + 1 are packed into slots, and coefficients p - 1 + k and
    k - 1 of their product (the latter 0 for k = 0) sum to R[k] + sum(w) + 3p,
    where sum(w) is the sum of chi over F_p^*, 0.  With |w| <= 3 no
    coefficient exceeds 12p, so 16-bit slots hold them while 12p < 2^16, and
    32-bit slots above that.
    """
    if 12 * p >= 1 << 32:
        raise VerificationError("PRECONDITION", f"p={p} overflows the 32-bit correlation slots")
    slot = "H" if 12 * p < 1 << 16 else "I"
    w = [0] * p
    for x in range(p - 1):
        w[x * x * x * inverse[x + 1] % p] += chi[x + 1]
    u = array(slot, [c + 3 for c in reversed(w)])
    v = array(slot, [c + 1 for c in chi])
    product = int.from_bytes(u, sys.byteorder) * int.from_bytes(v, sys.byteorder)
    c = memoryview(product.to_bytes(2 * p * u.itemsize, sys.byteorder)).cast(slot)
    offset = 3 * p - chi[p - 1]
    return array("i", [a + b - offset for a, b in zip(c[p - 1 : 2 * p - 1], [0, *c[: p - 1]])])


# counting goes one prime at a time, so only the current prime's context is kept
@functools.lru_cache(maxsize=1)
def _counting_context(model: SurfaceModel, p: int) -> _CountingContext:
    if p > COUNT_LIMIT:
        raise VerificationError("PRECONDITION", f"p={p} exceeds the count limit {COUNT_LIMIT}")
    # a false rank-20 claim is refused here, before any table is built
    rank20 = rank20_effective(model)
    if not good_prime(model, p):
        raise VerificationError(
            "PRECONDITION", f"p={p} is not a good prime for {model.name}"
        )
    chi = [-1] * p
    chi[0] = 0
    # x and -x have one square, so half of F_p^* marks every square
    for x in range(1, (p + 1) // 2):
        chi[x * x % p] = 1
    chi = tuple(chi)
    inverse = [0, 1] + [0] * (p - 2)
    for x in range(2, p):
        inverse[x] = (p - p // x) * inverse[p % x] % p
    inverse = array("i", inverse)
    c4, c6 = (pmod(c, p) for c in c_invariants(model))
    return _CountingContext(
        p=p,
        chi=chi,
        inverse=inverse,
        # with c4 or c6 zero mod p (j = 0 or 1728) every fiber has a = 0 or
        # b = 0, and the table would never be read
        s_kk=_cubic_sum_table(p, chi, inverse) if c4 and c6 else None,
        s_classes={},
        c4=c4,
        c6=c6,
        rank20_split=rank20 and kronecker(model.d, p) == 1,
    )


def _local(f: Poly, weight: int, t0, k: int, p: int) -> int:
    """(f / pi^k)(t0) mod p, where pi is t - t0, or 1/t at t0 = INFINITY.

    f is an integer polynomial of weight >= its degree; at t=oo it reads
    s^weight f(1/s) in the chart s = 1/t, so the value is the coefficient of
    t^(weight - k).  The Taylor coefficients of f at t0 below the k-th must
    vanish mod p, or PRECONDITION is raised: the order of f at the place
    dropped under reduction.
    """
    if t0 == INFINITY:
        taylor = [f[weight - j] if weight - j < len(f) else 0 for j in range(k + 1)]
    else:
        # the j-th Taylor coefficient at t0 is sum over i of C(i, j) f_i t0^(i - j)
        taylor = [
            peval_mod([comb(i, j) * a for i, a in enumerate(f[j:], j)], t0, p)
            for j in range(k + 1)
        ]
    if any(c % p for c in taylor[:k]):
        raise VerificationError("PRECONDITION", "valuation dropped under reduction")
    return taylor[k] % p


def _charsum_count(model: SurfaceModel, p: int, t0) -> int:
    """Points on the fiber's projective Weierstrass cubic at t0, by the direct
    character sum over x: the oracle of count_fiber at smooth and I_n fibers."""
    # complete the square: y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6
    chi = _counting_context(model, p).chi
    b2, b4, b6, _ = b_invariants(model)
    b2v, b4v, b6v = (_local(f, w, t0, 0, p) for f, w in ((b2, 4), (b4, 8), (b6, 12)))
    b4v = 2 * b4v % p
    s = 0
    for x in range(p):
        s += chi[(((4 * x + b2v) * x + b4v) * x + b6v) % p]
    return p + 1 + s


def _class_exponent(p: int, power: int) -> int:
    """e such that v^e mod p names the class of v modulo power-th powers in F_p."""
    return (p - 1) // gcd(power, p - 1)


def _cubic_sum(ctx: _CountingContext, a: int, b: int) -> int:
    """S(a, b) = sum over X in F_p of chi(X^3 + a X + b), by one lookup.

    X -> vX gives S(v^2 a, v^3 b) = chi(v) S(a, b); with v = a/b and ab != 0
    that is S(a, b) = chi(ab) S(k, k) for k = a^3/b^2.  With v = u^2 it gives
    S(u^4 a, u^6 b) = S(a, b), so when ab = 0 the sum depends only on the class
    of a modulo fourth powers and of b modulo sixth powers.  Since F_p^* is
    cyclic, the power a^((p - 1)/gcd(4, p - 1)) names the class of a (0 for
    a = 0), and likewise for b; so at most gcd(4, p - 1) + gcd(6, p - 1) + 1
    <= 11 sums are taken directly, once each.
    """
    p, chi = ctx.p, ctx.chi
    if a and b:
        inverse = ctx.inverse
        return chi[a * b % p] * ctx.s_kk[a * a * a * inverse[b] * inverse[b] % p]
    key = (pow(a, _class_exponent(p, 4), p), pow(b, _class_exponent(p, 6), p))
    if key not in ctx.s_classes:
        ctx.s_classes[key] = sum(chi[(x * x * x + a * x + b) % p] for x in range(p))
    return ctx.s_classes[key]


def _axis_sum(ctx: _CountingContext, a_axis: list, b_axis: list) -> int:
    """The sum of S(a, 0) over a in a_axis and of S(0, b) over b in b_axis.

    X -> vX gives S(v^2 a, 0) = chi(v) S(a, 0) and S(0, v^3 b) = chi(v) S(0, b).
    Each value is keyed by its class modulo fourth or sixth powers, named by
    _class_exponent as _cubic_sum keys it, and the keys k and p - k name one
    square class of a, or one cube class of b, whose sums differ in sign; so
    one direct sum is taken per square or cube class, through _cubic_sum on
    one representative.  With p = 3 mod 4 every S(a, 0) is 0, as X -> -X
    flips each term, and with p = 2 mod 3 every S(0, b) is 0, as cubing
    permutes F_p; those axes take no sum at all.
    """
    p, total = ctx.p, 0
    for values, power, vanish in ((a_axis, 4, p % 4 == 3), (b_axis, 6, p % 3 == 2)):
        if vanish:
            continue
        keys = list(map(pow, values, repeat(_class_exponent(p, power)), repeat(p)))
        representative = dict(zip(keys, values))
        sums = {}
        for key, count in Counter(keys).items():
            if p - key in sums:
                total -= count * sums[p - key]
                continue
            v = representative[key]
            sums[key] = _cubic_sum(ctx, v, 0) if power == 4 else _cubic_sum(ctx, 0, v)
            total += count * sums[key]
    return total


def _star_splits(ctx: _CountingContext, t0) -> bool:
    # I_0*: four simple components, three of which match the roots of the
    # residual cubic T^3 - 3 c4' T - 2 c6' with c4' = (c4/pi^2)(t0) etc.  Its
    # discriminant is 108 (c4'^3 - c6'^2), a unit times (Delta/pi^6)(t0), and
    # good_prime keeps v(Delta) = 6 here: the cubic is squarefree mod p, so its
    # three roots lie in F_p exactly when it divides T^p - T
    p = ctx.p
    a = _local(ctx.c4, _WEIGHT["c4"], t0, 2, p)
    b = _local(ctx.c6, _WEIGHT["c6"], t0, 3, p)
    cubic = ((-2 * b) % p, (-3 * a) % p, 0, 1)
    return ppow_mod((0, 1), p, cubic, p) == (0, 1)


def count_fiber(model: SurfaceModel, p: int, t0) -> int:
    """Points on the fiber of the smooth model at t0 in P^1(F_p).

    t0 is an integer (finite place) or the INFINITY constant.  The fiber is
    singular exactly when its Weierstrass cubic is, since 1728 Delta = c4^3 - c6^2.
    """
    ctx = _counting_context(model, p)
    if t0 != INFINITY:
        t0 = int(t0) % p
    # points on the projective cubic, as _charsum_count counts them: for p > 3
    # X = 36x + 3b2 maps y^2 = 4x^3+b2x^2+2b4x+b6 to 108^2 y^2 = X^3 + aX + b
    a = -27 * _local(ctx.c4, _WEIGHT["c4"], t0, 0, p) % p
    b = -54 * _local(ctx.c6, _WEIGHT["c6"], t0, 0, p) % p
    if (4 * a * a * a + 27 * b * b) % p:
        return p + 1 + _cubic_sum(ctx, a, b)
    # t0 is a root of Delta mod p; good_prime keeps the places pairwise coprime
    # mod p, so it lies on exactly one of them (t=oo comes last)
    fibers = classify_fibers(model)
    datum = fibers[-1] if t0 == INFINITY else next(
        F for F in fibers if F.poly is not None and peval_mod(F.poly, t0, p) == 0
    )
    sym = datum.kodaira_type
    k = kodaira(sym)
    if k.family == "I":
        # the Weierstrass cubic is nodal (good_prime keeps v(c4) = 0): p points
        # when the node's tangents are rational, p + 2 when they are conjugate;
        # for n >= 2 the smooth model replaces the node by an n-cycle of rational curves
        count = p + 1 + _cubic_sum(ctx, a, b)
        if k.n == 1:
            return count
        if count == p:
            return k.n * p
        if count == p + 2:
            raise VerificationError(
                "COMPONENTS_NOT_RATIONAL",
                f"{sym} fiber at {datum.place}: node tangents not rational at p={p}",
            )
        raise VerificationError(
            "PRECONDITION", f"{sym} fiber at {datum.place}: {count} points on the cubic at p={p}"
        )
    # additive: II, III* and II* need no test, since a graph symmetry that fixes
    # the identity component is trivial there, so Frobenius fixes every component
    if sym == "I0*" and not _star_splits(ctx, t0):
        why = "residual cubic does not split"
    elif sym not in ("II", "I0*", "III*", "II*") and not ctx.rank20_split:
        # III, IV, IV*, I_b* (b >= 1): rationality granted by rank 20 over Q at split p
        why = "components not known rational"
    else:
        return datum.component_count * p + 1
    raise VerificationError(
        "COMPONENTS_NOT_RATIONAL", f"{sym} fiber at {datum.place}: {why} at p={p}"
    )


def surface_count(model: SurfaceModel, p: int) -> int:
    """#X(F_p) for the smooth elliptic K3 surface, summed fiberwise in one pass.

    a = -27 c4(t) and b = -54 c6(t), the cubic X^3 + aX + b that count_fiber
    reads, are evaluated at every t in F_p at once.  With ab != 0 the fiber's
    sum is chi(ab) S(k, k) for k = a^3/b^2, and 4a^3 + 27b^2 = b^2 (4k + 27), so
    the fiber is singular exactly when 4k + 27 = 0; with ab = 0 the sum is
    _cubic_sum's, taken once per class by _axis_sum, and the fiber singular
    when a = b = 0.  Only the singular fibers, in t order, and t=oo go
    through count_fiber, which keeps its place lookup, its component rules
    and the first error in t order.
    """
    ctx = _counting_context(model, p)
    chi, inverse, s_kk = ctx.chi, ctx.inverse, ctx.s_kk
    node = -27 * inverse[4] % p  # the k with 4k + 27 = 0
    a_values = pvalues_mod(pscale(ctx.c4, -27), p)
    b_values = pvalues_mod(pscale(ctx.c6, -54), p)
    sums, singular, a_axis, b_axis = 0, [], [], []
    for t0, a, b in zip(range(p), a_values, b_values):
        if a and b:
            b_inverse = inverse[b]
            k = a * a * a * b_inverse * b_inverse % p
            if k == node:
                singular.append(t0)
            else:
                sums += chi[a * b % p] * s_kk[k]
        elif a:
            a_axis.append(a)
        elif b:
            b_axis.append(b)
        else:
            singular.append(t0)
    total = (p + 1) * (p - len(singular)) + sums + _axis_sum(ctx, a_axis, b_axis)
    total += sum(count_fiber(model, p, t0) for t0 in singular)
    return total + count_fiber(model, p, INFINITY)


def algebraic_count(p: int) -> int:
    """1 + p^2 + 20p: the part of #X(F_p) that is not a_p, for a rank-20 model
    at a good split prime."""
    return 1 + p * p + 20 * p


def trace_ap(model: SurfaceModel, p: int) -> int:
    """a_p = #X(F_p) - algebraic_count(p) at a good split prime of a rank-20 model.

    The preconditions are checked before the count: rank20_effective decides
    rank 20 over Q, and refuses a false claim; p must be split.
    """
    if not rank20_effective(model):
        raise VerificationError(
            "PRECONDITION", f"{model.name} is not effectively of rank 20 over Q"
        )
    if p < 1 or kronecker(model.d, p) != 1:
        raise VerificationError("PRECONDITION", f"p={p} is not split for d={model.d}")
    ap = surface_count(model, p) - algebraic_count(p)
    if abs(ap) > 2 * p:
        raise VerificationError("PRECONDITION", f"a_{p}={ap} breaks the Weil bound")
    return ap


# ---------------------------------------------------------------- twisting


def twist_model(model: SurfaceModel, delta: int) -> SurfaceModel:
    """Quadratic twist by squarefree delta: y^2 = x^3 + d a2 x^2 + d^2 a4 x + d^3 a6.

    Constant twisting leaves every fiber type in place (c4, c6, Delta scale by
    units of Q[t]), so the expected configuration carries over.  Only sections
    with y = 0 survive twisting rationally; the rest are dropped.
    """
    if not is_squarefree(delta):
        raise VerificationError("PRECONDITION", "twist must be a nonzero squarefree integer")
    if model.a1 or model.a3:
        raise VerificationError(
            "UNSUPPORTED_SHAPE", "quadratic twisting needs a model with a1 = a3 = 0"
        )
    if delta == 1:
        return model
    kept = tuple(
        replace(s, x_num=pscale(s.x_num, delta), y_den=(1,))
        for s in model.sections
        if s.y_num == ()
    )
    return replace(
        model,
        name=f"{model.name}[{delta}]",
        a2=pscale(model.a2, delta),
        a4=pscale(model.a4, delta * delta),
        a6=pscale(model.a6, delta**3),
        sections=kept,
        twist_by=squarefree_part(model.twist_by * delta),
    )


# ---------------------------------------------------------------- serialization


def model_to_json(model: SurfaceModel) -> dict:
    """JSON-ready dict; polynomials as ascending integer coefficient lists."""
    obj = {
        "name": model.name,
        "d": model.d,
        "rank20_over_Q": model.rank20_over_Q,
        "a": {
            "a1": list(model.a1),
            "a2": list(model.a2),
            "a3": list(model.a3),
            "a4": list(model.a4),
            "a6": list(model.a6),
        },
        "sections": [
            {
                "x_num": list(s.x_num),
                "x_den": list(s.x_den),
                "y_num": list(s.y_num),
                "y_den": list(s.y_den),
                "torsion_order": s.torsion_order,
                "component_hits": [[pl, k] for pl, k in s.component_hits],
            }
            for s in model.sections
        ],
        "expected_config": [[pl, sym] for pl, sym in model.expected_config],
    }
    if model.twist_by != 1:
        obj["twist_by"] = model.twist_by
    return obj


_REQUIRED = object()
_JSON_TYPE = {
    dict: "an object", list: "an array", str: "a string", int: "an integer", bool: "a boolean"
}


def _json_field(obj, key: str, kind: type, default=_REQUIRED):
    """obj[key], of exactly the JSON type kind (a bool is no int), or default
    when the key is absent; PRECONDITION otherwise."""
    if type(obj) is not dict:
        raise VerificationError("PRECONDITION", "a model and its sections must be JSON objects")
    if key not in obj:
        if default is _REQUIRED:
            raise VerificationError("PRECONDITION", f"model JSON lacks {key!r}")
        return default
    if type(obj[key]) is not kind:
        raise VerificationError(
            "PRECONDITION", f"model JSON field {key!r} must be {_JSON_TYPE[kind]}"
        )
    return obj[key]


def _json_ints(obj, key: str, default=()) -> tuple:
    values = tuple(_json_field(obj, key, list, default))
    if any(type(v) is not int for v in values):
        raise VerificationError("PRECONDITION", f"model JSON field {key!r} must hold integers")
    return values


def _json_pairs(obj, key: str, kinds: tuple[type, type]) -> tuple:
    pairs = _json_field(obj, key, list, ())
    for pair in pairs:
        if type(pair) is not list or len(pair) != 2 or any(
            type(v) is not k for v, k in zip(pair, kinds)
        ):
            names = " and ".join(_JSON_TYPE[k] for k in kinds)
            raise VerificationError(
                "PRECONDITION", f"model JSON field {key!r} must hold pairs of {names}"
            )
    return tuple(tuple(pair) for pair in pairs)


def model_from_json(obj) -> SurfaceModel:
    """Inverse of model_to_json; validates through the SurfaceModel constructor.

    A value that does not describe a model raises PRECONDITION.
    """
    a = _json_field(obj, "a", dict)
    sections = tuple(
        SectionData(
            x_num=_json_ints(s, "x_num", _REQUIRED),
            x_den=_json_ints(s, "x_den", (1,)),
            y_num=_json_ints(s, "y_num"),
            y_den=_json_ints(s, "y_den", (1,)),
            torsion_order=_json_field(s, "torsion_order", int, 0),
            component_hits=_json_pairs(s, "component_hits", (str, int)),
        )
        for s in _json_field(obj, "sections", list, ())
    )
    return SurfaceModel(
        name=_json_field(obj, "name", str),
        **{key: _json_ints(a, key) for key in _DEGREE_BOUND},
        d=_json_field(obj, "d", int),
        rank20_over_Q=_json_field(obj, "rank20_over_Q", bool, False),
        sections=sections,
        expected_config=_json_pairs(obj, "expected_config", (str, str)),
        twist_by=_json_field(obj, "twist_by", int, 1),
    )
