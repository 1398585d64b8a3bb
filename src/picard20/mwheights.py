"""Shioda height pairing and Neron-Severi discriminants on elliptic K3 surfaces.

Everything is exact rational arithmetic.  The height of a section is
h(P) = 4 + 2 (P.O) - sum of fiber correction terms, and the Neron-Severi
discriminant of a rank-20 configuration is
-(product of root lattice discriminants) * det(MW Gram) / torsion^2.
TABLE_ROWS is the paper's rank-20 classification table, one configuration
per class-number-one discriminant, and table_check tests each row against
that identity.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import VerificationError
from .ellsurf import SectionData, SurfaceModel, classify_fibers, kodaira
from .ellsurf import rank20_effective, shioda_tate_rank
from .polys import factor_int_poly, pdeg, valuation


# correction at a non-identity simple component of the additive types with a
# nontrivial component group
_ADDITIVE_CORRECTION = {
    "III": Fraction(1, 2),
    "IV": Fraction(2, 3),
    "IV*": Fraction(4, 3),
    "III*": Fraction(3, 2),
}


def contribution(symbol: str, index: int) -> Fraction:
    """Correction term for a section through component `index` of the fiber.

    This is the one statement of the height corrections of every fiber type.
    Index 0 is the identity component.  For I_n the components are indexed
    around the cycle; for I_b* index 1 is the near component and 2, 3 the far
    ones.  II and II* only have the identity component.
    """
    k = kodaira(symbol)
    if not 0 <= index < k.root_disc:
        raise VerificationError("PRECONDITION", f"{symbol} has no component {index}")
    if index == 0:
        return Fraction(0)
    if k.family == "I":
        return Fraction(index * (k.n - index), k.n)
    if k.family == "I*":
        return Fraction(1) if index == 1 else 1 + Fraction(k.n, 4)
    return _ADDITIVE_CORRECTION[symbol]


class _ConfigFields(NamedTuple):
    fibers: tuple  # ((kodaira symbol, multiplicity), ...)
    mw_rank: int
    torsion_order: int
    mw_gram: Optional[tuple]  # row tuples of Fractions, size mw_rank


class ConfigLattice(_ConfigFields):
    """Fiber configuration plus Mordell-Weil data of a rank-20 surface."""

    __slots__ = ()

    def __new__(cls, fibers, mw_rank=0, torsion_order=1, mw_gram=None):
        fibers = tuple((str(s), int(m)) for s, m in fibers)
        if mw_gram is not None:
            mw_gram = tuple(tuple(Fraction(x) for x in row) for row in mw_gram)
            if len(mw_gram) != mw_rank or any(len(r) != mw_rank for r in mw_gram):
                raise VerificationError("PRECONDITION", "Gram matrix size != MW rank")
        if torsion_order < 1 or mw_rank < 0:
            raise VerificationError("PRECONDITION", "bad Mordell-Weil data")
        return super().__new__(cls, fibers, mw_rank, torsion_order, mw_gram)

    @property
    def root_discs(self) -> tuple:
        out = []
        for sym, mult in self.fibers:
            out.extend([kodaira(sym).root_disc] * mult)
        return tuple(out)

    @property
    def euler_sum(self) -> int:
        return sum(kodaira(sym).euler * mult for sym, mult in self.fibers)

    @property
    def picard_rank(self) -> int:
        return shioda_tate_rank(self.fibers, self.mw_rank)


# Classification table: one model per class-number-one discriminant, given as
# fiber configuration and Mordell-Weil group.  Rows whose Mordell-Weil lattice
# has positive rank but no published Gram matrix can only be checked for
# divisibility consistency; the d = -3 row is expected to fail the
# discriminant identity as stated (known inconsistency, reported not hidden).
TABLE_ROWS = (
    (-3, ConfigLattice(fibers=(("I1", 3), ("I3", 1), ("I12*", 1)), torsion_order=4)),
    (-4, ConfigLattice(fibers=(("I0*", 1), ("III*", 2)), torsion_order=2)),
    (-7, ConfigLattice(fibers=(("I1", 3), ("I7", 3)), torsion_order=7)),
    (-8, ConfigLattice(fibers=(("I1", 1), ("I4", 1), ("III*", 1), ("II*", 1)))),
    (-11, ConfigLattice(fibers=(("I1", 3), ("I11", 1), ("II*", 1)))),
    (-12, ConfigLattice(fibers=(("I2", 1), ("I3", 1), ("III*", 1), ("II*", 1)))),
    (-16, ConfigLattice(fibers=(("I2", 1), ("I8", 1), ("I1*", 2)), torsion_order=4)),
    (-19, ConfigLattice(fibers=(("I1", 5), ("I19", 1)),)),
    (
        -27,
        ConfigLattice(
            fibers=(("I1", 4), ("I2", 1), ("I9", 2)),
            mw_rank=1,
            torsion_order=3,
            mw_gram=((Fraction(3, 2),),),
        ),
    ),
    (-28, ConfigLattice(fibers=(("I1", 6), ("I6", 1), ("I12", 1)), mw_rank=2)),
    (-43, ConfigLattice(fibers=(("I1", 6), ("I6", 1), ("I12", 1)), mw_rank=2)),
    (-67, ConfigLattice(fibers=(("I1", 3), ("I4", 1), ("I7", 1), ("II*", 1)), mw_rank=1)),
    (-163, ConfigLattice(fibers=(("I1", 6), ("I6", 1), ("I12", 1)), mw_rank=2)),
)


def _det(gram: tuple) -> Fraction:
    # exact elimination over Q: int entries must not meet true division
    n = len(gram)
    m = [[Fraction(v) for v in row] for row in gram]
    det = Fraction(1)
    for i in range(n):
        pivot = next((r for r in range(i, n) if m[r][i] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            for c in range(i, n):
                m[r][c] -= f * m[i][c]
    return det


def corrections(section: SectionData, model: SurfaceModel) -> list:
    """(place, index, correction) for each component the section meets.

    The fiber type at each hit's place is read from classify_fibers(model).
    """
    types = {F.place: F.kodaira_type for F in classify_fibers(model)}
    out = []
    for place, index in section.component_hits:
        if place not in types:
            raise VerificationError(
                "PRECONDITION", f"component hit at {place}, which carries no reducible fiber"
            )
        out.append((place, index, contribution(types[place], index)))
    return out


def height(section: SectionData, model: SurfaceModel) -> Fraction:
    """h(P) = 4 + 2 P.O - sum of corrections at the section's component hits.

    P.O comes from compute_PO, and each correction from corrections.
    """
    PO = compute_PO(section, model)
    return Fraction(4 + 2 * PO) - sum(c for _, _, c in corrections(section, model))


def compute_PO(section: SectionData, model: SurfaceModel) -> int:
    """Intersection number P.O from the poles of x(P).

    Each finite pole contributes half its (necessarily even) order times the
    degree of the place; at infinity a polynomial part of degree up to 4 is
    free, beyond that ceil((deg x - 4)/2).
    """
    total = 0
    if pdeg(section.x_den) > 0:
        _, factors = factor_int_poly(section.x_den)
        for g, m in factors:
            cancel = valuation(section.x_num, g) if section.x_num else m
            order = m - min(m, cancel)
            if order <= 0:
                continue
            if order % 2:
                raise VerificationError(
                    "PRECONDITION", f"odd pole order {order} of x(P); not a section"
                )
            total += (order // 2) * pdeg(g)
    deg_x = pdeg(section.x_num) - pdeg(section.x_den)
    if deg_x > 4:
        total += -((4 - deg_x) // 2)  # ceil((deg_x - 4) / 2)
    return total


@functools.lru_cache(maxsize=None)
def config_from_model(model: SurfaceModel) -> ConfigLattice:
    """ConfigLattice of a model: fibers from classify_fibers, MW data from sections.

    ellsurf.rank20_effective decides rank 20 over Q and is asked first, so a
    false rank-20 claim is refused before any height.  The Gram matrix is
    height(P, model) of the one free section P; with more than one free
    section the off-diagonal pairings are not determined by the stored data,
    so that case is refused.
    """
    rank20_effective(model)  # refuses a false rank-20 claim
    counts: dict[str, int] = {}
    for F in classify_fibers(model):
        counts[F.kodaira_type] = counts.get(F.kodaira_type, 0) + F.degree
    free = [s for s in model.sections if not s.torsion_order]
    if len(free) > 1:
        raise VerificationError(
            "PRECONDITION", "cannot derive a Gram matrix for MW rank > 1 from sections"
        )
    return ConfigLattice(
        fibers=tuple(sorted(counts.items())),
        mw_rank=len(free),
        torsion_order=math.lcm(*(s.torsion_order for s in model.sections if s.torsion_order)),
        mw_gram=((height(free[0], model),),) if free else None,
    )


def ns_discriminant(config: ConfigLattice) -> int:
    """-(prod root discs) * det(Gram) / torsion^2; must be a negative integer.

    Only a rank-20 configuration is NS: below 20 the formula gives the
    discriminant of the sublattice that the known fibers and sections span.
    """
    if config.picard_rank != 20:
        raise VerificationError(
            "PRECONDITION", f"lattice ranks sum to {config.picard_rank}, not 20"
        )
    if config.mw_rank > 0 and config.mw_gram is None:
        raise VerificationError(
            "PRECONDITION", "Gram matrix required when the Mordell-Weil rank is positive"
        )
    det = _det(config.mw_gram) if config.mw_rank > 0 else Fraction(1)
    value = Fraction(-math.prod(config.root_discs)) * det / config.torsion_order**2
    if value.denominator != 1:
        raise VerificationError(
            "NON_INTEGRAL", f"discriminant formula gives non-integer {value}"
        )
    if value >= 0:
        raise VerificationError("PRECONDITION", f"discriminant {value} is not negative")
    return int(value)


def height_report(model: SurfaceModel, section: int) -> dict:
    """The height document of the model's stored section of index section.

    ellsurf.rank20_effective is asked first, so a false rank-20 claim is
    refused before any height.
    """
    if not 0 <= section < len(model.sections):
        raise VerificationError(
            "PRECONDITION",
            f"{model.name} has {len(model.sections)} sections, index {section} invalid",
        )
    rank20_effective(model)  # refuses a false rank-20 claim
    data = model.sections[section]
    return {
        "model": model.name,
        "section": section,
        "torsion_order": data.torsion_order,
        "pole_order": compute_PO(data, model),
        "corrections": corrections(data, model),
        "height": height(data, model),
    }


def nsdisc_report(model: SurfaceModel) -> dict:
    """The nsdisc document: the model's configuration and its NS discriminant."""
    config = config_from_model(model)
    return {
        "model": model.name,
        "configuration": config.fibers,
        "mw_rank": config.mw_rank,
        "torsion_order": config.torsion_order,
        "mw_gram": config.mw_gram,
        "ns_discriminant": ns_discriminant(config),
    }


def required_gram_determinant(d: int, config: ConfigLattice) -> Fraction:
    """Gram determinant forced by the discriminant identity for a given d.

    For configurations without published generator heights this is all that can
    be checked: it must be positive, with denominator dividing
    (2 * lcm of component exponents)^mw_rank, the a priori bound on height
    denominators in the Mordell-Weil lattice.
    """
    return Fraction(abs(d) * config.torsion_order**2, math.prod(config.root_discs))


def gram_denominator_bound(config: ConfigLattice) -> int:
    bound = 1
    for sym, _ in config.fibers:
        e = kodaira(sym).exponent
        bound = bound * e // math.gcd(bound, e)
    return (2 * bound) ** max(config.mw_rank, 1)


def table_check() -> dict:
    """Consistency report over the built-in classification table."""
    rows = []
    flagged = []
    all_as_expected = True
    for d, cfg in TABLE_ROWS:
        row = {
            "d": d,
            "configuration": ["%s x%d" % (sym, mult) if mult > 1 else sym for sym, mult in cfg.fibers],
            "euler_sum": cfg.euler_sum,
            "euler_ok": cfg.euler_sum == 24,
            "rank_sum": cfg.picard_rank,
            "rank_ok": cfg.picard_rank == 20,
        }
        if cfg.mw_rank > 0 and cfg.mw_gram is None:
            need = required_gram_determinant(d, cfg)
            bound = gram_denominator_bound(cfg)
            row["check"] = "divisibility"
            row["required_gram_det"] = need
            row["status"] = (
                "ok" if need > 0 and bound % need.denominator == 0 else "inconsistent"
            )
        else:
            row["check"] = "exact"
            try:
                disc = ns_discriminant(cfg)
                row["ns_discriminant"] = disc
                row["status"] = "ok" if disc == d else "inconsistent"
            except VerificationError as exc:
                if exc.code != "NON_INTEGRAL":
                    raise
                row["status"] = "non_integral"
                row["note"] = exc.message
                flagged.append(d)
        # the d = -3 row is a known inconsistency and must surface as such
        expected_status = "non_integral" if d == -3 else "ok"
        row["as_expected"] = (
            row["status"] == expected_status and row["euler_ok"] and row["rank_ok"]
        )
        all_as_expected = all_as_expected and row["as_expected"]
        rows.append(row)
    return {"rows": rows, "flagged": flagged, "all_as_expected": all_as_expected}
