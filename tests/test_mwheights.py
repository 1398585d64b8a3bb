"""Height pairings and Neron-Severi discriminants."""

from fractions import Fraction

import pytest

from picard20.errors import VerificationError
from picard20.models import REGISTRY, get_model
from picard20.mwheights import (
    TABLE_ROWS,
    ConfigLattice,
    _det,
    compute_PO,
    config_from_model,
    contribution,
    gram_denominator_bound,
    height,
    ns_discriminant,
    required_gram_determinant,
)
from picard20.ellsurf import SectionData, classify_fibers, kodaira


class TestContribution:
    def test_cyclic_values(self):
        assert contribution("I9", 3) == Fraction(2)
        assert contribution("I2", 1) == Fraction(1, 2)
        assert contribution("I7", 1) == Fraction(6, 7)
        assert contribution("I7", 2) == Fraction(10, 7)
        assert contribution("I7", 3) == Fraction(12, 7)
        assert contribution("I5", 0) == 0

    def test_cyclic_symmetry(self):
        # i(m - i)/m is symmetric under i -> m - i
        for m in (2, 3, 5, 7, 9, 12, 19):
            for i in range(1, m):
                assert contribution(f"I{m}", i) == contribution(f"I{m}", m - i)

    def test_additive_values(self):
        assert contribution("III", 1) == Fraction(1, 2)
        assert contribution("III*", 1) == Fraction(3, 2)
        assert contribution("IV", 1) == Fraction(2, 3)
        assert contribution("IV", 2) == Fraction(2, 3)
        assert contribution("IV*", 1) == Fraction(4, 3)
        assert contribution("I0*", 1) == 1
        assert contribution("I0*", 2) == 1
        assert contribution("I4*", 1) == 1
        assert contribution("I4*", 2) == Fraction(2)
        assert contribution("I4*", 3) == Fraction(2)
        assert contribution("II", 0) == 0
        assert contribution("II*", 0) == 0

    def test_identity_component_is_free(self):
        for sym in ("I1", "I19", "II", "III", "IV", "I0*", "IV*", "III*", "II*"):
            assert contribution(sym, 0) == 0

    def test_invalid_indices_rejected(self):
        for sym, idx in (("I2", 2), ("II", 1), ("III", 2), ("I0*", 4), ("II*", 1)):
            with pytest.raises(VerificationError):
                contribution(sym, idx)

    def test_values_below_two(self):
        # corrections never reach 2 except deep I_n and far I_b* components
        for sym in ("III", "IV", "IV*", "III*"):
            assert 0 < contribution(sym, 1) < 2


def test_root_data():
    assert kodaira("I19").root_disc == 19 and kodaira("I19").root_rank == 18
    assert kodaira("III*").root_disc == 2 and kodaira("III*").root_rank == 7
    assert kodaira("II*").root_disc == 1 and kodaira("II*").root_rank == 8
    assert kodaira("IV").root_disc == 3 and kodaira("IV").root_rank == 2
    assert kodaira("I0*").root_disc == 4 and kodaira("I0*").root_rank == 4
    assert kodaira("I2*").root_disc == 4 and kodaira("I2*").root_rank == 6
    assert kodaira("I9").exponent == 9
    assert kodaira("III*").exponent == 2
    assert kodaira("I1*").exponent == 4 and kodaira("I2*").exponent == 2
    for sym in ("I0", "I", "I*", "V", "I-1", "i3"):
        with pytest.raises(VerificationError) as err:
            kodaira(sym)
        assert err.value.code == "PRECONDITION"
        with pytest.raises(VerificationError):
            contribution(sym, 0)


class TestHeights:
    def test_free_section_of_d27(self):
        model = get_model("d27")
        section = model.sections[0]
        assert compute_PO(section, model) == 0
        assert height(section, model) == Fraction(3, 2)

    def test_torsion_sections_have_height_zero(self):
        for name, idx in (("d27", 1), ("d7-tate", 0), ("d4", 0)):
            model = get_model(name)
            section = model.sections[idx]
            assert section.torsion_order > 1
            assert height(section, model) == 0, name

    def test_seven_torsion_corrections(self):
        model = get_model("d7-tate")
        hits = dict(model.sections[0].component_hits)
        places = {F.place: F.kodaira_type for F in classify_fibers(model)}
        got = sorted(contribution(places[pl], idx) for pl, idx in hits.items())
        assert got == [Fraction(6, 7), Fraction(10, 7), Fraction(12, 7)]

    def test_a_section_meets_each_fiber_once(self):
        # summing both hits' corrections gave d27's free section the height -1/2
        section = get_model("d27").sections[0]
        with pytest.raises(VerificationError) as err:
            SectionData(
                x_num=section.x_num,
                y_num=section.y_num,
                component_hits=section.component_hits + (("t=1", 3),),
            )
        assert (err.value.code, err.value.message) == (
            "PRECONDITION", "section lists the fiber at t=1 twice"
        )

    def test_height_rejects_hits_at_unknown_places(self):
        model = get_model("d27")
        rogue = SectionData(x_num=(0,), y_num=(0,), component_hits=(("t=5", 1),))
        with pytest.raises(VerificationError):
            height(rogue, model)


class TestPoleOrder:
    def test_polynomial_x_below_degree_five(self):
        model = get_model("d27")
        assert compute_PO(model.sections[0], model) == 0

    def test_finite_pole(self):
        section = SectionData(x_num=(1,), x_den=(0, 0, 1), y_num=(1,))
        assert compute_PO(section, get_model("d27")) == 1

    def test_odd_pole_order_rejected(self):
        section = SectionData(x_num=(1,), x_den=(0, 1), y_num=(1,))
        with pytest.raises(VerificationError):
            compute_PO(section, get_model("d27"))

    def test_pole_at_infinity(self):
        section = SectionData(x_num=(0, 0, 0, 0, 0, 0, 1), y_num=(1,))
        assert compute_PO(section, get_model("d27")) == 1


def test_config_from_model_matches_declared_discriminant():
    for name, model in REGISTRY.items():
        config = config_from_model(model)
        assert ns_discriminant(config) == model.d, name


def test_registry_models_match_their_table_rows():
    # every model but d3 is its table row; the -3 row (I1 x3, I3, I12*,
    # torsion 4) is another configuration than d3's (II*, IV, II*), and
    # table_check's flagged == [-3] pins that row
    rows = dict(TABLE_ROWS)
    for name, model in REGISTRY.items():
        if name == "d3":
            continue
        config, row = config_from_model(model), rows[model.d]
        assert config.fibers == row.fibers, name
        assert config.mw_rank == row.mw_rank, name
        assert config.torsion_order == row.torsion_order, name
        assert config.mw_gram == row.mw_gram, name


def test_rank_twenty_accounting():
    for _, config in TABLE_ROWS:
        assert 2 + sum(kodaira(s).root_rank * m for s, m in config.fibers) + config.mw_rank == 20
        assert config.euler_sum == 24


def test_table_exact_rows():
    for d, config in TABLE_ROWS:
        if d == -3:
            with pytest.raises(VerificationError) as err:
                ns_discriminant(config)
            assert err.value.code == "NON_INTEGRAL"
        elif config.mw_rank == 0 or config.mw_gram is not None:
            assert ns_discriminant(config) == d


def test_table_rank_rows_without_gram():
    with_rank = [(d, c) for d, c in TABLE_ROWS if c.mw_rank > 0 and c.mw_gram is None]
    assert sorted(d for d, _ in with_rank) == [-163, -67, -43, -28]
    for d, config in with_rank:
        with pytest.raises(VerificationError) as err:
            ns_discriminant(config)
        assert err.value.code == "PRECONDITION"
        need = required_gram_determinant(d, config)
        assert need > 0
        assert gram_denominator_bound(config) % need.denominator == 0, d


def test_required_gram_determinant_values():
    by_d = {d: c for d, c in TABLE_ROWS}
    assert required_gram_determinant(-67, by_d[-67]) == Fraction(67, 28)
    assert required_gram_determinant(-28, by_d[-28]) == Fraction(7, 18)
    assert required_gram_determinant(-43, by_d[-43]) == Fraction(43, 72)
    assert required_gram_determinant(-163, by_d[-163]) == Fraction(163, 72)


def test_ns_discriminant_is_negative_and_integral():
    config = ConfigLattice(
        fibers=(("I1", 4), ("I2", 1), ("I9", 2)),
        mw_rank=1,
        torsion_order=3,
        mw_gram=((Fraction(3, 2),),),
    )
    assert ns_discriminant(config) == -27


def test_determinant_of_int_entries_is_exact():
    for gram, want in ((((0, 1), (1, 0)), -1), (((2, 1), (1, 2)), 3)):
        det = _det(gram)
        assert det == want and isinstance(det, (Fraction, int)), det


def test_two_by_two_gram_determinants():
    # plain elimination, a zero pivot that needs a row swap, and a singular
    # matrix, on the rank-20 configuration of the -28 row (root discs 6 * 12)
    def config(gram):
        return ConfigLattice(fibers=(("I1", 6), ("I6", 1), ("I12", 1)), mw_rank=2, mw_gram=gram)

    assert ns_discriminant(config(((2, 1), (1, 2)))) == -216
    with pytest.raises(VerificationError) as exc:
        ns_discriminant(config(((0, 1), (1, 0))))
    assert (exc.value.code, exc.value.message) == ("PRECONDITION", "discriminant 72 is not negative")
    with pytest.raises(VerificationError) as exc:
        ns_discriminant(config(((1, 2), (2, 4))))
    assert exc.value.code == "PRECONDITION"


def test_gram_size_mismatch_rejected():
    with pytest.raises(VerificationError):
        ConfigLattice(
            fibers=(("I1", 4),),
            mw_rank=2,
            mw_gram=((Fraction(1),),),
        )


def test_two_free_sections_unsupported():
    base = get_model("d27")
    doubled = type(base)(
        "twofree",
        base.a1,
        base.a2,
        base.a3,
        base.a4,
        base.a6,
        d=base.d,
        sections=(base.sections[0], base.sections[0]),
    )
    with pytest.raises(VerificationError):
        config_from_model(doubled)
