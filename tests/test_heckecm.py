"""CM newform coefficients and twist identification.

The frozen streams below double as regression anchors: each was checked
against independent surface point counts (see test_ellsurf) before freezing.
"""

import pytest

from picard20.arith import cornacchia, is_square, kronecker, primes_up_to
from picard20.errors import VerificationError
from picard20.heckecm import (
    CMRule,
    ap_h1,
    match_twist,
    norm_form,
    norm_form_ap,
    principality_certificate,
    split_stream,
    split_type,
    split_types,
)
from picard20.qforms import is_fundamental_discriminant, twist_discriminant

FROZEN_STREAMS = {
    -3: [(7, -13), (13, -1), (19, 11), (31, -46), (37, 47), (43, -22)],
    -4: [(5, -6), (13, 10), (17, -30), (29, 42), (37, -70), (41, 18)],
    -7: [(11, -6), (23, 18), (29, -54), (37, -38), (43, 58), (53, -6)],
    -8: [(11, 14), (17, 2), (19, -34), (41, -46), (43, 14), (59, -82)],
    -11: [(5, -1), (23, 35), (31, -37), (37, -25), (47, 50), (53, -70)],
    -19: [(5, -9), (7, -5), (11, 3), (17, 15), (23, -30), (43, -85)],
    -43: [(11, -21), (13, -17), (17, -9), (23, 3), (31, 19), (41, 39)],
    -67: [(17, -33), (19, -29), (23, -21), (29, -9), (37, 7), (47, 27)],
    -163: [(41, -81), (43, -77), (47, -69), (53, -57), (61, -41), (71, -21)],
}

H1_FIELDS = sorted(FROZEN_STREAMS, key=abs)


def test_frozen_coefficient_streams():
    for dK, rows in FROZEN_STREAMS.items():
        rule = CMRule(dK)
        for p, ap in rows:
            assert ap_h1(rule, p) == ap, (dK, p)


@pytest.mark.parametrize("dK", H1_FIELDS)
def test_split_stream_against_the_per_prime_oracle(dK):
    stream = split_stream(dK, 100000)
    split = [p for p in primes_up_to(100000) if p > 3 and kronecker(dK, p) == 1]
    assert sorted(stream) == split
    Dp, scale = norm_form(dK)
    rule = CMRule(dK)
    for p in split:
        assert stream[p] == norm_form_ap(dK, p, cornacchia(Dp, scale * p)) == ap_h1(rule, p), p


@pytest.mark.parametrize("pmax", [-5, 0, 1, 2, 4])
def test_split_stream_below_the_first_split_prime(pmax):
    assert all(split_stream(dK, pmax) == {} for dK in H1_FIELDS)


def test_split_types_table_against_split_type():
    # the table is read at p mod |d_K|; split_type is its oracle
    primes = [p for p in primes_up_to(100000) if p > 3]
    for dK in H1_FIELDS:
        kinds = split_types(dK)
        assert len(kinds) == -dK
        assert [kinds[p % -dK] for p in primes] == [split_type(dK, p) for p in primes], dK


def test_split_type_matches_kronecker():
    for dK in H1_FIELDS:
        for p in primes_up_to(100):
            if p <= 3:
                continue
            sym = kronecker(dK, p)
            expected = {1: "split", -1: "inert", 0: "ramified"}[sym]
            assert split_type(dK, p) == expected


def test_inert_primes_give_zero():
    for dK in H1_FIELDS:
        for p in primes_up_to(150):
            if p > 3 and split_type(dK, p) == "inert":
                assert ap_h1(CMRule(dK), p) == 0


def test_split_invariants_up_to_200():
    # Weil bound strictly, never divisible by p, CM shape certificates
    for dK in H1_FIELDS:
        D = CMRule(dK).D
        for p in primes_up_to(200):
            if p <= 3 or split_type(dK, p) != "split":
                continue
            ap = ap_h1(CMRule(dK), p)
            assert abs(ap) < 2 * p, (dK, p)
            assert ap % p != 0, (dK, p)
            assert is_square(2 * p + ap), (dK, p)
            minus = 2 * p - ap
            assert minus % D == 0 and is_square(minus // D), (dK, p)


def test_parity_matches_field_parity():
    for dK in H1_FIELDS:
        for p, ap in FROZEN_STREAMS[dK]:
            if dK % 2 == 0:
                assert ap % 2 == 0, (dK, p)


def test_ramified_primes_rejected():
    with pytest.raises(VerificationError):
        ap_h1(CMRule(-19), 19)
    with pytest.raises(VerificationError):
        ap_h1(CMRule(-4), 2)


def test_ap_h1_requires_class_number_one():
    # the rule itself refuses the field, before any prime is asked for
    for dK in (-20, -23):
        with pytest.raises(VerificationError) as err:
            CMRule(dK)
        assert err.value.code == "PRECONDITION"
        assert err.value.message == f"class number of {dK} is not one"


@pytest.mark.parametrize("args, message", [
    ((-12,), "-12 is not a fundamental discriminant"),
    ((-12, 4), "-12 is not a fundamental discriminant"),
    ((-20, 4), "twist 4 is not squarefree"),
    ((-4, -9), "twist -9 is not squarefree"),
    ((-20, 5), "class number of -20 is not one"),
])
def test_cm_rule_refusals_in_order(args, message):
    # the NamedTuple checks its fields in __new__, in the order the
    # dataclass's __post_init__ did
    with pytest.raises(VerificationError) as err:
        CMRule(*args)
    assert (err.value.code, err.value.message) == ("PRECONDITION", message)
    rule = CMRule(-4, 5)
    assert (rule.d_K, rule.twist, rule.D) == (-4, 5, 1)
    assert CMRule(-7) == CMRule(-7, None) and hash(CMRule(-7)) == hash(CMRule(-7, None))


def test_fundamental_discriminants():
    for dK in H1_FIELDS:
        assert is_fundamental_discriminant(dK)
    for d in (-12, -16, -27, -28, -9, -25):
        assert not is_fundamental_discriminant(d)


def test_twist_discriminant():
    assert twist_discriminant(5) == 5
    assert twist_discriminant(-1) == -4
    assert twist_discriminant(2) == 8
    assert twist_discriminant(-3) == -3
    with pytest.raises(VerificationError):
        twist_discriminant(12)


def twisted_stream(dK, delta):
    rule = CMRule(dK, delta)
    return [(p, ap_h1(rule, p)) for p, _ in FROZEN_STREAMS[dK]]


def test_twist_involution():
    # deltas coprime to every prime in the stream, else the row is zeroed
    base = FROZEN_STREAMS[-4]
    for delta in (3, -1, 2, -11):
        twisted = twisted_stream(-4, delta)
        dstar = twist_discriminant(delta)
        assert [(p, ap * kronecker(dstar, p)) for p, ap in twisted] == base


def test_twisted_rule_scales_by_character():
    for dK in H1_FIELDS:
        base, rule = CMRule(dK), CMRule(dK, -7)
        for p in primes_up_to(200):
            if p <= 3 or split_type(dK, p) == "ramified":
                continue
            assert ap_h1(rule, p) == ap_h1(base, p) * kronecker(-7, p), (dK, p)


def test_cubic_shape():
    for p, ap in FROZEN_STREAMS[-3]:
        principality_certificate(p, ap, 3)
        with pytest.raises(VerificationError):
            principality_certificate(p, ap + 1, 3)
    # the certificate with D = 3 succeeds exactly on the cubic shape
    for p in primes_up_to(200):
        if p <= 3:
            continue
        for ap in range(-2 * p, 2 * p + 1):
            shaped = is_square(2 * p + ap) and (2 * p - ap) % 3 == 0 \
                and is_square((2 * p - ap) // 3)
            try:
                principality_certificate(p, ap, 3)
                certified = True
            except VerificationError:
                certified = False
            assert certified == shaped, (p, ap)


class TestMatchTwist:
    def test_base_stream(self):
        verdict = match_twist(FROZEN_STREAMS[-19], CMRule(-19))
        assert verdict.kind == "matches_base"
        assert verdict.expected == dict(FROZEN_STREAMS[-19])

    def test_quadratic_twist_recovers_delta(self):
        for delta in (3, -1, 7, -11):
            twisted = twisted_stream(-4, delta)
            verdict = match_twist(twisted, CMRule(-4))
            if all(kronecker(twist_discriminant(delta), p) == 1
                   for p, _ in FROZEN_STREAMS[-4]):
                assert verdict.kind == "matches_base"
            else:
                assert verdict.kind == "quadratic_twist"
                assert verdict.expected == dict(twisted)
                found = twist_discriminant(verdict.delta)
                want = twist_discriminant(delta)
                for p, _ in FROZEN_STREAMS[-4]:
                    assert kronecker(found, p) == kronecker(want, p)

    def test_twist_ramified_in_the_stream(self):
        # CMRule(-4, 5) gives a_5 = 0; the delta = 5 stream fits that row too
        twisted = twisted_stream(-4, 5)
        assert twisted[0] == (5, 0)
        verdict = match_twist(twisted, CMRule(-4))
        assert verdict.kind == "quadratic_twist" and verdict.delta == 5
        assert verdict.expected == dict(twisted)

    def test_no_match_on_corruption(self):
        rows = [(p, ap + 2) for p, ap in FROZEN_STREAMS[-19]]
        verdict = match_twist(rows, CMRule(-19))
        assert verdict.kind == "no_match"
        assert verdict.failing_prime == 5
        assert verdict.expected == dict(FROZEN_STREAMS[-19])

    def test_no_match_names_first_departure(self):
        rows = [(p, 2 if p == 13 else ap) for p, ap in FROZEN_STREAMS[-4]]
        verdict = match_twist(rows, CMRule(-4))
        assert verdict.kind == "no_match"
        assert verdict.failing_prime == 13

    def test_no_match_beyond_search_bound_names_a_differing_prime(self):
        # delta = 1009 lies past the search bound; a_5 is unchanged by it
        rule = CMRule(-4, 1009)
        rows = [(p, ap_h1(rule, p)) for p in primes_up_to(200) if p > 3]
        base = CMRule(-4)
        assert ap_h1(rule, 5) == ap_h1(base, 5) == -6
        verdict = match_twist(rows, base)
        assert verdict.kind == "no_match"
        assert verdict.failing_prime == 13
        assert dict(rows)[13] != verdict.expected[13]

    def test_cubic_branch_shape(self):
        # replace each a_p by a different root of the same norm equation;
        # the stream stays CM-shaped without matching the base form
        rows = []
        for p, ap in FROZEN_STREAMS[-3]:
            for cand in range(-2 * p, 2 * p + 1):
                if cand == ap or cand % p == 0:
                    continue
                if (2 * p - cand) % 3 == 0 and is_square((2 * p - cand) // 3) \
                        and is_square(2 * p + cand):
                    rows.append((p, cand))
                    break
            else:
                rows.append((p, ap))
        assert any(r != s for r, s in zip(rows, FROZEN_STREAMS[-3]))
        verdict = match_twist(rows, CMRule(-3))
        assert verdict.kind == "cubic_class"
        assert verdict.expected is None

    def test_split_row_missing_from_the_stream(self, monkeypatch):
        import picard20.heckecm

        def without_13(d_K, pmax, flags=None):
            stream = split_stream(d_K, pmax, flags)
            del stream[13]
            return stream

        monkeypatch.setattr(picard20.heckecm, "split_stream", without_13)
        with pytest.raises(VerificationError) as err:
            match_twist(FROZEN_STREAMS[-4], CMRule(-4))
        assert err.value.code == "NO_REPRESENTATION"
        assert err.value.message == "13 = x^2 + 4y^2 has no solution"

    def test_insufficient_rows(self):
        with pytest.raises(VerificationError) as err:
            match_twist(FROZEN_STREAMS[-19][:4], CMRule(-19))
        assert err.value.code == "INSUFFICIENT_DATA"

    def test_inert_rows_are_discarded(self):
        rows = list(FROZEN_STREAMS[-19]) + [(13, 999), (29, 999)]
        verdict = match_twist(rows, CMRule(-19))
        assert verdict.kind == "matches_base"
