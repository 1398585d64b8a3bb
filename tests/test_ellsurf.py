"""Elliptic surface fibers and point counts.

The brute-force oracle counts Weierstrass solutions by direct enumeration;
it agrees with count_fiber exactly on irreducible fibers (smooth, I1, II),
which pins down the counting machinery. On I_n fibers (n >= 2) it decides
rationality: count_fiber gives n p exactly when the nodal cubic has p points
(split node) and refuses exactly when it has p + 2. count_fiber reads each
smooth and multiplicative fiber off a per-prime table of cubic character sums
and a cache of direct sums; the direct character sum _charsum_count is the
oracle of that kernel, fiber by fiber, and the table and the cache are checked
against the sums they stand for. The other multi-component formulas are
validated globally through the trace identity against the CM coefficients, an
independently implemented pipeline.
"""

import json
import pickle
import random
import sys
from array import array
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picard20.arith import kronecker, primes_up_to
from picard20.ellsurf import (
    INFINITY,
    SectionData,
    SurfaceModel,
    c_invariants,
    classify_fibers,
    count_fiber,
    discriminant,
    good_prime,
    model_from_json,
    model_to_json,
    place_label,
    rank20_effective,
    surface_count,
    trace_ap,
    twist_model,
)
from picard20.ellsurf import (
    _axis_sum,
    _charsum_count,
    _counting_context,
    _cubic_sum,
    _cubic_sum_table,
    _kodaira_from_valuations,
    _local,
    _star_splits,
    replace,
)
from picard20.errors import VerificationError
from picard20.heckecm import CMRule, ap_h1
from picard20.models import REGISTRY, get_model
from picard20.polys import pdivmod_mod, peval, peval_mod, pmod, pscale, pvalues_mod
from picard20.qforms import twist_discriminant

_INF = 10**9


def kodaira(v4, v6, vd):
    return _kodaira_from_valuations(v4, v6, vd, "t=0")

FROZEN_COUNTS = {
    ("d19", 5): 117,
    ("d19", 7): 185,
    ("d27", 7): 177,
    ("d7-tate", 11): 336,
    ("d4", 5): 120,
    ("d3", 7): 177,
    ("d11", 5): 125,
}

# twelve II fibers over the roots of t^11 + t + 1 and t = oo
II_FRAME = SurfaceModel("ii-frame", (), (), (), (), (1, 1) + (0,) * 9 + (1,), d=-3)
# I0* at t = 0 and t = oo with residual cubic T^3 + 1728 g(0)
ISTAR_FRAME = SurfaceModel(
    "istar-frame", (), (), (), (), (0, 0, 0, 1, 1, 0, 0, 0, 0, 1), d=-3
)
# y^2 = x^3 + (5t + t^2) x + t + t^12: II at t=0 and one I1 place of degree 22;
# mod 5 the order of c4 at t=0 jumps from 1 to 2 while c6 and Delta keep theirs
II_C4_FRAME = SurfaceModel(
    "ii-c4-frame", (), (), (), (0, 5, 1), (0, 1) + (0,) * 10 + (1,), d=-3
)


def _at(f, t0, weight: int) -> int:
    # a_i at t0; at t=oo, in the chart s = 1/t, the coefficient of t^weight
    if t0 != INFINITY:
        return peval(f, t0)
    return f[weight] if len(f) > weight else 0


def _brute_fiber_count(model: SurfaceModel, p: int, t0) -> int:
    # direct Weierstrass solution scan; +1 for the point at infinity
    a1, a2, a3, a4, a6 = (
        _at(f, t0, w) % p
        for f, w in ((model.a1, 2), (model.a2, 4), (model.a3, 6), (model.a4, 8), (model.a6, 12))
    )
    count = 1
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y) % p == rhs:
                count += 1
    return count


class TestKodairaTable:
    def test_multiplicative_types(self):
        assert kodaira(0, 0, 1) == "I1"
        assert kodaira(0, 0, 19) == "I19"

    def test_additive_types(self):
        assert kodaira(1, 1, 2) == "II"
        assert kodaira(_INF, 1, 2) == "II"
        assert kodaira(1, 2, 3) == "III"
        assert kodaira(1, _INF, 3) == "III"
        assert kodaira(2, 2, 4) == "IV"
        assert kodaira(_INF, 2, 4) == "IV"
        assert kodaira(2, 3, 6) == "I0*"
        assert kodaira(_INF, 3, 6) == "I0*"
        assert kodaira(2, _INF, 6) == "I0*"
        assert kodaira(2, 3, 7) == "I1*"
        assert kodaira(2, 3, 13) == "I7*"
        assert kodaira(3, 4, 8) == "IV*"
        assert kodaira(_INF, 4, 8) == "IV*"
        assert kodaira(3, 5, 9) == "III*"
        assert kodaira(3, _INF, 9) == "III*"
        assert kodaira(4, 5, 10) == "II*"
        assert kodaira(_INF, 5, 10) == "II*"

    def test_non_minimal(self):
        with pytest.raises(VerificationError) as err:
            kodaira(4, 6, 12)
        assert err.value.code == "NON_MINIMAL"
        with pytest.raises(VerificationError):
            kodaira(_INF, 6, 13)

    def test_unclassifiable_triple(self):
        with pytest.raises(VerificationError) as err:
            kodaira(1, 1, 5)
        assert err.value.code == "PRECONDITION"


def _kodaira_chain(v4, v6, vd):
    # the classifier as a chain of one branch per type, the lookup's oracle
    if vd == 0:
        return "good"
    if v4 >= 4 and vd >= 12:
        raise VerificationError(
            "NON_MINIMAL", "model is not minimal at t=0: v(c4)>=4, v(D)>=12"
        )
    if v4 == 0 and v6 == 0:
        return f"I{vd}"
    if v4 >= 1 and v6 == 1 and vd == 2:
        return "II"
    if v4 == 1 and v6 >= 2 and vd == 3:
        return "III"
    if v4 >= 2 and v6 == 2 and vd == 4:
        return "IV"
    if v4 == 2 and v6 == 3 and vd > 6:
        return f"I{vd - 6}*"
    if ((v4 == 2 and v6 >= 3) or (v4 >= 2 and v6 == 3)) and vd == 6:
        return "I0*"
    if v4 >= 3 and v6 == 4 and vd == 8:
        return "IV*"
    if v4 == 3 and v6 >= 5 and vd == 9:
        return "III*"
    if v4 >= 4 and v6 == 5 and vd == 10:
        return "II*"
    raise VerificationError(
        "PRECONDITION", f"unclassifiable valuation triple ({v4},{v6},{vd}) at t=0"
    )


def test_kodaira_lookup_matches_the_branch_chain():
    # every triple v4, v6 in 0..15 or vanishing, v(Delta) in 0..39: 11,560
    valuations = [*range(16), _INF]
    triples = [(v4, v6, vd) for v4 in valuations for v6 in valuations for vd in range(40)]
    assert len(triples) == 11560
    for triple in triples:
        assert _outcome(kodaira, *triple) == _outcome(_kodaira_chain, *triple), triple


def test_place_labels():
    assert place_label((0, 1)) == "t=0"
    assert place_label((1, 1)) == "t=-1"
    assert place_label((-1, 2)) == "t=1/2"
    assert place_label((1, 0, 1)) == "t^2+1=0"
    assert place_label(None) == "t=oo"


def test_registry_configurations_match_declarations():
    for name, model in REGISTRY.items():
        fibers = classify_fibers(model)
        got = tuple((F.place, F.kodaira_type) for F in fibers)
        assert got == model.expected_config, name


def test_registry_euler_numbers_sum_to_24():
    for model in REGISTRY.values():
        total = sum(F.degree * F.euler_number for F in classify_fibers(model))
        assert total == 24, model.name


def test_euler_number_of_each_fiber_is_its_discriminant_order():
    # so the Euler numbers sum to 24 on every model that classifies, and
    # classify_fibers needs no check of that sum
    from test_golden import _random_model

    d4 = get_model("d4")
    models = list(REGISTRY.values()) + [twist_model(d4, delta) for delta in (-3, 5, 1009)]
    rng = random.Random(20)
    for k in range(100):
        try:
            models.append(_random_model(rng, k))
        except VerificationError:
            pass
    classified = 0
    for model in models:
        try:
            fibers = classify_fibers(model)
        except VerificationError:
            continue
        classified += 1
        for F in fibers:
            assert F.euler_number == F.vdelta, (model.name, F.place)
        assert sum(F.degree * F.euler_number for F in fibers) == 24, model.name
    # 96 of the 100 random models classify
    assert classified == len(REGISTRY) + 3 + 96


def test_frozen_surface_counts():
    for (name, p), expected in FROZEN_COUNTS.items():
        assert surface_count(get_model(name), p) == expected, (name, p)


def test_smooth_fibers_match_brute_force():
    # d27 has deg Delta = 24, so its smooth fiber at t=oo is checked as well
    for name in ("d19", "d27", "d4"):
        model = get_model(name)
        for p in (5, 7, 11, 13, 17, 19):
            if not good_prime(model, p):
                continue
            delta = discriminant(model)
            places = [t0 for t0 in range(p) if peval(delta, t0) % p != 0]
            if _at(delta, INFINITY, 24) % p != 0:
                places.append(INFINITY)
            for t0 in places:
                assert count_fiber(model, p, t0) == _brute_fiber_count(
                    model, p, t0
                ), (name, p, t0)


def test_singular_irreducible_fibers_match_brute_force():
    # I1 places of d19: roots of the quintic mod p; fiber stays irreducible
    model = get_model("d19")
    quintic = (-31, 14, 3, 18, 5, 4)
    for p in (5, 13, 29):
        if not good_prime(model, p):
            continue
        for t0 in range(p):
            if peval(quintic, t0) % p == 0:
                assert count_fiber(model, p, t0) == _brute_fiber_count(model, p, t0)


def test_type_ii_fibers_match_brute_force():
    # II always counts p + 1, equal to the raw cuspidal-cubic count
    for p in (5, 7, 13):
        assert good_prime(II_FRAME, p)
        counted = 0
        for t0 in list(range(p)) + [INFINITY]:
            n = count_fiber(II_FRAME, p, t0)
            assert n == _brute_fiber_count(II_FRAME, p, t0), (p, t0)
            counted += 1
        assert counted == p + 1


def test_istar_split_residual_cubic():
    # residual cubic T^3 + 1728 splits exactly at p = 1 mod 3, at t=0 and t=oo
    for t0 in (0, INFINITY):
        for p in (7, 13):
            assert count_fiber(ISTAR_FRAME, p, t0) == 5 * p + 1, (t0, p)
        for p in (11, 17):
            with pytest.raises(VerificationError) as err:
                count_fiber(ISTAR_FRAME, p, t0)
            assert err.value.code == "COMPONENTS_NOT_RATIONAL", (t0, p)


def test_in_fiber_needs_rational_components():
    # the I2 fiber of d27 splits at p = 1 mod 3 and not at p = 2 mod 3
    model = get_model("d27")
    assert count_fiber(model, 7, 0) == 14
    with pytest.raises(VerificationError) as err:
        count_fiber(model, 17, 0)
    assert err.value.code == "COMPONENTS_NOT_RATIONAL"
    # every I_n place (n >= 2) of the registry at good p < 60, t=oo included:
    # the nodal Weierstrass cubic has p points when its node is split, and
    # then the n-gon counts n p; p + 2 when it is not, and then it is refused
    fibers = refused = 0
    for model in REGISTRY.values():
        for p in primes_up_to(59):
            if not good_prime(model, p):
                continue
            for F in classify_fibers(model):
                n = F.component_count
                if not F.kodaira_type[1:].isdecimal() or n < 2:
                    continue
                if F.poly is None:
                    places = [INFINITY]
                else:
                    places = [t0 for t0 in range(p) if peval(F.poly, t0) % p == 0]
                for t0 in places:
                    brute = _brute_fiber_count(model, p, t0)
                    fibers += 1
                    try:
                        got = count_fiber(model, p, t0)
                    except VerificationError as err:
                        refused += 1
                        assert (err.code, brute) == ("COMPONENTS_NOT_RATIONAL", p + 2), (
                            model.name, p, t0,
                        )
                    else:
                        assert (got, brute) == (n * p, p), (model.name, p, t0)
    assert (fibers, refused) == (106, 6)


def test_fiber_sums_match_the_character_sum():
    # every smooth, I1 and I_n fiber of the registry and three d4 twists at
    # good p < 200, t=oo included, against the reference sum at the same place
    d4 = get_model("d4")
    models = list(REGISTRY.values()) + [twist_model(d4, delta) for delta in (2, -3, 5)]
    tally = {"smooth": 0, "I1": 0, "split": 0, "refused": 0}
    for model in models:
        fibers = classify_fibers(model)
        for p in primes_up_to(199):
            if not good_prime(model, p):
                continue
            singular = {INFINITY: F for F in fibers if F.poly is None}
            for F in fibers:
                if F.poly is not None:
                    singular.update(
                        (t0, F) for t0 in range(p) if peval(F.poly, t0) % p == 0
                    )
            for t0 in list(range(p)) + [INFINITY]:
                F = singular.get(t0)
                if F is not None and not F.kodaira_type[1:].isdecimal():
                    continue  # additive
                count = _charsum_count(model, p, t0)
                where = (model.name, p, t0)
                if F is None or F.component_count == 1:
                    tally["smooth" if F is None else "I1"] += 1
                    assert count_fiber(model, p, t0) == count, where
                elif count == p:
                    tally["split"] += 1
                    assert count_fiber(model, p, t0) == F.component_count * p, where
                else:
                    tally["refused"] += 1
                    assert count == p + 2, where
                    with pytest.raises(VerificationError) as err:
                        count_fiber(model, p, t0)
                    assert err.value.code == "COMPONENTS_NOT_RATIONAL", where
    assert tally == {"smooth": 37069, "I1": 199, "split": 318, "refused": 20}


def test_cubic_sum_tables_match_the_direct_sum():
    # every (A, B) in F_p^2 at every good p <= 43 of d19: j = 0 (A = 0),
    # j = 1728 (B = 0), singular cubics (4A^3 + 27B^2 = 0) and the shortest
    # packed products
    model = get_model("d19")
    primes = [p for p in primes_up_to(43) if good_prime(model, p)]
    assert primes == [5, 7, 11, 13, 17, 23, 29, 31, 37, 41, 43]
    # and the rows A = 0 and B = 0 at every good p < 200, which meet every
    # pair gcd(4, p - 1) in {2, 4}, gcd(6, p - 1) in {2, 6}
    rows = [p for p in primes_up_to(199) if good_prime(model, p)]
    assert {(gcd(4, p - 1), gcd(6, p - 1)) for p in rows} == {(2, 2), (2, 6), (4, 2), (4, 6)}
    inputs = [(p, [(a, b) for a in range(p) for b in range(p)]) for p in primes]
    inputs += [(p, [(0, k) for k in range(p)] + [(k, 0) for k in range(p)]) for p in rows]
    for p, pairs in inputs:
        squares = {x * x % p for x in range(1, p)}
        chi = [0] + [1 if v in squares else -1 for v in range(1, p)]
        ctx = _counting_context(model, p)
        for a, b in pairs:
            direct = sum(chi[(x * x * x + a * x + b) % p] for x in range(p))
            assert _cubic_sum(ctx, a, b) == direct, (p, a, b)


def _two_period_table(p: int, chi: list, inverse: list) -> list:
    # the oracle of _cubic_sum_table: R[k] read off a linear correlation of
    # the reversed w + 3 with two periods of chi + 1, in 32-bit slots, where
    # coefficient p - 1 + k is R[k] + 3p
    w = [0] * p
    for x in range(p - 1):
        w[x * x * x * inverse[x + 1] % p] += chi[x + 1]
    u = array("I", [c + 3 for c in reversed(w)])
    v = array("I", [c + 1 for c in chi]) * 2
    product = int.from_bytes(u, sys.byteorder) * int.from_bytes(v, sys.byteorder)
    slots = memoryview(product.to_bytes(4 * 3 * p, sys.byteorder)).cast("I")
    return [c - 3 * p + chi[p - 1] for c in slots[p - 1 : 2 * p - 1]]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 997, 3001, 5449, 5471, 9973])
def test_cubic_sum_table_matches_the_two_period_product(p):
    # one period of chi + 1 in 16-bit slots up to 5449 (12p < 2^16) and in
    # 32-bit slots from 5471 on, against two periods in 32-bit slots
    squares = {x * x % p for x in range(1, p)}
    chi = [0] + [1 if v in squares else -1 for v in range(1, p)]
    inverse = [0] + [pow(x, -1, p) for x in range(1, p)]
    table = _cubic_sum_table(p, tuple(chi), array("i", inverse))
    assert list(table) == _two_period_table(p, chi, inverse)
    if p <= 13:
        for k in range(p):
            assert table[k] == sum(chi[(x * x * x + k * x + k) % p] for x in range(p))


# trace_ap at every good split p < 200, as the parent of the axis-fiber
# change computed them
AXIS_TRACES = {
    "d3": [-13, -1, 11, -46, 47, -22, -121, -109, -97, 131, 167, -37, -214, 146,
           251, 59, -118, 299, -313, 143, -277],
    "d4": [-6, 10, -30, 42, -70, 18, 90, -22, -110, -78, 130, -198, -182, -30, 210,
           -102, 170, 330, -38, -190, -390],
    "d4[2]": [6, -10, -30, -42, 70, 18, -90, 22, -110, -78, 130, 198, 182, -30, 210,
              102, -170, -330, 38, -190, 390],
    "d4[-3]": [6, 10, 30, -42, -70, -18, -90, -22, -110, 78, 130, 198, -182, 30,
               -210, 102, 170, -330, -38, -190, 390],
    "d4[5]": [-10, 30, 42, 70, 18, -90, -22, 110, -78, -130, -198, -182, 30, -210,
              -102, -170, -330, -38, 190, 390],
}


def test_axis_surfaces_never_build_the_table(monkeypatch):
    # c4 = 0 on d3 and c6 = 0 on d4 and its twists, so no fiber reads S(k, k):
    # with the table made to fail, the traces are still the ones above; and
    # _cubic_sum runs once per square class of a and cube class of b (at most
    # 2 + 3) and at most once per singular fiber (at most 24, t=oo included),
    # not once per fiber
    import picard20.ellsurf as ellsurf

    def refuse(*args):
        raise AssertionError("the S(k, k) table was built")

    calls = []

    def counted(*args):
        calls.append(args)
        return _cubic_sum(*args)

    monkeypatch.setattr(ellsurf, "_cubic_sum_table", refuse)
    monkeypatch.setattr(ellsurf, "_cubic_sum", counted)
    _counting_context.cache_clear()
    d4 = get_model("d4")
    models = [get_model("d3"), d4] + [twist_model(d4, delta) for delta in (2, -3, 5)]
    for model in models:
        primes = [
            p for p in primes_up_to(199)
            if good_prime(model, p) and kronecker(model.d, p) == 1
        ]
        traces = []
        for p in primes:
            calls.clear()
            traces.append(trace_ap(model, p))
            assert len(calls) <= 5 + 24, (model.name, p, len(calls))
            # an additive fiber (a = b = 0) takes no sum: it counts its components
            assert all(a or b for _, a, b in calls), (model.name, p)
        assert traces == AXIS_TRACES[model.name]


def test_axis_sums_stay_within_the_power_residue_classes():
    # c4 = 0 on d3 and c6 = 0 on d4, so every fiber's cubic has A = 0 or B = 0
    # and is read from the class cache; one direct sum per fiber instead would
    # be O(p^2) per prime and leave the cache empty
    for name in ("d3", "d4"):
        model = get_model(name)
        primes = [
            p for p in primes_up_to(199)
            if good_prime(model, p) and kronecker(model.d, p) == 1
        ]
        assert len(primes) == 21, name
        for p in primes:
            trace_ap(model, p)
            cached = len(_counting_context(model, p).s_classes)
            assert 1 <= cached <= gcd(4, p - 1) + gcd(6, p - 1) + 1, (name, p, cached)


def test_surface_count_looks_up_only_the_singular_fibers(monkeypatch):
    # the smooth fibers are summed in surface_count's own pass: count_fiber,
    # looked up as the module global, sees only the roots of Delta mod p and
    # then t=oo, in that order, up to the first fiber that raises; a fallback
    # to one count_fiber call per fiber fails here
    import picard20.ellsurf as ellsurf

    calls = []

    def recording(model, p, t0):
        calls.append(t0)
        return count_fiber(model, p, t0)

    monkeypatch.setattr(ellsurf, "count_fiber", recording)
    refused = 0
    for name in ("d19", "d3", "d4", "d27"):
        model = get_model(name)
        delta = discriminant(model)
        for p in (5, 7, 13, 101, 199):
            if not good_prime(model, p):
                continue
            calls.clear()
            outcome = _outcome(surface_count, model, p)
            assert outcome == _outcome(_fiberwise_count, model, p), (name, p)
            singular = [t0 for t0 in range(p) if peval_mod(delta, t0, p) == 0] + [INFINITY]
            if isinstance(outcome, tuple):
                refused += 1
                singular = singular[: len(calls)]
            assert calls == singular, (name, p)
    assert refused == 3


def _cubic_is_singular(c4v: int, c6v: int, p: int) -> bool:
    # X^3 + a X + b with a = -27 c4, b = -54 c6: the cubic count_fiber reads
    a, b = -27 * c4v % p, -54 * c6v % p
    return (4 * a * a * a + 27 * b * b) % p == 0


def _sweep():
    # (model, fibers, good p < 200) for the registry, three d4 twists and the
    # seeded random models of the golden sweep that classify: 4,339 pairs
    from test_golden import _random_model

    d4 = get_model("d4")
    models = list(REGISTRY.values()) + [twist_model(d4, delta) for delta in (2, -3, 5)]
    rng = random.Random(20)
    for k in range(100):
        try:
            models.append(_random_model(rng, k))
        except VerificationError:
            pass
    for model in models:
        try:
            fibers = classify_fibers(model)
            primes = [p for p in primes_up_to(199) if good_prime(model, p)]
        except VerificationError:
            continue
        yield model, fibers, primes


def test_singular_fibers_are_where_the_cubic_is_singular():
    # at every pair of the sweep: the Weierstrass cubic at t0 is singular
    # exactly at the roots mod p of the finite places, each root lies on one
    # place, and the cubic of the chart s = 1/t at s = 0 is singular exactly
    # when classify_fibers ends in a fiber at t=oo
    pairs = 0
    for model, fibers, primes in _sweep():
        c4, c6 = c_invariants(model)
        for p in primes:
            pairs += 1
            where = {}
            for F in fibers:
                for t0 in range(p) if F.poly is not None else ():
                    if peval_mod(F.poly, t0, p) == 0:
                        assert t0 not in where, (model.name, p, t0, F.place, where[t0])
                        where[t0] = F.place
            singular = {
                t0 for t0 in range(p)
                if _cubic_is_singular(peval_mod(c4, t0, p), peval_mod(c6, t0, p), p)
            }
            assert singular == set(where), (model.name, p)
            at_infinity = _cubic_is_singular(_at(c4, INFINITY, 8), _at(c6, INFINITY, 12), p)
            assert at_infinity == (fibers[-1].poly is None), (model.name, p)
    assert pairs == 4339


def _singular_places():
    # (model, p, t0, fiber) at every singular place of the sweep: the roots
    # mod p of the finite places, and t=oo where a fiber lies there
    for model, fibers, primes in _sweep():
        for p in primes:
            for F in fibers:
                if F.poly is None:
                    yield model, p, INFINITY, F
                else:
                    for t0 in range(p):
                        if peval_mod(F.poly, t0, p) == 0:
                            yield model, p, t0, F


def _dividing_reader(f, weight: int, t0, k: int, p: int) -> int:
    # the oracle of _local: at t=oo the chart s = 1/t, where f reads
    # s^weight f(1/s), at s = 0; then k divisions by t - t0 (or by s), each
    # with a zero remainder, and the quotient's value at t0
    if t0 == INFINITY:
        f, t0 = tuple(reversed((*f, *[0] * (weight + 1 - len(f))))), 0
    f = pmod(f, p)
    if not f:
        return 0
    for _ in range(k):
        f, r = pdivmod_mod(f, ((p - t0) % p, 1), p)
        if r:
            raise VerificationError("PRECONDITION", "valuation dropped under reduction")
    return peval_mod(f, t0, p)


def test_local_values_match_the_reciprocal_chart_and_the_division_loop():
    # c4 and c6 at every singular place of the sweep, t=oo included, and
    # (c4 / pi^2, c6 / pi^3) at every I0* place, where one more order of pi is
    # refused by both readers unless the invariant vanishes identically
    places, refused, stars = 0, 0, {"finite": 0, "t=oo": 0}
    for model, p, t0, F in _singular_places():
        c4, c6 = c_invariants(model)
        readings = [(c4, 8, 0), (c6, 12, 0)]
        if F.kodaira_type == "I0*":
            stars["t=oo" if t0 == INFINITY else "finite"] += 1
            readings += [(c4, 8, 2), (c6, 12, 3), (c4, 8, 3), (c6, 12, 4)]
        for f, weight, k in readings:
            value = _outcome(_local, f, weight, t0, k, p)
            assert value == _outcome(_dividing_reader, f, weight, t0, k, p), (
                model.name, p, t0, weight, k,
            )
            refused += isinstance(value, tuple)
        places += 1
    assert (places, refused, stars) == (6168, 346, {"finite": 175, "t=oo": 129})


def test_star_splits_matches_the_root_scan():
    # T^p = T mod the residual cubic against its three roots in F_p, at every
    # I0* place of the sweep and at both I0* fibers of ISTAR_FRAME
    pairs = [(model, p, t0) for model, p, t0, F in _singular_places() if F.kodaira_type == "I0*"]
    pairs += [(ISTAR_FRAME, p, t0) for p in (7, 11, 13, 17) for t0 in (0, INFINITY)]
    verdicts = {True: 0, False: 0}
    for model, p, t0 in pairs:
        ctx = _counting_context(model, p)
        a = _local(ctx.c4, 8, t0, 2, p)
        b = _local(ctx.c6, 12, t0, 3, p)
        roots = sum(1 for T in range(p) if (T * T * T - 3 * a * T - 2 * b) % p == 0)
        verdicts[roots == 3] += 1
        assert _star_splits(ctx, t0) == (roots == 3), (model.name, p, t0)
    assert len(pairs) == 304 + 8 and min(verdicts.values()) > 0


def _outcome(count, *args):
    # the result, or the code and message of the VerificationError it raises
    try:
        return count(*args)
    except VerificationError as err:
        return err.code, err.message


def _fiberwise_count(model: SurfaceModel, p: int) -> int:
    # the oracle of surface_count: count_fiber at every t in P^1(F_p), in t
    # order, so the first fiber that raises names the error
    return sum(count_fiber(model, p, t0) for t0 in [*range(p), INFINITY])


def test_surface_count_is_the_sum_of_its_fibers():
    # at every pair of the sweep, surface_count is the fiberwise sum, and where
    # that sum raises, surface_count raises the same code and message
    tally = {}
    for model, _, primes in _sweep():
        for p in primes:
            expected = _outcome(_fiberwise_count, model, p)
            assert _outcome(surface_count, model, p) == expected, (model.name, p)
            key = expected[0] if isinstance(expected, tuple) else "count"
            tally[key] = tally.get(key, 0) + 1
    assert tally == {"count": 3797, "COMPONENTS_NOT_RATIONAL": 542}


def test_axis_sums_match_the_direct_sum_of_every_value():
    # at every pair of the sweep, _axis_sum (one direct sum per square class
    # of a and per cube class of b, none on an axis whose sums all vanish)
    # against the direct sum over X at each value, chi taken by Euler's
    # criterion; and the context's chi is Euler's criterion
    tally = {"a": 0, "b": 0, "a_vanish": 0, "b_vanish": 0, "both_signs": 0}
    for model, _, primes in _sweep():
        for p in primes:
            ctx = _counting_context(model, p)
            euler = [0] + [1 if pow(x, (p - 1) // 2, p) == 1 else -1 for x in range(1, p)]
            assert list(ctx.chi) == euler, p
            a_values = pvalues_mod(pscale(ctx.c4, -27), p)
            b_values = pvalues_mod(pscale(ctx.c6, -54), p)
            a_axis = [a for a, b in zip(a_values, b_values) if a and not b]
            b_axis = [b for a, b in zip(a_values, b_values) if b and not a]
            direct = {}
            for a, b in [(a, 0) for a in a_axis] + [(0, b) for b in b_axis]:
                if (a, b) not in direct:
                    direct[a, b] = sum(euler[(x * x * x + a * x + b) % p] for x in range(p))
            expected = sum(direct[a, 0] for a in a_axis) + sum(direct[0, b] for b in b_axis)
            assert _axis_sum(ctx, a_axis, b_axis) == expected, (model.name, p)
            for axis, values, power, vanish in (
                ("a", a_axis, 4, p % 4 == 3), ("b", b_axis, 6, p % 3 == 2)
            ):
                if values:
                    tally[axis + "_vanish" if vanish else axis] += 1
                    keys = {pow(v, (p - 1) // gcd(power, p - 1), p) for v in values}
                    tally["both_signs"] += not vanish and any(p - k in keys for k in keys)
    assert tally == {"a": 1317, "b": 1281, "a_vanish": 1467, "b_vanish": 1372, "both_signs": 415}


def test_gated_additive_fiber_at_inert_prime():
    model = get_model("d3")
    assert count_fiber(model, 7, 7 - 1) == 3 * 7 + 1  # IV at t = -1
    with pytest.raises(VerificationError) as err:
        count_fiber(model, 5, 5 - 1)
    assert err.value.code == "COMPONENTS_NOT_RATIONAL"


def test_star_fibers_count_unconditionally():
    model = get_model("d4")
    for p in (5, 7, 13):  # includes inert p = 7
        assert count_fiber(model, p, 0) == 8 * p + 1  # III*
        assert count_fiber(model, p, 1) == 5 * p + 1  # I0* splits for all p here


def test_trace_identity_against_cm_coefficients():
    # the two pipelines share no code: counts come from character sums,
    # coefficients from quadratic form representations
    for name, model in REGISTRY.items():
        rule = CMRule(_dk(model.d))
        for p in primes_up_to(150):
            if p <= 3 or not good_prime(model, p):
                continue
            if kronecker(model.d, p) != 1:
                continue
            assert trace_ap(model, p) == ap_h1(rule, p), (name, p)


def _dk(d):
    from picard20.qforms import fundamental_decomposition

    return fundamental_decomposition(d)[0]


def test_inert_primes_have_zero_trace():
    # needs every fiber to keep rational components at inert p: true for
    # the models below (square tangent cones, unconditional star types),
    # false for d27 whose I2 node is conjugate at p = 2 mod 3
    for name in ("d19", "d7-tate", "d11", "d4"):
        model = get_model(name)
        for p in primes_up_to(60):
            if p <= 3 or not good_prime(model, p):
                continue
            if kronecker(model.d, p) == -1:
                assert surface_count(model, p) == 1 + p * p + 20 * p, (name, p)


def test_good_prime_examples():
    d19 = get_model("d19")
    assert not good_prime(d19, 2)
    assert not good_prime(d19, 3)
    assert good_prime(d19, 5)
    assert not good_prime(d19, 19)  # divides d
    assert not good_prime(get_model("d7-tate"), 7)
    assert not good_prime(get_model("d27"), 3)


def test_good_prime_rejects_a_jump_in_the_order_of_c4():
    fibers = classify_fibers(II_C4_FRAME)
    assert [(F.place, F.kodaira_type, F.vc4, F.vc6, F.vdelta) for F in fibers[:1]] == [
        ("t=0", "II", 1, 1, 2)
    ]
    assert [(F.degree, F.kodaira_type) for F in fibers[1:]] == [(22, "I1")]
    assert not good_prime(II_C4_FRAME, 5)
    for p in (7, 11, 13, 17, 19, 23):
        assert good_prime(II_C4_FRAME, p), p


def test_trace_requires_split_prime():
    with pytest.raises(VerificationError) as err:
        trace_ap(get_model("d4"), 7)
    assert err.value.code == "PRECONDITION"


def test_weil_bound_on_traces():
    for model in REGISTRY.values():
        for p in (5, 7, 11, 13, 17, 19, 23):
            if good_prime(model, p) and kronecker(model.d, p) == 1:
                assert abs(trace_ap(model, p)) <= 2 * p


class TestTwists:
    def test_twist_scales_trace_by_character(self):
        base = get_model("d4")
        for delta in (5, -3):
            twisted = twist_model(base, delta)
            assert rank20_effective(twisted)
            dstar = twist_discriminant(delta)
            for p in (13, 17, 29, 37):
                if not (good_prime(base, p) and good_prime(twisted, p)):
                    continue
                assert trace_ap(twisted, p) == trace_ap(base, p) * kronecker(
                    dstar, p
                ), (delta, p)

    def test_double_twist_restores_traces(self):
        base = get_model("d4")
        back = twist_model(twist_model(base, 5), 5)
        for p in (13, 17, 29):
            assert trace_ap(back, p) == trace_ap(base, p)

    def test_twist_preserves_fiber_types(self):
        base = get_model("d19")
        twisted = twist_model(base, 5)
        got = [(F.place, F.kodaira_type) for F in classify_fibers(twisted)]
        want = [(F.place, F.kodaira_type) for F in classify_fibers(base)]
        assert got == want

    def test_twisted_non_minus_four_model_not_effective(self):
        twisted = twist_model(get_model("d19"), 5)
        assert not rank20_effective(twisted)
        with pytest.raises(VerificationError) as err:
            trace_ap(twisted, 11)
        assert err.value.code == "PRECONDITION"

    def test_twist_requires_squarefree_delta(self):
        with pytest.raises(VerificationError):
            twist_model(get_model("d4"), 12)

    def test_twist_names_record_delta(self):
        assert twist_model(get_model("d4"), 5).name == "d4[5]"


def test_json_roundtrip_all_models():
    for name, model in REGISTRY.items():
        blob = json.dumps(model_to_json(model), sort_keys=True)
        back = model_from_json(json.loads(blob))
        assert back == model, name


def test_json_roundtrip_keeps_twist():
    twisted = twist_model(get_model("d4"), 5)
    back = model_from_json(model_to_json(twisted))
    assert back.twist_by == 5
    assert back == twisted


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

_JSON_MODELS = [model_to_json(m) for m in REGISTRY.values()] + [
    model_to_json(twist_model(get_model("d4"), 5))
]


def _paths(obj, prefix=()):
    yield prefix
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated_models(draw):
    obj = json.loads(json.dumps(draw(st.sampled_from(_JSON_MODELS))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        if not path:
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(_JSON_VALUES)
        elif isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent.pop(path[-1])
    return obj


@settings(max_examples=300, deadline=None)
@given(st.one_of(_JSON_VALUES, _mutated_models()))
def test_model_from_json_returns_a_model_or_raises_verification_error(obj):
    try:
        model = model_from_json(obj)
    except VerificationError:
        return
    assert isinstance(model, SurfaceModel)


def test_off_curve_section_rejected():
    base = get_model("d4")
    bad = SectionData(x_num=(1,), y_num=(1,))
    with pytest.raises(VerificationError):
        SurfaceModel(
            "broken",
            base.a1,
            base.a2,
            base.a3,
            base.a4,
            base.a6,
            d=base.d,
            sections=(bad,),
        )


@pytest.mark.parametrize("changes, message", [
    ({"d": 0}, "declared discriminant must be a negative integer"),
    ({"twist_by": 12}, "twist_by must be squarefree and nonzero"),
    ({"twist_by": 0}, "twist_by must be squarefree and nonzero"),
    ({"a6": (0,) * 13 + (1,)}, "deg a6 = 13 exceeds K3 bound 12"),
])
def test_checked_copy_refuses_what_the_constructor_refuses(changes, message):
    with pytest.raises(VerificationError) as err:
        replace(get_model("d4"), **changes)
    assert (err.value.code, err.value.message) == ("PRECONDITION", message)
    section = get_model("d27").sections[0]
    with pytest.raises(VerificationError) as err:
        replace(section, x_den=())
    assert err.value.message == "section with zero denominator"
    # valuations divide in Z[t], so a rational coefficient is refused
    with pytest.raises(VerificationError) as err:
        replace(section, x_num=(Fraction(1, 2), 1))
    assert err.value.message == "section has non-integer coefficients"


def test_checked_copy_normalises_like_the_constructor():
    model = replace(get_model("d4"), a1=[0, 0, 0], expected_config=[["t=0", "III*"]])
    assert model.a1 == () and model.expected_config == (("t=0", "III*"),)
    assert type(model) is SurfaceModel and replace(model) == model


def test_unpickling_runs_the_checks():
    # the process pool hands models to its workers by pickle, and unpickling
    # goes through __new__: a model is rebuilt equal, and an unchecked tuple
    # with d = 0 is refused on the way back
    model = twist_model(get_model("d4"), -3)
    assert pickle.loads(pickle.dumps(model)) == model
    unchecked = tuple.__new__(SurfaceModel, model[:6] + (0,) + model[7:])
    with pytest.raises(VerificationError) as err:
        pickle.loads(pickle.dumps(unchecked))
    assert err.value.code == "PRECONDITION"


def test_degree_bound_enforced():
    with pytest.raises(VerificationError):
        SurfaceModel("toodeep", (), (), (), (), (0,) * 13 + (1,), d=-3)
