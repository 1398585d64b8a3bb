"""Dense integer polynomial helpers."""

import math
import random
from array import array
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from picard20 import ellsurf
from picard20.arith import primitive_root, primes_up_to
from picard20.ellsurf import c_invariants, discriminant, twist_model
from picard20.errors import VerificationError
from picard20.models import REGISTRY, get_model
from picard20.polys import (
    factor_int_poly,
    padd,
    pdeg,
    pderiv,
    pdivmod_mod,
    peval_mod,
    pmod,
    pmul,
    pneg,
    ppow,
    pquo_exact,
    pscale,
    psub,
    ptrim,
    pvalues_on_powers,
    resultant,
    valuation,
    poly_str,
)

from oracles import peval, pvalues_mod

coeffs = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=7)


@given(coeffs, coeffs, st.integers(min_value=-5, max_value=5))
@settings(deadline=None)
def test_mul_is_pointwise(f, g, x):
    f, g = ptrim(tuple(f)), ptrim(tuple(g))
    assert peval(pmul(f, g), x) == peval(f, x) * peval(g, x)


def pdivmod(f, g):
    """Division over Q in exact rational arithmetic: the oracle of
    polys.pquo_exact, which divides in Z."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(a) for a in f]
    quo = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    g = [Fraction(b) for b in g]
    for i in range(len(rem) - len(g), -1, -1):
        c = rem[i + len(g) - 1] / g[-1]
        if c == 0:
            continue
        quo[i] = c
        for j, b in enumerate(g):
            rem[i + j] -= c * b
    return ptrim(quo), ptrim(rem)


@given(coeffs, coeffs)
@settings(deadline=None)
def test_divmod_roundtrip(f, g):
    f, g = ptrim(tuple(f)), ptrim(tuple(g))
    if not g or g[-1] not in (1, -1):
        return  # integer divmod only against unit leading coefficient
    q, r = pdivmod(f, g)
    assert psub(f, padd_(pmul(q, g), r)) == ()
    assert pdeg(r) < pdeg(g)


def padd_(f, g):
    from picard20.polys import padd

    return padd(f, g)


def test_degree_and_trim():
    assert pdeg(()) == -1
    assert pdeg((5,)) == 0
    assert ptrim((1, 2, 0, 0)) == (1, 2)
    assert ptrim((0, 0)) == ()


def test_valuation_counts_factor_multiplicity():
    t = (0, 1)
    f = pmul(ppow(t, 3), (2, 1))  # t^3 (t + 2)
    assert valuation(f, t) == 3
    assert valuation(f, (2, 1)) == 1
    assert valuation(f, (1, 1)) == 0
    with pytest.raises(VerificationError):
        valuation((), t)


def _oracle_valuation(f, g):
    # (k, f / g^k) for the largest k with g^k | f over Q, by pdivmod
    k, q = 0, f
    while True:
        quo, rem = pdivmod(q, g)
        if rem:
            return k, q
        k, q = k + 1, quo


@given(coeffs, coeffs, st.integers(min_value=0, max_value=3))
@settings(deadline=None)
def test_exact_quotient_matches_the_rational_division(f, g, k):
    # g made primitive, and f given a factor g^k, so that both answers occur
    f, g = ptrim(tuple(f)), ptrim(tuple(g))
    if not f or not g:
        return
    g = tuple(a // math.gcd(*g) for a in g)
    f = pmul(f, ppow(g, k))
    quo, rem = pdivmod(f, g)
    assert pquo_exact(f, g) == (None if rem else quo)


def test_integer_division_matches_the_oracle_at_every_place():
    # Delta, c4 and c6 at every place of Delta, over the registry, three d4
    # twists and the seeded random models of test_golden: the valuation and
    # the cofactor f / g^v in Z[t] are the ones the division over Q gives
    from test_golden import _random_model

    d4 = get_model("d4")
    models = list(REGISTRY.values()) + [twist_model(d4, delta) for delta in (2, -3, 5)]
    rng = random.Random(20)
    models += [_random_model(rng, k) for k in range(100)]
    pairs = 0
    for model in models:
        delta = discriminant(model)
        for g, _ in factor_int_poly(delta)[1]:
            for f in (delta, *c_invariants(model)):
                if not f:
                    continue
                v, cofactor = _oracle_valuation(f, g)
                assert valuation(f, g) == v, (model.name, g, f)
                assert pquo_exact(f, ppow(g, v)) == cofactor, (model.name, g, f)
                assert pquo_exact(f, ppow(g, v + 1)) is None, (model.name, g, f)
                pairs += 1
    assert pairs == 359


@given(coeffs)
@settings(deadline=None)
def test_factor_product_reconstructs(f):
    f = ptrim(tuple(f))
    if not f:
        return
    c, factors = factor_int_poly(f)
    prod = (c,)
    for g, m in factors:
        prod = pmul(prod, ppow(g, m))
    assert prod == f


def test_factor_known_splitting():
    # t^4 - 1 = (t - 1)(t + 1)(t^2 + 1)
    c, factors = factor_int_poly((-1, 0, 0, 0, 1))
    assert c == 1
    assert factors == [((-1, 1), 1), ((1, 1), 1), ((1, 0, 1), 1)]
    # -6 t^2 (2 t + 1)^3 (t^2 - 2)^2: content and sign go to the constant
    f = pmul(pmul((0, 0, -6), ppow((1, 2), 3)), ppow((-2, 0, 1), 2))
    assert factor_int_poly(f) == (-6, [((0, 1), 2), ((1, 2), 3), ((-2, 0, 1), 2)])


# sympy is the oracle for factoring and resultants; the library does not use it
_T = sympy.Symbol("t")


def _sympy(f):
    return sympy.Poly([int(a) for a in reversed(f)] or [0], _T, domain="ZZ")


def _sympy_factor(f):
    const, factors = _sympy(f).factor_list()
    out = []
    for poly, mult in factors:
        g = ptrim(int(c) for c in reversed(poly.all_coeffs()))
        if g[-1] < 0:
            g, const = pneg(g), -const
        out.append((g, int(mult)))
    out.sort(key=lambda gm: (pdeg(gm[0]), gm[0]))
    return int(const), out


def _sympy_resultant(f, g):
    if pdeg(f) < 1:
        return 1
    # sympy swaps the arguments when deg f < deg g without the sign
    # (-1)^(deg f deg g), so the longer one goes first
    if pdeg(f) >= pdeg(g):
        return int(_sympy(f).resultant(_sympy(g)))
    return (-1) ** (pdeg(f) * pdeg(g)) * int(_sympy(g).resultant(_sympy(f)))


factor_parts = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=-12, max_value=12), min_size=1, max_size=7),
        st.integers(min_value=1, max_value=3),
    ),
    max_size=4,
)


@given(st.integers(min_value=-40, max_value=40).filter(bool), factor_parts)
@settings(deadline=None, max_examples=150)
def test_factor_matches_sympy(const, parts):
    # products with repeated factors, any content and sign, and constants
    f = (const,)
    for coeffs, mult in parts:
        g = ptrim(tuple(coeffs))
        if g:
            f = pmul(f, ppow(g, mult))
    assert factor_int_poly(f) == _sympy_factor(f)


@given(
    st.lists(st.integers(min_value=-30, max_value=30), max_size=12),
    st.lists(st.integers(min_value=-30, max_value=30), max_size=20),
)
@settings(deadline=None, max_examples=150)
def test_resultant_matches_sympy(f, g):
    f, g = ptrim(tuple(f)), ptrim(tuple(g))
    assert resultant(f, g) == _sympy_resultant(f, g)


def _matches_sympy(model, monkeypatch):
    """Delta's factors, and the resultant behind the model's bad primes."""
    delta = discriminant(model)
    if not delta:
        return
    assert factor_int_poly(delta) == _sympy_factor(delta)
    calls = []
    monkeypatch.setattr(ellsurf, "resultant", lambda f, g: calls.append((f, g)) or resultant(f, g))
    try:
        ellsurf._bad_product.__wrapped__(model)  # past the cache
    except VerificationError:
        return  # not classifiable, so no bad-prime product
    ((f, g),) = calls
    assert resultant(f, g) == _sympy_resultant(f, g)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_models_match_sympy(name, monkeypatch):
    _matches_sympy(REGISTRY[name], monkeypatch)


def test_random_models_match_sympy(monkeypatch):
    # the seeded models of tests/test_golden.py::test_random_model_sweep
    from test_golden import _random_model

    rng = random.Random(20)
    for k in range(100):
        _matches_sympy(_random_model(rng, k), monkeypatch)


def _swinnerton_dyer(radicands):
    """The product of t - sum(+-sqrt(a)) over all signs: irreducible over Z,
    but a product of factors of degree at most 2 mod every prime."""
    f = (0, 1)
    for a in radicands:
        # f(t + y) f(t - y) with y^2 = a, from f(t + y) = A + B y
        A, B = (), ()
        for c in reversed(f):
            A, B = padd(padd(pmul(A, (0, 1)), pscale(B, a)), (c,)), padd(pmul(B, (0, 1)), A)
        f = psub(pmul(A, A), pscale(pmul(B, B), a))
    return f


def test_factor_refuses_too_many_modular_factors():
    f = _swinnerton_dyer((2, 3, 5, 7))  # degree 16, at least 8 modular factors
    assert factor_int_poly(f) == (1, [(f, 1)])
    # degree 32, at least 16 modular factors: refused once the subsets of one
    # size outnumber the cap, long before the whole search
    with pytest.raises(VerificationError) as err:
        factor_int_poly(_swinnerton_dyer((2, 3, 5, 7, 11)))
    assert err.value.code == "PRECONDITION"
    assert "are not tried" in err.value.message


def test_factor_many_modular_factors_cheap_to_recombine():
    # 15015 = 3 5 7 11 13 keeps the product from being squarefree mod those
    # primes, and every radicand is a square mod 17: 14 linear factors there,
    # recombined in pairs
    radicands = (2, 8, 13, 15, 26, 33, 15015)
    f = (1,)
    for a in radicands:
        f = pmul(f, (-a, 0, 1))
    assert factor_int_poly(f) == (1, [((-a, 0, 1), 1) for a in reversed(radicands)])


def test_poly_str_ascending_input():
    assert poly_str((-1, 0, 4)) == "4*t^2-1"
    assert poly_str((0, 1)) == "t"


def test_mod_p_helpers_match_direct_arithmetic():
    p = 13
    f = (5, -3, 0, 2, 11)
    g = (1, 0, 1)
    fq, fr = pdivmod_mod(pmod(f, p), pmod(g, p), p)
    for x in range(p):
        lhs = peval_mod(f, x, p)
        rhs = (peval_mod(fq, x, p) * peval_mod(g, x, p) + peval_mod(fr, x, p)) % p
        assert lhs == rhs


def test_values_at_every_point_match_peval_mod():
    # the zero polynomial and degrees 0 .. 24 at every prime 5 <= p <= 61, so
    # p <= deg f is met too; coefficients of either sign reach well past p
    rng = random.Random(17)
    primes = [p for p in range(5, 62) if all(p % q for q in range(2, p))]
    assert len(primes) == 16
    for p in primes:
        assert pvalues_mod((), p) == [0] * p
        for n in range(25):
            f = tuple(rng.randint(-10**6, 10**6) for _ in range(n)) + (rng.randint(1, 10**6),)
            assert pvalues_mod(f, p) == [peval_mod(f, t, p) for t in range(p)], (p, f)
            # a leading coefficient that vanishes mod p
            f = f[:-1] + (p * rng.randint(1, 9),)
            assert pvalues_mod(f, p) == [peval_mod(f, t, p) for t in range(p)], (p, f)


def _powers(p: int) -> array:
    g = primitive_root(p)
    return array("I", [pow(g, i, p) for i in range(p - 1)])


def test_values_on_powers_match_peval_mod():
    # the zero polynomial and degrees 0 .. 12 at every prime 5 <= p <= 61 and
    # at 9973, each also with a leading coefficient that vanishes mod p;
    # coefficients of either sign reach well past p
    rng = random.Random(29)
    primes = [p for p in range(5, 62) if all(p % q for q in range(2, p))] + [9973]
    assert len(primes) == 17
    for p in primes:
        powers = _powers(p)
        assert pvalues_on_powers((), powers, p) == [0] * (p - 1)
        assert pvalues_on_powers((p, -3 * p), powers, p) == [0] * (p - 1)
        for n in range(13):
            f = tuple(rng.randint(-10**6, 10**6) for _ in range(n)) + (rng.randint(1, 10**6),)
            for f in (f, f[:-1] + (p * rng.randint(-9, 9),)):
                want = [peval_mod(f, t, p) for t in powers]
                assert pvalues_on_powers(f, powers, p) == want, (p, f)


def test_values_on_powers_refuse_beyond_the_32_bit_slots():
    # no slot exceeds len(f) (p - 1)^2: with every coefficient p - 1 the
    # values come out whole at the largest p that 13 coefficients admit,
    # and the next prime, or p = 65537 for a constant, is refused
    primes = primes_up_to(20000)
    admitted = sum(13 * (p - 1) ** 2 < 1 << 32 for p in primes)
    edge, beyond = primes[admitted - 1], primes[admitted]
    f = (edge - 1,) * 13
    powers = _powers(edge)
    assert pvalues_on_powers(f, powers, edge) == [peval_mod(f, t, edge) for t in powers]
    for f, p in (((beyond - 1,) * 13, beyond), ((1,), 65537)):
        with pytest.raises(VerificationError) as err:
            pvalues_on_powers(f, array("I"), p)
        assert err.value.code == "PRECONDITION", p


small = st.lists(st.integers(min_value=-5, max_value=5), min_size=0, max_size=5)


@given(small, small, small, st.integers(min_value=-5, max_value=5))
@settings(deadline=None, max_examples=60)
def test_resultant_identities(f, g, h, a):
    f, g, h = ptrim(tuple(f)), ptrim(tuple(g)), ptrim(tuple(h))
    assert resultant((-a, 1), g) == peval(g, a)
    assert resultant(f, pmul(g, h)) == resultant(f, g) * resultant(f, h)
    if pdeg(f) < 1:
        assert resultant(f, g) == 1
    elif pdeg(g) >= 1:
        assert resultant(f, g) == (-1) ** (pdeg(f) * pdeg(g)) * resultant(g, f)


def test_pscale_and_psub():
    assert pscale((1, 2), 3) == (3, 6)
    assert psub((1, 2), (1, 2)) == ()
