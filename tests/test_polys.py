"""Dense integer polynomial helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picard20.errors import VerificationError
from picard20.polys import (
    factor_int_poly,
    pdeg,
    pderiv,
    pdivmod,
    pdivmod_mod,
    peval,
    peval_mod,
    pmod,
    pmul,
    ppow,
    pscale,
    psub,
    ptrim,
    reciprocal,
    resultant,
    valuation,
    poly_str,
)

coeffs = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=7)


@given(coeffs, coeffs, st.integers(min_value=-5, max_value=5))
@settings(deadline=None)
def test_mul_is_pointwise(f, g, x):
    f, g = ptrim(tuple(f)), ptrim(tuple(g))
    assert peval(pmul(f, g), x) == peval(f, x) * peval(g, x)


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


def test_reciprocal_pads_to_weight():
    f = (3, 0, 1)  # t^2 + 3 in weight 4 frame -> s^2 (3 s^2 + 1)
    assert reciprocal(f, 4) == (0, 0, 1, 0, 3)
    with pytest.raises(VerificationError):
        reciprocal((0, 0, 0, 1), 2)


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
