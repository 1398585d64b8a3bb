"""Form class groups against brute-force enumeration.

The oracle below re-derives reduced-form counts from the definition with a
different loop structure than the library enumerator, so the two can only
agree by both being right.
"""

import math

import pytest

from picard20.errors import VerificationError
from picard20.classgroups import (
    FormClassGroup,
    compose,
    form_power,
    principal_form,
    reduce_form,
    represented_primes,
)
from picard20.qforms import QuadForm, class_number, enumerate_reduced, fundamental_decomposition
from picard20.scans import _unflagged, reduced_form_flags

from oracles import composition_table


def _brute_class_number(d: int) -> int:
    # scan b (same parity as d), solve for a*c, factor; reduction conds inline
    count = 0
    for b in range(0, math.isqrt(-d // 3) + 1):
        if (b * b - d) % 4:
            continue
        ac = (b * b - d) // 4
        for a in range(max(b, 1), math.isqrt(ac) + 1):
            if ac % a:
                continue
            c = ac // a
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            # (a, b, c) reduced with b >= 0; count (a, -b, c) when distinct
            count += 1
            if 0 < b < a < c:
                count += 1
    return count


_VALID = [d for d in range(-3, -2001, -1) if d % 4 in (0, 1)]


def test_class_number_brute_force_sweep():
    for d in _VALID:
        assert class_number(d) == _brute_class_number(d), d


def test_class_number_known_values():
    known = {-3: 1, -4: 1, -23: 3, -47: 5, -71: 7, -163: 1, -427: 2, -1999: 27}
    for d, h in known.items():
        assert class_number(d) == h


def test_enumerate_reduced_entries_are_reduced_and_distinct():
    for d in (-3, -4, -20, -23, -47, -163, -420):
        forms = enumerate_reduced(d)
        assert len(set(forms)) == len(forms)
        for f in forms:
            assert f.disc == d
            assert -f.a < f.b <= f.a <= f.c
            if f.a == f.c:
                assert f.b >= 0
            assert math.gcd(math.gcd(f.a, f.b), f.c) == 1


def test_reduce_form_is_stable_and_class_preserving():
    # unimodular shifts of a reduced form come back to it
    for d in (-23, -47, -71):
        for f in enumerate_reduced(d):
            shifted = QuadForm(f.a, f.b + 2 * f.a, f.a + f.b + f.c)
            assert shifted.disc == d
            assert reduce_form(shifted) == f


class TestGroupAxioms:
    """Closure, identity, inverses, associativity for all |d| <= 500."""

    def test_axioms_full_sweep(self):
        for d in _VALID:
            if d < -500:
                continue
            group = FormClassGroup(d)
            forms = group.reduced_forms
            table = composition_table(group)
            n = len(forms)
            ident = group.identity
            assert ident in forms
            e = forms.index(ident)
            for i in range(n):
                # identity and closure
                assert table[e][i] == i and table[i][e] == i
                assert all(0 <= table[i][j] < n for j in range(n))
                # inverse: conjugate form is the group inverse
                inv = reduce_form(QuadForm(forms[i].a, -forms[i].b, forms[i].c))
                assert table[i][forms.index(inv)] == e
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert table[table[i][j]][k] == table[i][table[j][k]]

    def test_commutativity_sample(self):
        for d in (-47, -84, -163, -479):
            table = composition_table(FormClassGroup(d))
            n = len(table)
            for i in range(n):
                for j in range(n):
                    assert table[i][j] == table[j][i]


def _dirichlet_composite(f: QuadForm, g: QuadForm) -> QuadForm:
    # united forms: B by scanning 0 <= B < 2 a1 a2, then reduce
    d, m = f.disc, f.a * g.a
    for B in range(2 * m):
        if (B - f.b) % (2 * f.a) == 0 and (B - g.b) % (2 * g.a) == 0 and (B * B - d) % (4 * m) == 0:
            return reduce_form(QuadForm(m, B, (B * B - d) // (4 * m)))
    raise AssertionError(f"no Dirichlet B for {f}, {g}")


def _translate(f: QuadForm, k: int) -> QuadForm:
    # x -> x + k y, a proper equivalence
    return QuadForm(f.a, f.b + 2 * f.a * k, f.a * k * k + f.b * k + f.c)


def test_compose_matches_dirichlet_composition():
    united = 0
    for d in _VALID:
        if d < -300:
            continue
        forms = enumerate_reduced(d)
        for f in forms:
            for g in forms:
                if math.gcd(f.a, g.a, (f.b + g.b) // 2) != 1:
                    continue
                united += 1
                want = _dirichlet_composite(f, g)
                assert compose(f, g) == want, (f, g)
                for k, l in ((1, 0), (-2, 3), (5, -7)):
                    assert compose(_translate(f, k), _translate(g, l)) == want, (f, g, k, l)
    assert united > 1000


def test_form_power_matches_repeated_composition():
    for d in (-47, -71, -199):
        group = FormClassGroup(d)
        for f in group.reduced_forms:
            acc = group.identity
            for k in range(1, 8):
                acc = compose(acc, f)
                assert form_power(f, k) == acc


def test_element_order_divides_h():
    for d in (-47, -84, -163, -420):
        group = FormClassGroup(d)
        for f in group.reduced_forms:
            o = group.element_order(f)
            assert group.h % o == 0
            assert form_power(f, o) == group.identity


def test_elementary_divisors_known_groups():
    assert FormClassGroup(-3).elementary_divisors() == []
    assert FormClassGroup(-23).elementary_divisors() == [3]
    assert FormClassGroup(-47).elementary_divisors() == [5]
    assert FormClassGroup(-84).elementary_divisors() == [2, 2]
    assert FormClassGroup(-480).elementary_divisors() == [2, 2, 2]
    # cyclic of order 4 versus Klein four at the same h
    assert FormClassGroup(-39).elementary_divisors() == [4]
    assert FormClassGroup(-96).elementary_divisors() == [2, 2]


def test_elementary_divisors_shape():
    for d in _VALID[:200]:
        divs = FormClassGroup(d).elementary_divisors()
        assert math.prod(divs) == class_number(d)
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0


def test_two_torsion_iff_every_class_ambiguous():
    for d in _VALID:
        if d < -800:
            continue
        group = FormClassGroup(d)
        assert group.is_two_torsion() == (group.ambiguous_count() == group.h), d
        for f in group.reduced_forms:
            assert f.is_ambiguous() == (reduce_form(QuadForm(f.a, -f.b, f.c)) == f), (d, f)


def test_fundamental_decomposition_examples():
    assert fundamental_decomposition(-4) == (-4, 1)
    assert fundamental_decomposition(-12) == (-3, 2)
    assert fundamental_decomposition(-16) == (-4, 2)
    assert fundamental_decomposition(-27) == (-3, 3)
    assert fundamental_decomposition(-28) == (-7, 2)
    assert fundamental_decomposition(-163) == (-163, 1)


def test_fundamental_decomposition_reconstructs():
    for d in _VALID:
        dk, n = fundamental_decomposition(d)
        assert dk * n * n == d
        assert class_number(dk) >= 1  # dk is a valid discriminant
        # dk admits no further square split
        for r in (2, 3, 5):
            q, rem = divmod(dk, r * r)
            assert rem or q % 4 not in (0, 1) or q >= 0


def test_principal_form_is_identity():
    for d in (-3, -4, -7, -8, -67, -163, -420):
        f = principal_form(d)
        assert f.a == 1 and f.disc == d
        assert reduce_form(compose(f, f)) == reduce_form(f)


def test_represented_primes_h1_field_sees_every_split_prime():
    # class number one: the principal form represents exactly the split
    # primes and the prime divisors of d
    from picard20.arith import kronecker, primes_up_to

    d = -163
    rep = set(represented_primes(principal_form(d), 20000))
    for p in primes_up_to(20000):
        expected = kronecker(d, p) == 1 or d % p == 0
        assert (p in rep) == expected, p


def test_represented_primes_splits_by_class():
    # h(-20) = 2: the two classes partition the split primes
    from picard20.arith import kronecker, primes_up_to

    f1, f2 = enumerate_reduced(-20)
    r1 = set(represented_primes(f1, 5000))
    r2 = set(represented_primes(f2, 5000))
    split = {p for p in primes_up_to(5000) if kronecker(-20, p) == 1}
    assert (r1 | r2) >= split
    assert not (r1 & r2 & split)


def test_invalid_discriminants_rejected():
    for bad in (0, 5, -1, -2, -5, -6):
        with pytest.raises(VerificationError):
            class_number(bad)


def _walked_form_flags(bound: int) -> tuple[bytearray, bytearray]:
    # one primitive reduced form (a, b, c) with a >= 2 and b >= 0 at a time
    nonprincipal = bytearray(bound + 1)
    nonambiguous = bytearray(bound + 1)
    for a in range(2, math.isqrt(bound // 3) + 1):
        for b in range(a + 1):
            g = math.gcd(a, b)
            for c in range(a, (b * b + bound) // (4 * a) + 1):
                if g > 1 and math.gcd(g, c) > 1:
                    continue
                n = 4 * a * c - b * b
                nonprincipal[n] = 1
                if 0 < b < a < c:
                    nonambiguous[n] = 1
    return nonprincipal, nonambiguous


@pytest.mark.parametrize("bounds", [range(401), (7392, 30000, 10**5)], ids=["0-400", "large"])
def test_reduced_form_flags_match_the_form_walk(bounds):
    for bound in bounds:
        flags = reduced_form_flags(bound)
        assert all(type(f) is bytearray for f in flags), bound
        assert flags == _walked_form_flags(bound), bound


def test_reduced_form_flags_bound_range():
    for bad in (-1, 10**6 + 1):
        with pytest.raises(VerificationError, match=rf"^PRECONDITION: bound {bad} out of range$"):
            reduced_form_flags(bad)


def _unflagged_by_comprehension(flags: bytearray) -> list[int]:
    return [-n for n in range(3, len(flags)) if n % 4 in (0, 3) and not flags[n]]


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4, 5, 30000, 10**6])
def test_unflagged_matches_the_comprehension(bound):
    for flags in reduced_form_flags(bound):
        assert _unflagged(flags) == _unflagged_by_comprehension(flags), bound


def test_unflagged_reads_any_nonzero_byte_as_set():
    flags = bytearray(range(256)) * 3
    assert _unflagged(flags) == _unflagged_by_comprehension(flags) == [-256, -512]
