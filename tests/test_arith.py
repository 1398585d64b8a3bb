"""Integer kernels against brute-force oracles."""

import math
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picard20.arith import (
    _SMALL_PRIMES,
    _WITNESS_BOUNDS,
    factorize,
    is_prime,
    is_square,
    is_squarefree,
    kronecker,
    prime_flags,
    primes_above_3,
    primes_up_to,
    primitive_root,
    squarefree_part,
)
from picard20.errors import VerificationError

from oracles import cornacchia


def _sieve(bound: int) -> list[int]:
    # independent of primes_up_to: trial division
    return [n for n in range(2, bound + 1) if all(n % q for q in range(2, n))]


def test_primes_up_to_matches_trial_division():
    assert primes_up_to(500) == _sieve(500)


def test_prime_flags_match_trial_division_at_every_bound():
    # each slice's length is counted from the bound, not read off a copy;
    # a miscount makes the slice assignment raise or resize the flags
    for bound in range(-2, 501):
        flags = prime_flags(bound)
        primes = set(_sieve(bound))
        assert list(flags) == [int(n in primes) for n in range(max(bound, 1) + 1)], bound


def test_prime_lists_match_compress_over_every_n():
    # primes_above_3 reads only the odd n; 2 and 3 come from primes_up_to
    for bound in [*range(2001), 10**6]:
        flags = prime_flags(bound)
        every = list(compress(range(len(flags)), flags))
        assert primes_up_to(bound) == every, bound
        assert list(primes_above_3(flags)) == [p for p in every if p > 3], bound


def test_is_prime_matches_sieve():
    primes = set(_sieve(3000))
    for n in range(-5, 3001):
        assert is_prime(n) == (n in primes), n


@pytest.mark.parametrize("n", [2**61 - 1, 2**89 - 1, 10**18 + 9])
def test_is_prime_large_known_primes(n):
    assert is_prime(n)


def test_is_prime_large_known_composites():
    assert not is_prime((2**31 - 1) * (2**61 - 1))
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**j, n) == n - 1 for j in range(1, s))


def test_each_witness_bound_is_a_strong_pseudoprime_to_its_witnesses():
    # psi_k fools the first k witnesses, which decide every n below it; so
    # each row is as far as its witnesses reach, and is_prime uses the next
    # row's at psi_k.  The last one has no next row: refused, not guessed.
    assert [k for _, k in _WITNESS_BOUNDS] == [1, 2, 3, 4, 5, 6, 7, 9, 12, 13]
    for psi, k in _WITNESS_BOUNDS:
        assert all(_strong_probable_prime(psi, a) for a in _SMALL_PRIMES[:k]), psi
        if psi < _WITNESS_BOUNDS[-1][0]:
            assert not is_prime(psi), psi
    # below psi_12 the witnesses up to 37 once called this product prime
    assert 318665857834031151167461 == 399165290221 * 798330580441
    assert all(is_prime(q) for q in (399165290221, 798330580441))
    with pytest.raises(VerificationError, match="^PRECONDITION: 3317044064679887385961981 "):
        is_prime(3317044064679887385961981)


def test_is_prime_proves_a_probable_prime_past_the_last_bound():
    # Pocklington: 2^89 - 2 and 2^127 - 2 have a factored part above the
    # square root; 3 divides 2^89 + 1, and the product fails Miller-Rabin
    assert is_prime(2**89 - 1) and is_prime(2**127 - 1)
    assert not is_prime(2**89 + 1)
    assert not is_prime((2**61 - 1) * (2**89 - 1))


def test_is_square_small_range():
    squares = {k * k for k in range(200)}
    for n in range(-10, 40000):
        assert is_square(n) == (n in squares)


def test_kronecker_euler_criterion():
    # for odd prime p and gcd(a, p) = 1 the symbol is a^((p-1)/2) mod p
    for p in primes_up_to(200):
        if p == 2:
            continue
        for a in range(-p, p + 1):
            sym = kronecker(a, p)
            if a % p == 0:
                assert sym == 0
            else:
                euler = pow(a % p, (p - 1) // 2, p)
                assert sym == (1 if euler == 1 else -1), (a, p)


@given(
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=1, max_value=300),
)
@settings(deadline=None)
def test_kronecker_multiplicative_in_top(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


@given(
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=60),
)
@settings(deadline=None)
def test_kronecker_multiplicative_in_bottom(a, m, n):
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_kronecker_at_two():
    # (a/2) is 0 for even a and (-1)^((a^2-1)/8) for odd a
    for a in range(-50, 51):
        expected = 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
        assert kronecker(a, 2) == expected, a


def _brute_cornacchia(D: int, m: int):
    # smallest-x solution to x^2 + D y^2 = m with y >= 1
    for y in range(1, math.isqrt(m // D) + 1):
        rest = m - D * y * y
        if rest >= 0 and is_square(rest):
            return math.isqrt(rest), y
    return None


@pytest.mark.parametrize("D", [1, 2, 3, 7, 11, 19, 43, 67, 163])
def test_cornacchia_against_brute_force(D):
    for m in range(D + 1, 2000):
        got = _brute_cornacchia(D, m)
        sol = cornacchia(D, m)
        if got is None:
            assert sol is None or sol[1] == 0, (D, m, sol)
        if sol is not None:
            x, y = sol
            assert x * x + D * y * y == m, (D, m, sol)
            # cornacchia may return the trivial y = 0 split; a nontrivial
            # brute solution must then also be visible to the caller
        if sol is None:
            assert got is None, (D, m, got)


def test_cornacchia_known_values():
    assert cornacchia(19, 4 * 5) == (1, 1)
    assert cornacchia(19, 4 * 7) == (3, 1)
    assert cornacchia(1, 13) == (2, 3)  # maximal-y primitive solution
    assert cornacchia(163, 4 * 3) is None  # 3 is inert in Q(sqrt(-163))


def test_squarefree_part_by_definition():
    for n in range(1, 3000):
        s = squarefree_part(n)
        assert n % s == 0
        q = n // s
        assert is_square(q), n
        # s itself contains no square factor
        assert all(s % (k * k) for k in range(2, math.isqrt(s) + 1)), n


def test_squarefree_part_negative():
    assert squarefree_part(-12) == -3
    assert squarefree_part(-1) == -1


def test_factorize_by_definition():
    primes = set(_sieve(3000))
    assert factorize(1) == []
    for n in range(-3000, 3001):
        if n == 0:
            continue
        fac = factorize(n)
        assert math.prod(q**e for q, e in fac) == abs(n), n
        assert [q for q, _ in fac] == sorted({q for q, _ in fac}), n
        assert all(q in primes and e >= 1 for q, e in fac), n
        assert is_squarefree(n) == all(n % (k * k) for k in range(2, math.isqrt(abs(n)) + 1)), n
    assert not is_squarefree(0)


def test_primitive_root_is_the_least_of_order_p_minus_1():
    # orders by brute force; every composite n < 500 and Carmichael numbers,
    # whose units all pass Fermat's test, are refused
    def order(g, p):
        return next(k for k in range(1, p) if pow(g, k, p) == 1)

    primes = _sieve(499)
    for p in primes:
        g = primitive_root(p)
        assert order(g, p) == p - 1, p
        assert all(order(h, p) < p - 1 for h in range(1, g)), p
    for n in [n for n in range(-3, 500) if n not in primes] + [561, 1105, 1729, 8911]:
        with pytest.raises(ValueError):
            primitive_root(n)


def test_factorize_refuses_numbers_beyond_trial_division():
    assert factorize(10**12) == [(2, 12), (5, 12)]
    with pytest.raises(VerificationError) as err:
        factorize(-(10**12 + 1))
    assert err.value.code == "PRECONDITION"
