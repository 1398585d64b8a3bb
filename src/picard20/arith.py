"""Exact integer and modular arithmetic kernels.

Everything here is deterministic and exact; Python integers make overflow a
non-issue. These routines sit under every other module, so they favour
clarity plus exhaustive-oracle testability over cleverness. Cornacchia's
solver, the per-prime oracle of heckecm.split_stream, lives in
tests/oracles.py.
"""

from __future__ import annotations

import math
from itertools import compress

from .errors import VerificationError

__all__ = [
    "is_prime",
    "kronecker",
    "prime_flags",
    "primes_above_3",
    "primes_up_to",
    "factorize",
    "primitive_root",
    "squarefree_part",
    "is_squarefree",
    "is_square",
]

# Trial divisors, and the deterministic Miller-Rabin witness set, valid for
# all n < 3.3 * 10**24, comfortably past 2**64.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Trial division of n takes up to sqrt(n)/2 steps: about 0.1 s at this bound.
_FACTOR_LIMIT = 10**12


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a fixed witness set)."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n >= 1.

    Total in a; extends the Jacobi symbol by the usual rule at 2.
    """
    if n < 1:
        raise ValueError("kronecker requires n >= 1")
    k = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            k = -k
    # n odd >= 1; the Jacobi symbol is periodic in a mod n, signs included
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def is_square(n: int) -> bool:
    """True iff n is a perfect square (n >= 0)."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def prime_flags(bound: int) -> bytearray:
    """Sieve flags: flags[n] is 1 exactly when n <= bound is prime.

    Never shorter than two bytes, so flags[0] and flags[1] always exist.
    """
    bound = max(bound, 1)
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


def primes_above_3(flags: bytearray) -> compress:
    """The primes p > 3 that flags (from prime_flags) marks, ascending, lazily.

    compress reads the odd n alone, half of flags, and makes each p only
    when it is asked for. A sorted list of the n = 1 or 5 mod 6 reads a
    third, but it makes every p before `ap` pops its stream, so the freed
    stream keys stay as holes: 10 MB more peak RSS at 10^7.
    """
    return compress(range(5, len(flags), 2), memoryview(flags)[5::2])


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, by sieve."""
    flags = prime_flags(bound)
    return [p for p in (2, 3) if p <= bound] + list(primes_above_3(flags))


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of |n| by trial division: [(q, e), ...], q ascending.

    |n| above 10^12 raises PRECONDITION rather than run for minutes.
    """
    if n == 0:
        raise ValueError("factorize(0) is undefined")
    n = abs(n)
    if n > _FACTOR_LIMIT:
        raise VerificationError("PRECONDITION", f"{n} is too large to factor by trial division")
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            out.append((q, e))
        q += 1 if q == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def primitive_root(p: int) -> int:
    """The least g whose powers are all of F_p^*, for a prime p.

    g has order p - 1 exactly when g^((p-1)/q) != 1 for each prime q | p - 1
    and g^(p-1) = 1; the last test fails for every composite p (Lucas), which
    raises ValueError.
    """
    exponents = [(p - 1) // q for q, _ in factorize(p - 1)]
    for g in range(1, p):
        if all(pow(g, e, p) != 1 for e in exponents):
            if pow(g, p - 1, p) == 1:
                return g
            break
    raise ValueError(f"{p} is not prime")


def squarefree_part(n: int) -> int:
    """Squarefree kernel of n (sign preserved); squarefree_part(0) is an error."""
    if n == 0:
        raise ValueError("squarefree_part(0) is undefined")
    return (-1 if n < 0 else 1) * math.prod(q for q, e in factorize(n) if e % 2)


def is_squarefree(n: int) -> bool:
    """True iff n != 0 and no prime square divides n."""
    return n != 0 and all(e == 1 for _, e in factorize(n))
