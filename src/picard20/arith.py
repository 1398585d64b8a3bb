"""Exact integer and modular arithmetic kernels.

Everything here is deterministic and exact; Python integers make overflow a
non-issue. These routines sit under every other module, so they favour
clarity plus exhaustive-oracle testability over cleverness.
"""

from __future__ import annotations

import math
from itertools import compress

from .errors import VerificationError

__all__ = [
    "is_prime",
    "kronecker",
    "cornacchia",
    "prime_flags",
    "primes_above_3",
    "primes_up_to",
    "factorize",
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


def cornacchia(D: int, m: int) -> tuple[int, int] | None:
    """Solve x^2 + D*y^2 = m in nonnegative integers, D >= 1, m >= 1.

    Returns the solution with maximal y among primitive ones (gcd(x,y) = 1);
    if only imprimitive solutions exist, the one with maximal y overall.
    None exactly when no solution exists. A descent over y from isqrt(m/D)
    that stops at the first primitive solution: up to about sqrt(m/D) steps
    of one isqrt each, about 1,600 near p = 10^7 for d_K = -4 (m = p, D = 4).
    Through heckecm.ap_h1 this is the per-prime oracle of the CM stream,
    which heckecm.split_stream reads off one walk of the norm form.
    """
    if D < 1 or m < 1:
        raise ValueError("cornacchia requires D >= 1 and m >= 1")
    fallback = None
    y = math.isqrt(m // D)
    while y >= 0:
        r = m - D * y * y
        x = math.isqrt(r)
        if x * x == r:
            if math.gcd(x, y) == 1:
                return (x, y)
            if fallback is None:
                fallback = (x, y)
        y -= 1
    return fallback


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


def squarefree_part(n: int) -> int:
    """Squarefree kernel of n (sign preserved); squarefree_part(0) is an error."""
    if n == 0:
        raise ValueError("squarefree_part(0) is undefined")
    return (-1 if n < 0 else 1) * math.prod(q for q, e in factorize(n) if e % 2)


def is_squarefree(n: int) -> bool:
    """True iff n != 0 and no prime square divides n."""
    return n != 0 and all(e == 1 for _, e in factorize(n))
