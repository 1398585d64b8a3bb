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


# Trial divisors, and the Miller-Rabin witnesses: the first k of them
# decide every n below the least strong pseudoprime to all k, psi_k.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (psi_k, k), by increasing psi_k: Jaeschke (1993) for k <= 8, Jiang and Deng
# (2014) for psi_9 = psi_10 = psi_11, Sorenson and Webster (2015) for psi_12
# and psi_13.  psi_7 = psi_8, so the row of 7 serves below it; past psi_13
# no witness set is known, and a probable prime needs _pocklington's proof.
_WITNESS_BOUNDS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)

# Trial division of n takes up to sqrt(n)/2 steps: about 0.1 s at this bound.
_FACTOR_LIMIT = 10**12

# _pocklington factors n - 1 over the primes below this bound
_POCKLINGTON_TRIAL = 10**5


def is_prime(n: int) -> bool:
    """Deterministic primality test: trial division by the primes up to 41,
    then Miller-Rabin with the fewest of them as witnesses that decide n.

    Past psi_13 = 3317044064679887385961981 the 13 witnesses decide only
    that n is composite; a probable prime there is proved by _pocklington,
    or refused with PRECONDITION.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    k = next((k for psi, k in _WITNESS_BOUNDS if n < psi), len(_SMALL_PRIMES))
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _WITNESS_BOUNDS[-1][0] or _pocklington(n)


def _pocklington(n: int) -> bool:
    """Whether a probable prime n past psi_13 is prime, by Pocklington's theorem.

    Let F be the part of n - 1 over the primes q < _POCKLINGTON_TRIAL.  n has
    passed Miller-Rabin to every base in _SMALL_PRIMES, so a^(n-1) = 1 for
    each; a base a with gcd(a^((n-1)/q) - 1, n) = 1 for each q | F puts every
    prime factor of n at 1 mod F, and (F + 1)^2 > n then proves n prime.  A
    gcd strictly between 1 and n is a factor.  n whose F is too small, or
    with a q that no base in _SMALL_PRIMES settles, raises PRECONDITION.
    """
    refused = VerificationError("PRECONDITION", f"{n} is past the deterministic primality bound")
    F, qs, rest = 1, [], n - 1
    for q in primes_up_to(_POCKLINGTON_TRIAL):
        if rest % q == 0:
            qs.append(q)
            while rest % q == 0:
                rest //= q
                F *= q
    if (F + 1) ** 2 <= n:
        raise refused
    for q in qs:
        for a in _SMALL_PRIMES:
            g = math.gcd(pow(a, (n - 1) // q, n) - 1, n)
            if g == 1:
                break
            if g != n:
                return False
        else:
            raise refused
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
            # the slice's length, counted rather than read off a copy of it
            flags[i * i :: i] = bytearray((bound - i * i) // i + 1)
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
