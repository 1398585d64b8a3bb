"""Dense univariate polynomials as ascending coefficient tuples.

Coefficients are ints (the ring operations also take Fractions), plain ints
in [0, p) for the mod-p layer.  The zero polynomial is the empty tuple.
Nothing here knows about surfaces; this is shared plumbing for exact
valuations and reduction mod p.  Factoring over Z
(Zassenhaus: factors mod a small prime, Hensel-lifted and recombined) and
resultants (Euclid on primitive pseudo-remainders) are done here too, so the
package needs nothing outside the standard library.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from array import array
from fractions import Fraction

from .arith import is_prime
from .errors import VerificationError

Poly = tuple  # ascending coefficients


def ptrim(coeffs) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pdeg(f: Poly) -> int:
    return len(f) - 1  # -1 for the zero polynomial


def padd(f: Poly, g: Poly) -> Poly:
    n = max(len(f), len(g))
    return ptrim(
        (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)
    )


def pneg(f: Poly) -> Poly:
    return tuple(-a for a in f)


def psub(f: Poly, g: Poly) -> Poly:
    return padd(f, pneg(g))


def pmul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    n = len(g)
    for i, a in enumerate(f):
        if a:
            out[i : i + n] = [c + a * b for c, b in zip(out[i : i + n], g)]
    return ptrim(out)


def pscale(f: Poly, s) -> Poly:
    if s == 0:
        return ()
    return tuple(a * s for a in f)


def ppow(f: Poly, k: int) -> Poly:
    out = (1,)
    for _ in range(k):
        out = pmul(out, f)
    return out


def pderiv(f: Poly) -> Poly:
    return ptrim(i * a for i, a in enumerate(f) if i >= 1)


def pquo_exact(f: Poly, g: Poly) -> Poly | None:
    """f / g when the primitive integer polynomial g divides the integer
    polynomial f, and None when it does not.

    By Gauss's lemma a primitive g that divides f over Q divides it in Z[t],
    so the long division runs in Z with exact divmod and stops at the first
    nonzero remainder: that already rules out division over Q.
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem, n = list(f), len(g)
    quo = [0] * max(0, len(f) - n + 1)
    for i in range(len(rem) - n, -1, -1):
        c, r = divmod(rem[i + n - 1], g[-1])
        if r:
            return None
        if c:
            quo[i] = c
            rem[i : i + n] = [a - c * b for a, b in zip(rem[i : i + n], g)]
    return None if any(rem[: n - 1]) else tuple(quo)


def valuation(f: Poly, g: Poly) -> int:
    """Largest k with g^k dividing f over Q; f a nonzero integer polynomial,
    g an integer one."""
    if not f:
        raise VerificationError("PRECONDITION", "valuation of the zero polynomial")
    if pdeg(g) < 1:
        raise VerificationError("PRECONDITION", "valuation needs deg >= 1 place")
    g, v = _primitive(g), 0
    while (f := pquo_exact(f, g)) is not None:
        v += 1
    return v


def poly_str(f: Poly) -> str:
    """Descending-order rendering, e.g. (1, -1, 1) -> 't^2-t+1'."""
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        a = f[i]
        if a == 0:
            continue
        if i == 0:
            term = str(abs(a))
        else:
            mag = "" if abs(a) == 1 else str(abs(a)) + "*"
            term = f"{mag}t" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(("-" if a < 0 else "") + term)
        else:
            parts.append(("-" if a < 0 else "+") + term)
    return "".join(parts)


def factor_int_poly(f: Poly) -> tuple[int, list[tuple[Poly, int]]]:
    """Factor a nonzero integer polynomial into content and primitive
    irreducible powers: f = const * prod(g_i^m_i). Factors are sorted by
    (degree, coefficients) for reproducible reports.

    The squarefree part f / gcd(f, f') is factored by Zassenhaus, and each
    factor's multiplicity is its valuation in f.
    """
    f = ptrim(f)
    if not f:
        raise VerificationError("PRECONDITION", "cannot factor zero")
    g = _primitive(tuple(int(a) for a in f))
    const = int(f[-1]) // g[-1]
    out = []
    if pdeg(g) > 0:
        sqfree = pquo_exact(g, _gcd(g, _primitive(pderiv(g))))
        for h in _factor_squarefree(sqfree):
            out.append((h, valuation(g, h)))
    out.sort(key=lambda hm: (pdeg(hm[0]), hm[0]))
    check = (const,)
    for h, m in out:
        check = pmul(check, ppow(h, m))
    assert check == f
    return const, out


def resultant(f: Poly, g: Poly) -> int:
    """Res(f, g) of integer polynomials: lead(f)^deg(g) times the product of
    g over the roots of f, so Res(t - a, g) = g(a).  By convention it is 1
    when f is constant, and otherwise 0 when g is zero."""
    if pdeg(f) < 1:
        return 1
    res = Fraction(1)
    while pdeg(g) >= 1:
        # Euclid on primitive pseudo-remainders: for r = lead(g)^e f mod g,
        # e = max(m - n + 1, 0), and its content k,
        # Res(f, g) = (-1)^(m n) lead(g)^(m - deg r - e n) k^n Res(g, r / k)
        m, n = pdeg(f), pdeg(g)
        r = _prem(f, g)
        if not r:
            return 0
        k = math.gcd(*r)
        res *= (-1) ** (m * n) * Fraction(g[-1]) ** (m - pdeg(r) - max(m - n + 1, 0) * n) * k**n
        f, g = g, tuple(a // k for a in r)
    return int(res * Fraction(g[0] if g else 0) ** pdeg(f))


# Zassenhaus over Z (Cohen, GTM 138, 3.5; von zur Gathen and Gerhard, Modern
# Computer Algebra, 15.6).  The subset search is exponential in the number of
# modular factors, so a size with more subsets than this left to try is
# refused.
_MAX_SUBSETS = 5000


def _primitive(f: Poly) -> Poly:
    """f / content, with positive lead; f a nonzero integer polynomial."""
    c = math.gcd(*f) if f[-1] > 0 else -math.gcd(*f)
    return tuple(a // c for a in f)


def _prem(f: Poly, g: Poly) -> Poly:
    """lead(g)^max(deg f - deg g + 1, 0) f mod g, over Z."""
    r, n = list(f), len(g) - 1
    while len(r) > n:
        c, k = r.pop(), len(r) - n
        r = [a * g[-1] for a in r]
        r[k:] = [a - c * b for a, b in zip(r[k:], g)]
    return ptrim(r)


def _gcd(f: Poly, g: Poly) -> Poly:
    """gcd of primitive integer polynomials, by primitive pseudo-remainders."""
    while g:
        r = _prem(f, g)
        f, g = g, r and _primitive(r)
    return f


def _factor_squarefree(f: Poly) -> list[Poly]:
    """Irreducible factors of a primitive squarefree f with positive lead."""
    if pdeg(f) < 2:
        return [f] if pdeg(f) == 1 else []
    # the first odd prime keeping f squarefree of its degree
    p = 1
    while True:
        p += 2
        fp = pmod(f, p)
        if is_prime(p) and pdeg(fp) == pdeg(f) and pdeg(_gcd_mod(fp, pmod(pderiv(fp), p), p)) == 0:
            break
    ddf = _distinct_degree(fp, p)
    if len(ddf) == 1 and ddf[0][1] == pdeg(f):
        return [f]
    rng = random.Random(p)  # seeded, so every run splits alike
    mods = [h for g, d in ddf for h in _equal_degree(g, d, p, rng)]
    # lift f = lead * prod(mods) mod p to mod q > twice the Mignotte bound on
    # lead * (a factor of f) / its lead, one factor against the rest at a time
    bound = 2 * f[-1] * 2 ** pdeg(f) * (math.isqrt(sum(a * a for a in f)) + 1)
    lifted, rest = [], f
    for h in mods[:-1]:
        g = pdivmod_mod(rest, h, p)[0]
        s, t = _xgcd_mod(g, h, p)
        q = p
        while q <= bound:
            g, h, s, t = _hensel_step(rest, g, h, s, t, q)
            q *= q
        lifted.append(h)
        rest = g
    lifted.append(_monic(rest, q))
    # recombine: subsets of k modular factors, smallest k first
    out, k = [], 1
    while 2 * k <= len(lifted):
        if math.comb(len(lifted), k) > _MAX_SUBSETS:
            raise VerificationError(
                "PRECONDITION",
                f"a degree-{pdeg(f)} factor splits into {len(lifted)} factors mod {p}; "
                f"their {math.comb(len(lifted), k)} subsets of size {k} are not tried",
            )
        for subset in itertools.combinations(range(len(lifted)), k):
            lead = f[-1]
            c = _symmetric(lead * math.prod(lifted[i][0] for i in subset) % q, q)
            if lead * f[0] % c if c else f[0]:
                continue  # its constant term cannot divide lead * f(0)
            g = (lead,)
            for i in subset:
                g = pmod(pmul(g, lifted[i]), q)
            g = _primitive(tuple(_symmetric(a, q) for a in g))
            quo = pquo_exact(f, g)
            if quo is not None:
                out.append(g)
                f = quo
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            k += 1
    return out + [f] if lifted else out


def _symmetric(a: int, q: int) -> int:
    return a - q if 2 * a > q else a


# the factoring mod p and mod p^k, p odd


def _monic(f: Poly, q: int) -> Poly:
    inv = pow(f[-1], -1, q)
    return tuple(a * inv % q for a in f)


def _gcd_mod(a: Poly, b: Poly, p: int) -> Poly:
    while b:
        a, b = b, pdivmod_mod(a, b, p)[1]
    return _monic(a, p)


def _xgcd_mod(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
    """s, t with s a + t b = 1 mod p, deg s < deg b, for a, b coprime mod p."""
    r0, r1, s0, s1 = a, b, (1,), ()
    while r1:
        q, r = pdivmod_mod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, pmod(psub(s0, pmul(q, s1)), p)
    s = pmod(pscale(s0, pow(r0[0], -1, p)), p)
    return s, pdivmod_mod(psub((1,), pmul(s, a)), b, p)[0]


def _distinct_degree(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """(g_d, d): g_d the product of the monic irreducible factors of degree d
    of f mod p, squarefree there."""
    f = _monic(f, p)
    out, x, h, d = [], (0, 1), (0, 1), 0
    while 2 * (d + 1) <= pdeg(f):
        d += 1
        h = ppow_mod(h, p, f, p)  # x^(p^d) mod f
        g = _gcd_mod(f, pmod(psub(h, x), p), p)
        if pdeg(g) > 0:
            out.append((g, d))
            f = pdivmod_mod(f, g, p)[0]
            h = pdivmod_mod(h, f, p)[1]
    return out + [(f, pdeg(f))] if pdeg(f) > 0 else out


def _equal_degree(g: Poly, d: int, p: int, rng: random.Random) -> list[Poly]:
    """The monic irreducible factors of g mod p, all of degree d
    (Cantor-Zassenhaus)."""
    if pdeg(g) == d:
        return [g]
    while True:
        u = ptrim(rng.randrange(p) for _ in range(pdeg(g)))
        w = _gcd_mod(g, pmod(psub(ppow_mod(u, (p**d - 1) // 2, g, p), (1,)), p), p)
        if 0 < pdeg(w) < pdeg(g):
            rest = pdivmod_mod(g, w, p)[0]
            return _equal_degree(w, d, p, rng) + _equal_degree(rest, d, p, rng)


def _hensel_step(f: Poly, g: Poly, h: Poly, s: Poly, t: Poly, m: int):
    """f = g h and s g + t h = 1 mod m, h monic, lifted to mod m^2
    (von zur Gathen and Gerhard, Algorithm 15.10)."""
    m *= m
    e = pmod(psub(f, pmul(g, h)), m)
    q, r = pdivmod_mod(pmul(s, e), h, m)
    g = pmod(padd(g, padd(pmul(t, e), pmul(q, g))), m)
    h = pmod(padd(h, r), m)
    b = pmod(psub(padd(pmul(s, g), pmul(t, h)), (1,)), m)
    c, d = pdivmod_mod(pmul(s, b), h, m)
    return g, h, pmod(psub(s, d), m), pmod(psub(t, padd(pmul(t, b), pmul(c, g))), m)


# mod-p layer: coefficients are ints in [0, p)


def pmod(f: Poly, p: int) -> Poly:
    return ptrim(int(a) % p for a in f)


def peval_mod(f: Poly, x: int, p: int) -> int:
    acc = 0
    for a in reversed(f):
        acc = (acc * x + a) % p
    return acc


def pvalues_on_powers(f: Poly, powers: array, p: int) -> list[int]:
    """[f(powers[i]) mod p for i in range(p - 1)], for a prime p and
    powers[i] = g^i mod p, g a primitive root, in an array("I").

    t -> t^j walks the powers with stride j, so f(g^i) is the sum over j of
    f_j powers[i j mod (p - 1)]: each term is a strided slice of the
    repeated power table, packed into 32-bit slots and scaled by f_j as one
    integer.  No slot exceeds len(f) (p - 1)^2, so the sum unpacks without
    carries before one reduction mod p per t.
    """
    n = p - 1
    if len(f) * n * n >= 1 << 32:
        raise VerificationError("PRECONDITION", f"p={p} overflows the 32-bit value slots")
    coeffs = [a % p for a in f]
    if not any(coeffs):
        return [0] * n
    # the slice of stride j stops below j n, within len(f) - 1 periods
    tile = powers * (len(coeffs) - 1)
    total = coeffs[0] * int.from_bytes(array("I", [1]) * n, sys.byteorder)
    for j, a in enumerate(coeffs[1:], 1):
        if a:
            total += a * int.from_bytes(tile[: j * n : j], sys.byteorder)
    return [v % p for v in memoryview(total.to_bytes(4 * n, sys.byteorder)).cast("I")]


def pdivmod_mod(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem, n = list(f), len(g)
    quo = [0] * max(0, len(f) - n + 1)
    ginv = pow(g[-1], -1, p)
    for i in range(len(rem) - n, -1, -1):
        c = rem[i + n - 1] * ginv % p
        if c:
            quo[i] = c
            rem[i : i + n] = [a - c * b for a, b in zip(rem[i : i + n], g)]
    return ptrim(quo), pmod(rem[: n - 1], p)


def ppow_mod(a: Poly, e: int, g: Poly, p: int) -> Poly:
    """a^e mod (g, p) for e >= 1 and a reduced mod g."""
    out = None
    while True:
        if e & 1:
            out = a if out is None else pdivmod_mod(pmul(out, a), g, p)[1]
        e >>= 1
        if not e:
            return out
        a = pdivmod_mod(pmul(a, a), g, p)[1]
