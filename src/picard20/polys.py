"""Dense univariate polynomials as ascending coefficient tuples.

Coefficients are ints or Fractions over Q, plain ints for the mod-p layer.
The zero polynomial is the empty tuple. Nothing here knows about surfaces;
this is shared plumbing for exact valuations, the chart at infinity, and
reduction mod p.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import VerificationError

Poly = tuple  # ascending coefficients

__all__ = [
    "Poly",
    "ptrim",
    "pdeg",
    "padd",
    "psub",
    "pneg",
    "pmul",
    "pscale",
    "ppow",
    "peval",
    "pderiv",
    "pdivmod",
    "valuation",
    "reciprocal",
    "poly_str",
    "factor_int_poly",
    "resultant",
    "pmod",
    "peval_mod",
    "pdivmod_mod",
]


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
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
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


def peval(f: Poly, x):
    acc = 0
    for a in reversed(f):
        acc = acc * x + a
    return acc


def pderiv(f: Poly) -> Poly:
    return ptrim(i * a for i, a in enumerate(f) if i >= 1)


def pdivmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Division over Q (exact rational arithmetic)."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(a) for a in f]
    quo = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    glead = Fraction(g[-1])
    for i in range(len(rem) - len(g), -1, -1):
        c = rem[i + len(g) - 1] / glead
        if c == 0:
            continue
        quo[i] = c
        for j, b in enumerate(g):
            rem[i + j] -= c * Fraction(b)
    return ptrim(quo), ptrim(rem)


def valuation(f: Poly, g: Poly) -> int:
    """Largest k with g^k dividing f over Q; f must be nonzero."""
    if not f:
        raise VerificationError("PRECONDITION", "valuation of the zero polynomial")
    if pdeg(g) < 1:
        raise VerificationError("PRECONDITION", "valuation needs deg >= 1 place")
    v = 0
    while True:
        q, r = pdivmod(f, g)
        if r:
            return v
        f = q
        v += 1


def reciprocal(f: Poly, weight: int) -> Poly:
    """s^weight * f(1/s) as a polynomial in s; requires deg(f) <= weight."""
    if pdeg(f) > weight:
        raise VerificationError(
            "PRECONDITION", f"degree {pdeg(f)} exceeds reciprocal weight {weight}"
        )
    out = [0] * (weight + 1)
    for i, a in enumerate(f):
        out[weight - i] = a
    return ptrim(out)


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
    """
    if not f:
        raise VerificationError("PRECONDITION", "cannot factor zero")
    const, factors = _sympy_poly(f).factor_list()
    out = []
    for poly, mult in factors:
        g = ptrim(int(c) for c in reversed(poly.all_coeffs()))
        if g[-1] < 0:
            g, const = pneg(g), -const  # keep factors with positive lead
        out.append((g, int(mult)))
    out.sort(key=lambda gm: (pdeg(gm[0]), gm[0]))
    c = int(const)
    check = (c,)
    for g, m in out:
        check = pmul(check, ppow(g, m))
    assert check == ptrim(f)
    return c, out


def resultant(f: Poly, g: Poly) -> int:
    """Res(f, g) of integer polynomials: lead(f)^deg(g) times the product of
    g over the roots of f, so Res(t - a, g) = g(a).  By convention it is 1
    when f is constant."""
    if pdeg(f) < 1:
        return 1
    # when deg f < deg g, sympy swaps the arguments without the sign in
    # Res(f, g) = (-1)^(deg f deg g) Res(g, f), so the longer one goes first
    if pdeg(f) >= pdeg(g):
        return int(_sympy_poly(f).resultant(_sympy_poly(g)))
    return (-1) ** (pdeg(f) * pdeg(g)) * int(_sympy_poly(g).resultant(_sympy_poly(f)))


def _sympy_poly(f: Poly):
    # sympy import deferred: factoring Delta and one resultant per model are
    # its only uses, and several CLI paths never need it
    import sympy

    return sympy.Poly([int(a) for a in reversed(f)] or [0], sympy.Symbol("t"), domain="ZZ")


# mod-p layer: coefficients are ints in [0, p)


def pmod(f: Poly, p: int) -> Poly:
    return ptrim(int(a) % p for a in f)


def peval_mod(f: Poly, x: int, p: int) -> int:
    acc = 0
    for a in reversed(f):
        acc = (acc * x + a) % p
    return acc


def pdivmod_mod(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [a % p for a in f]
    quo = [0] * max(0, len(f) - len(g) + 1)
    ginv = pow(g[-1], -1, p)
    for i in range(len(rem) - len(g), -1, -1):
        c = rem[i + len(g) - 1] * ginv % p
        if c == 0:
            continue
        quo[i] = c
        for j, b in enumerate(g):
            rem[i + j] = (rem[i + j] - c * b) % p
    return ptrim(quo), ptrim(rem)
