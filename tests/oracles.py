"""Reference implementations that src/ no longer carries.

Each is the simple, independent form of something src/ now computes a
faster or shorter way, and the tests hold src/ to it:

    composition_table -- the class group's products, from compose
    peval             -- f(x) by Horner's rule, in any ring
    cornacchia        -- one solution of x^2 + D y^2 = m, by descent
    split_type        -- one prime's kind in Q(sqrt(d_K)), the oracle of
                         heckecm.split_types
    norm_form_ap      -- a_p from one norm-form solution
    ap_h1             -- a_p one prime at a time, the oracle of
                         heckecm.split_stream
    b_discriminant    -- Delta from the b-invariants, the oracle of
                         ellsurf.discriminant
    pvalues_mod       -- f at every t in F_p by forward differences, the
                         oracle of polys.pvalues_on_powers
"""

import itertools
import math

from picard20.arith import kronecker
from picard20.ellsurf import SurfaceModel, b_invariants
from picard20.errors import VerificationError
from picard20.heckecm import INERT, RAMIFIED, SPLIT, CMRule, no_representation, norm_form
from picard20.polys import Poly, padd, pdeg, peval_mod, pmul, ppow, pscale, psub
from picard20.classgroups import FormClassGroup, compose
from picard20.qforms import twist_discriminant


def composition_table(group: FormClassGroup) -> list[list[int]]:
    """Index table t[i][j] with forms[i] * forms[j] = forms[t[i][j]], from compose."""
    forms = group.reduced_forms
    index = {f: i for i, f in enumerate(forms)}
    return [[index[compose(f, g)] for g in forms] for f in forms]


def peval(f: Poly, x):
    acc = 0
    for a in reversed(f):
        acc = acc * x + a
    return acc


def cornacchia(D: int, m: int) -> tuple[int, int] | None:
    """Solve x^2 + D*y^2 = m in nonnegative integers, D >= 1, m >= 1.

    Returns the solution with maximal y among primitive ones (gcd(x,y) = 1);
    if only imprimitive solutions exist, the one with maximal y overall.
    None exactly when no solution exists. A descent over y from isqrt(m/D)
    that stops at the first primitive solution: up to about sqrt(m/D) steps
    of one isqrt each, about 1,600 near p = 10^7 for d_K = -4 (m = p, D = 4).
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


def split_type(d_K: int, p: int) -> str:
    """How the prime p behaves in Q(sqrt(d_K)), read from kronecker(d_K, p)."""
    return (RAMIFIED, SPLIT, INERT)[kronecker(d_K, p)]


def norm_form_ap(d_K: int, p: int, sol: tuple[int, int] | None) -> int:
    """a_p = 2(X^2 - D'Y^2)/scale of the untwisted newform at a split p.

    sol is the norm-form solution (X, Y) of p, from cornacchia; None, when p
    has none, is NO_REPRESENTATION.
    """
    if sol is None:
        raise no_representation(d_K, p)
    Dp, scale = norm_form(d_K)
    x, y = sol
    ap = 2 * (x * x - Dp * y * y) // scale
    assert abs(ap) <= 2 * p
    return ap


def ap_h1(rule: CMRule, p: int) -> int:
    """Coefficient a_p of the newform of the rule, one prime at a time.

    Split p: solve scale*p = X^2 + D'Y^2 by cornacchia and return
    norm_form_ap. Inert p gives 0. A twist by delta multiplies the result by
    kronecker(delta*, p), delta* the discriminant of Q(sqrt(delta)).
    """
    st = split_type(rule.d_K, p)
    if st == RAMIFIED:
        raise VerificationError("PRECONDITION", f"p = {p} is not unramified")
    if st == INERT:
        return 0
    Dp, scale = norm_form(rule.d_K)
    ap = norm_form_ap(rule.d_K, p, cornacchia(Dp, scale * p))
    if rule.twist is not None:
        ap *= kronecker(twist_discriminant(rule.twist), p)
    return ap


def b_discriminant(model: SurfaceModel) -> Poly:
    """Delta = -b2^2 b8 - 8 b4^3 - 27 b6^2 + 9 b2 b4 b6, with
    b8 = a1^2 a6 + 4 a2 a6 - a1 a3 a4 + a2 a3^2 - a4^2."""
    a1, a2, a3, a4, a6 = model.a1, model.a2, model.a3, model.a4, model.a6
    b2, b4, b6 = b_invariants(model)
    b8 = padd(pmul(pmul(a1, a1), a6), pscale(pmul(a2, a6), 4))
    b8 = psub(b8, pmul(a1, pmul(a3, a4)))
    b8 = padd(b8, pmul(a2, pmul(a3, a3)))
    b8 = psub(b8, pmul(a4, a4))
    delta = pscale(pmul(pmul(b2, b2), b8), -1)
    delta = psub(delta, pscale(ppow(b4, 3), 8))
    delta = psub(delta, pscale(pmul(b6, b6), 27))
    return padd(delta, pscale(pmul(b2, pmul(b4, b6)), 9))


def pvalues_mod(f: Poly, p: int) -> list[int]:
    """[f(t) mod p for t in range(p)], by forward differences.

    The differences of f at t = 0 come from its values at 0 .. deg f; each of
    deg f running sums then turns k-th differences into (k-1)-th ones, so the
    work is deg f integer additions per t and one reduction mod p at the end.
    """
    n = pdeg(f)
    if n < 0:
        return [0] * p
    values = [peval_mod(f, t, p) for t in range(n + 1)]
    diffs = []
    for _ in range(n + 1):
        diffs.append(values[0] % p)
        values = [b - a for a, b in zip(values, values[1:])]
    run = itertools.repeat(diffs[n], max(p - n, 0))
    for d in reversed(diffs[:n]):
        run = itertools.accumulate(run, initial=d)
    return [v % p for v in itertools.islice(run, p)]
