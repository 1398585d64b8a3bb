"""Verification pipeline: Artin-Tate squares and principality.

verify_surface ties the geometric traces of a rank-20 model to its CM newform
prime by prime: a_p comparison after twist identification, the Brauer square
(2p - a_p)/|d| = M^2, and the explicit representation p = x^2 + D y^2 that
certifies principal splitting.  That certificate is
heckecm.principality_certificate, the inverse of the a_p that
heckecm.split_stream computes; the stream's per-prime oracle, ap_h1, lives
in tests/oracles.py.  The report of verify_surface is the plain dict that
the CLI prints; no other record of it is kept.
"""

from __future__ import annotations

import functools
import math
import os
from fractions import Fraction
from typing import Optional

from .arith import is_square, kronecker, primes_up_to
from .errors import VerificationError
from .ellsurf import COUNT_LIMIT, SurfaceModel, good_prime, rank20_effective, trace_ap
from .heckecm import CMRule, match_twist, principality_certificate
from .qforms import fundamental_decomposition


# ---------------------------------------------------------------- identities


def brauer_square(p: int, ap: int, d: int) -> tuple[Fraction, Optional[int]]:
    """(M^2, M) from 2p - a_p = M^2 |d|; M only when the square is exact."""
    two_p_minus_ap = 2 * p - ap
    if two_p_minus_ap <= 0:
        raise VerificationError(
            "NEGATIVE", f"2p - a_p = {two_p_minus_ap} <= 0 at p={p}"
        )
    M_squared = Fraction(two_p_minus_ap, abs(d))
    M = None
    if M_squared.denominator == 1 and is_square(M_squared.numerator):
        root = math.isqrt(M_squared.numerator)
        if root > 0:
            M = root
    return M_squared, M


# ---------------------------------------------------------------- verify rows


def _geom_for_prime(model: SurfaceModel, D: int, p: int) -> dict:
    """The row of one prime, all but its comparison with the CM stream; no
    exceptions escape.

    A skipped or error row is {p, status, reason}; an ok row carries its
    trace, Brauer square and certificate, the last three None where their
    check fails, and a reason only then.
    """
    if p <= 3:
        return {"p": p, "status": "skipped", "reason": "p <= 3 excluded by policy"}
    if not good_prime(model, p):
        return {"p": p, "status": "skipped", "reason": "not a good prime"}
    if kronecker(model.d, p) != 1:
        return {"p": p, "status": "skipped", "reason": "inert in K"}
    try:
        ap = trace_ap(model, p)
    except VerificationError as exc:
        return {"p": p, "status": "error", "reason": str(exc)}
    row = {"p": p, "status": "ok", "ap_geom": ap, "two_p_minus_ap": 2 * p - ap}
    row["M_squared"] = row["M"] = row["certificate"] = None
    errors = []
    try:
        row["M_squared"], row["M"] = brauer_square(p, ap, model.d)
    except VerificationError as exc:
        errors.append(str(exc))
    try:
        row["certificate"] = principality_certificate(p, ap, D)
    except VerificationError as exc:
        errors.append(str(exc))
    if errors:
        row["reason"] = "; ".join(errors)
    return row


def verify_surface(
    model: SurfaceModel,
    pmax: int = 200,
    workers: Optional[int] = None,
) -> dict:
    """Per-prime verification report for a rank-20-over-Q model up to pmax.

    The report is the document that `verify` prints: model, d, dK, N, twist,
    twist_delta, one row per prime below pmax, verdicts and yp_gcd.  Bad and
    inert primes appear as skipped rows; per-prime failures are recorded in
    their row, never abort the batch, and leave every verdict false.
    ellsurf.rank20_effective decides rank 20 over Q, and its one call
    refuses, before any point is counted, a model that does not claim it, a
    twist that loses it and a false claim whose lattice ranks do not sum to
    20.
    """
    if not rank20_effective(model):
        raise VerificationError(
            "PRECONDITION", f"{model.name} is not effectively of rank 20 over Q"
        )
    if pmax > COUNT_LIMIT:
        raise VerificationError("PRECONDITION", f"pmax={pmax} exceeds the count limit {COUNT_LIMIT}")
    d_K, N = fundamental_decomposition(model.d)
    rule = CMRule(d_K)
    primes = primes_up_to(pmax)
    # the fork start method launches every worker on the first submit
    workers = min(workers or 1, os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool machinery costs every other run its import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(functools.partial(_geom_for_prime, model, rule.D), primes))
    else:
        rows = [_geom_for_prime(model, rule.D, p) for p in primes]

    ok_rows = [r for r in rows if r["status"] == "ok"]
    verdict = match_twist([(r["p"], r["ap_geom"]) for r in ok_rows], rule)
    for row in ok_rows:
        # cubic_class has no expected stream, so the data is compared with
        # itself: a circular verdict (ROADMAP item 2)
        ap = row["ap_geom"]
        row["ap_hecke"] = ap if verdict.expected is None else verdict.expected[row["p"]]
        row["match"] = ap == row["ap_hecke"]

    with_cert = [r for r in ok_rows if r["certificate"] is not None]
    gcd_value = yp_gcd(with_cert, rule) if len(with_cert) >= 3 else None
    # a verdict is earned only when no row is an error: an error row is a
    # good split prime whose trace was refused
    earned = all(r["status"] != "error" for r in rows)
    # match_twist refuses fewer than five split rows, so ok_rows is never empty
    verdicts = {
        "hecke_match": earned and verdict.kind != "no_match" and all(r["match"] for r in ok_rows),
        "artin_tate_all_square": earned and all(r["M"] is not None for r in ok_rows),
        "principality_all": earned and all(r["certificate"] is not None for r in ok_rows),
        "N_gcd_bound": earned and gcd_value is not None
        and _divides_in_lattice(N, gcd_value, d_K),
    }
    return {
        "model": model.name,
        "d": model.d,
        "dK": d_K,
        "N": N,
        "twist": verdict.kind,
        "twist_delta": verdict.delta,
        "rows": rows,
        "verdicts": verdicts,
        "yp_gcd": gcd_value,
    }


def _divides_in_lattice(N: int, g: Fraction, d_K: int) -> bool:
    # divisibility in (1/2)N for odd d_K, in N for even d_K
    if g <= 0:
        return False
    q = g / N
    return (2 * q).denominator == 1 if d_K % 2 else q.denominator == 1


def yp_gcd(rows, rule: CMRule) -> Fraction:
    """gcd of the certificate y_p values, in the lattice matching d_K's parity."""
    ys = [r["certificate"][1] for r in rows if r["status"] == "ok" and r["certificate"]]
    if len(ys) < 3:
        raise VerificationError(
            "PRECONDITION", f"need at least 3 certified rows, got {len(ys)}"
        )
    halves = []
    for y in ys:
        doubled = 2 * y
        if doubled.denominator != 1:
            raise VerificationError("PRECONDITION", f"y_p = {y} is not half-integral")
        halves.append(doubled.numerator)
    g = Fraction(math.gcd(*halves), 2)
    if rule.d_K % 2 == 0 and g.denominator != 1:
        raise VerificationError(
            "PRECONDITION", f"gcd {g} is not integral although d_K = {rule.d_K} is even"
        )
    return g
