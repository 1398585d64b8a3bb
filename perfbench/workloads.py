"""Workloads of the picard20 benchmark and the known answers their outputs are checked against.

A workload is a tuple of invocation slots.  Each slot is one `picard20` CLI
invocation at full size, with a token-size twin that pays the same cold
start (interpreter, package import, lazy sympy import, factoring of Delta)
but almost none of the work.

Checks classify every output:

    OK       the result passed every check;
    FAILED   the program ran but gave no usable answer: a nonzero exit, an
             error document, a verify report whose twist search ended in
             `no_match`, or an output that is not a JSON document;
    WRONG    the program gave a result that contradicts a known answer.

FAILED and WRONG both count as failed operations; only WRONG makes the run
incorrect.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace

OK, FAILED, WRONG = "ok", "failed", "wrong"

REGISTRY_MODELS = ("d19", "d27", "d7-tate", "d4", "d3", "d11")

# Every negative discriminant of class number one, non-fundamental ones included.
CLASS_NUMBER_ONE = (-3, -4, -7, -8, -11, -12, -16, -19, -27, -28, -43, -67, -163)
TWO_TORSION_COUNT = 101
TWO_TORSION_LARGEST = 7392

TOKEN_VERIFY_PMAX = 100
TOKEN_CLASSIFY_BOUND = 100
TOKEN_AP_PMAX = 100


def primes_up_to(n: int) -> list[int]:
    """Sieve of Eratosthenes, kept here so that checks do not trust the program."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i, flag in enumerate(sieve) if flag]


def is_squarefree(n: int) -> bool:
    n = abs(n)
    q = 2
    while q * q <= n:
        if n % (q * q) == 0:
            return False
        q += 1
    return True


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def draw_deltas(seed: int) -> tuple[int, int]:
    """Two squarefree twist parameters drawn by the seed, 2 <= |delta| <= 2000.

    The range is split at |delta| = 1000, where the program's twist search
    stops, and one delta is drawn from each side.  Every run thus carries
    one twist the search can reach and one it cannot; an unsplit draw would
    leave the failure share of a run to the luck of a single draw.
    """
    rng = random.Random(seed)
    low = [s * n for n in range(2, 1001) if is_squarefree(n) for s in (1, -1)]
    high = [s * n for n in range(1001, 2001) if is_squarefree(n) for s in (1, -1)]
    return rng.choice(low), rng.choice(high)


@dataclass(frozen=True)
class Outcome:
    status: str
    detail: str = ""


def _parse(rc: int, stdout: bytes):
    """(document, Outcome or None) for one invocation's exit code and output."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None, Outcome(FAILED, f"exit {rc}, output is not JSON")
    if not isinstance(doc, dict):
        return None, Outcome(FAILED, f"exit {rc}, output is not a JSON object")
    if "error" in doc:
        err = doc["error"]
        return None, Outcome(FAILED, f"exit {rc}, error {err.get('code')}: {err.get('message')}")
    if rc != 0:
        return None, Outcome(FAILED, f"exit {rc}")
    return doc, None


@dataclass(frozen=True)
class Verify:
    model: str
    pmax: int
    workers: int = 1
    delta: int = 1
    token_size: bool = False

    def argv(self) -> list[str]:
        out = ["verify", "--model", self.model, "--pmax", str(self.pmax)]
        if self.delta != 1:
            out += ["--delta", str(self.delta)]
        return out + ["--workers", str(self.workers)]

    def token(self) -> "Verify":
        return replace(self, pmax=TOKEN_VERIFY_PMAX, token_size=True)

    def check(self, rc: int, stdout: bytes) -> Outcome:
        doc, bad = _parse(rc, stdout)
        if bad:
            return bad
        nprimes = len(primes_up_to(self.pmax))
        if len(doc.get("rows", ())) != nprimes:
            return Outcome(WRONG, f"{len(doc.get('rows', ()))} rows, expected {nprimes}")
        if self.token_size:
            # A dozen split primes cannot single out a twist among the
            # thousand the search tries, so only the report's form is checked.
            return Outcome(OK)
        if doc.get("twist") == "no_match":
            return Outcome(FAILED, f"twist search ended in no_match for delta {self.delta}")
        if self.delta == 1:
            if doc.get("twist") != "matches_base":
                return Outcome(WRONG, f"twist {doc.get('twist')}, expected matches_base")
        else:
            # For d_K = -4, delta and -delta give the same signs at every split prime.
            if doc.get("twist") != "quadratic_twist" or doc.get("twist_delta") not in (
                self.delta,
                -self.delta,
            ):
                return Outcome(
                    WRONG,
                    f"twist {doc.get('twist')} {doc.get('twist_delta')}, "
                    f"expected quadratic_twist {self.delta}",
                )
        verdicts = doc.get("verdicts")
        if not isinstance(verdicts, dict):
            return Outcome(WRONG, "no verdicts")
        false = sorted(k for k, v in verdicts.items() if v is not True)
        if len(verdicts) != 4 or false:
            return Outcome(WRONG, f"verdicts not all true: {false or verdicts}")
        return Outcome(OK)


@dataclass(frozen=True)
class Classify:
    bound: int
    two_torsion: bool = False

    def argv(self) -> list[str]:
        return ["classify", "--bound", str(self.bound)] + (
            ["--two-torsion"] if self.two_torsion else []
        )

    def token(self) -> "Classify":
        return replace(self, bound=TOKEN_CLASSIFY_BOUND)

    def check(self, rc: int, stdout: bytes) -> Outcome:
        doc, bad = _parse(rc, stdout)
        if bad:
            return bad
        discs = doc.get("discriminants")
        if (
            not isinstance(discs, list)
            or any(not isinstance(d, int) for d in discs)
            or doc.get("count") != len(discs)
        ):
            return Outcome(WRONG, "count does not match a list of integers")
        if discs != sorted(discs, key=abs) or any(not -self.bound <= d < 0 for d in discs):
            return Outcome(WRONG, "list is not sorted by |d| within the bound")
        h1 = [d for d in CLASS_NUMBER_ONE if -d <= self.bound]
        if not self.two_torsion:
            if discs != h1:
                return Outcome(WRONG, f"class-number-one list {discs}, expected {h1}")
            return Outcome(OK)
        # class number one implies a two-torsion class group
        if not set(h1) <= set(discs):
            return Outcome(WRONG, "two-torsion list misses a class-number-one discriminant")
        if self.bound >= TWO_TORSION_LARGEST and (
            len(discs) != TWO_TORSION_COUNT or -discs[-1] != TWO_TORSION_LARGEST
        ):
            return Outcome(
                WRONG,
                f"{len(discs)} two-torsion discriminants up to {-discs[-1]}, "
                f"expected {TWO_TORSION_COUNT} up to {TWO_TORSION_LARGEST}",
            )
        return Outcome(OK)


@dataclass(frozen=True)
class ApStream:
    """The coefficient stream of the weight-3 newform of Q(i), d_K = -4."""

    pmax: int

    def argv(self) -> list[str]:
        return ["ap", "--dK", "-4", "--pmax", str(self.pmax)]

    def token(self) -> "ApStream":
        return replace(self, pmax=TOKEN_AP_PMAX)

    def check(self, rc: int, stdout: bytes) -> Outcome:
        doc, bad = _parse(rc, stdout)
        if bad:
            return bad
        rows = doc.get("rows")
        primes = [p for p in primes_up_to(self.pmax) if p > 3]
        if (
            not isinstance(rows, list)
            or any(not isinstance(r, list) or len(r) != 3 for r in rows)
            or [r[0] for r in rows] != primes
        ):
            return Outcome(WRONG, f"rows are not the {len(primes)} primes 5..pmax")
        for p, kind, ap in rows:
            if p % 4 == 3:
                # the CLI writes null for the zero coefficient at an inert prime
                if kind != "inert" or ap not in (None, 0):
                    return Outcome(WRONG, f"p={p}: expected inert with a_p = 0")
            elif (
                kind != "split"
                or not isinstance(ap, int)
                or ap == 0
                or abs(ap) > 2 * p
                or not is_square(2 * p + ap)
                or (2 * p - ap) % 4
                or not is_square((2 * p - ap) // 4)
            ):
                return Outcome(WRONG, f"p={p}: split row {kind} {ap} fails the square checks")
        return Outcome(OK)


def slots(name: str, seed: int) -> tuple:
    """The invocation slots of workload `name`, with its seeded inputs."""
    if name == "verify-registry":
        delta_low, delta_high = draw_deltas(seed)
        return tuple(Verify(m, 600) for m in REGISTRY_MODELS) + (
            Verify("d4", 600, delta=delta_low),
            Verify("d4", 600, delta=delta_high),
        )
    if name == "verify-deep":
        return (Verify("d19", 1000),)
    if name == "scan":
        return (Classify(30000, two_torsion=True), Classify(30000))
    if name == "ap-stream":
        return (ApStream(1000000),)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify-registry", "verify-deep", "scan", "ap-stream")
