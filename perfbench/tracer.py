"""Traced in-process run of one workload: per-layer spans, from outside the program.

Each public function of a layer is wrapped at every name its callers look it
up by (for example `atverify.trace_ap` and `heckecm.cornacchia`), so the
program's source is untouched.  A span's self time is its duration minus the
time of the spans nested inside it.

Run as a script in a fresh interpreter, with `src` on PYTHONPATH:

    python3 perfbench/tracer.py --workload scan --seed 1 [--plain] [--token]

It runs each slot of the workload once through `picard20.cli.main` and
prints one JSON line.  `--plain` runs the same calls with no wrappers, which
gives the tracing overhead.  Every verify slot runs with one worker, as the
workloads define it: forked pool workers would record their spans in their
own copy of the tracer.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import sys
import time
from collections import Counter

import workloads


def _count_p2(counters, args, result):
    counters["ellsurf.trace_ap.p2"] += args[1] * args[1]


def _count_good(counters, args, result):
    counters["ellsurf.good_prime.pass"] += result is True


def _count_forms(counters, args, result):
    counters["qforms.reduced_forms_up_to.forms"] += sum(len(v) for v in result.values())


def _count_rows(counters, args, result):
    for row in result.rows:
        counters[f"atverify.rows.{row.status}"] += 1


# (span name = defining module.function, modules whose callers look it up, result hook)
WRAPS = (
    ("arith.primes_up_to", ("cli", "atverify", "qforms"), None),
    ("arith.cornacchia", ("heckecm",), None),
    ("qforms.class_number", ("heckecm", "atverify"), None),
    ("qforms.reduced_forms_up_to", ("atverify",), _count_forms),
    ("heckecm.split_type", ("cli", "heckecm"), None),
    ("heckecm.ap_h1", ("cli", "atverify", "heckecm"), None),
    ("heckecm.match_twist", ("atverify",), None),
    ("polys.factor_int_poly", ("ellsurf", "mwheights"), None),
    ("ellsurf.classify_fibers", ("ellsurf", "cli", "mwheights"), None),
    ("ellsurf.good_prime", ("atverify", "ellsurf"), _count_good),
    ("ellsurf.trace_ap", ("atverify", "cli"), _count_p2),
    ("ellsurf.count_fiber", ("ellsurf",), None),
    ("atverify.verify_surface", ("cli",), _count_rows),
    ("atverify.classify_h1", ("cli",), None),
    ("atverify.classify_two_torsion", ("cli",), None),
)


class Tracer:
    """Per-span-name totals: calls, seconds, and seconds spent in nested spans."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        self._open: list[float] = []  # nested-span seconds of each open span

    def wrap(self, name, fn, on_result=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = open_spans.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += nested
                if open_spans:
                    open_spans[-1] += elapsed
            if on_result is not None:
                on_result(counters, args, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every function in WRAPS; return the lookup names not found."""
        missing = []
        for name, callers, hook in WRAPS:
            module_name, attr = name.split(".")
            original = getattr(importlib.import_module(f"picard20.{module_name}"), attr, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self.wrap(name, original, hook)
            for caller in callers:
                module = importlib.import_module(f"picard20.{caller}")
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                else:
                    missing.append(f"{caller}.{attr}")
        return missing


def run(workload: str, seed: int, plain: bool, token: bool) -> dict:
    start = time.perf_counter()
    cli = importlib.import_module("picard20.cli")
    import_s = time.perf_counter() - start

    tracer = Tracer()
    missing = [] if plain else tracer.install()
    main = cli.main if plain else tracer.wrap("cli.main", cli.main)

    outcomes, stdout_bytes, wall = [], 0, 0.0
    for slot in workloads.slots(workload, seed):
        if token:
            slot = slot.token()
        buffer = io.StringIO()
        start = time.perf_counter()
        crash = None
        with contextlib.redirect_stdout(buffer):
            try:
                rc = main(slot.argv())
            except Exception as exc:  # a traceback is a failed operation, not the end of the run
                rc, crash = -1, workloads.Outcome(workloads.FAILED, f"raised {exc!r}")
        wall += time.perf_counter() - start
        out = buffer.getvalue().encode()
        stdout_bytes += len(out)
        outcome = crash or slot.check(rc, out)
        outcomes.append([" ".join(slot.argv()), outcome.status, outcome.detail])
    return {
        "import_s": import_s,
        "wall_s": wall,
        "stdout_bytes": stdout_bytes,
        "stats": tracer.stats,
        "counters": dict(tracer.counters),
        "outcomes": outcomes,
        "unwrapped": missing,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--plain", action="store_true", help="run without wrappers")
    parser.add_argument("--token", action="store_true", help="token-size inputs")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.plain, args.token)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
