"""Measure two ROADMAP statements about `verify d19`.

1. "The character sum is 1.85 s of 2.80 s in `verify d19 --pmax 600`":
   the traced shares of `verify_surface` spent in `trace_ap`, `count_fiber`,
   the private character sum `ellsurf._charsum_count`, and `good_prime`.
2. "Workers lose at --pmax 600": `atverify.pool_gain_s`, the cold CLI wall
   time with one worker minus that with two, at --pmax 600 and 1000.

Run from the root of a checkout:

    python3 perfbench/claims.py [--repeats 3]

Each traced measurement runs in a fresh interpreter, so caches start cold as
in a CLI run.  Prints one JSON document of medians and samples.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
import tracer
import workloads

SHARE_ARGV = ["verify", "--model", "d19", "--pmax", "600", "--workers", "1"]


def traced_shares() -> dict:
    """One traced `verify d19 --pmax 600` in this interpreter."""
    start = time.perf_counter()
    cli = importlib.import_module("picard20.cli")
    ellsurf = importlib.import_module("picard20.ellsurf")
    import_s = time.perf_counter() - start
    t = tracer.Tracer()
    t.install()
    ellsurf._charsum_count = t.wrap("ellsurf._charsum_count", ellsurf._charsum_count)
    main = t.wrap("cli.main", cli.main)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(SHARE_ARGV)
    if rc != 0:
        raise RuntimeError(f"verify exited {rc}")
    verify_s = t.stats["atverify.verify_surface"][1]
    out = {"import_s": import_s, "cli_main_s": t.stats["cli.main"][1], "verify_surface_s": verify_s}
    for name in ("ellsurf.trace_ap", "ellsurf.count_fiber", "ellsurf._charsum_count", "ellsurf.good_prime"):
        out[f"{name}.s"] = t.stats[name][1]
        out[f"{name}.share"] = t.stats[name][1] / verify_s
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--once", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.once:
        print(json.dumps(traced_shares()))
        return 0

    env = run.child_env()
    samples = []
    for _ in range(args.repeats):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--once"],
            capture_output=True, env=env, cwd=run.ROOT, timeout=170, check=True,
        )
        samples.append(json.loads(done.stdout))
    shares = {k: statistics.median(s[k] for s in samples) for k in samples[0]}

    pool = {}
    for pmax in (600, 1000):
        walls = {1: [], 2: []}
        for i in range(args.repeats):
            for workers in ((1, 2) if i % 2 == 0 else (2, 1)):
                sample = run.invoke(workloads.Verify("d19", pmax, workers=workers), env)
                if sample.outcome.status != workloads.OK:
                    raise RuntimeError(f"verify d19 --pmax {pmax}: {sample.outcome.detail}")
                walls[workers].append(sample.wall)
        pool[f"pmax_{pmax}"] = {
            "wall_1_worker_s": statistics.median(walls[1]),
            "wall_2_workers_s": statistics.median(walls[2]),
            "pool_gain_s": statistics.median(walls[1]) - statistics.median(walls[2]),
            "samples": {str(k): [round(w, 3) for w in v] for k, v in walls.items()},
        }
    print(json.dumps({"environment": run.environment(seed=0), "verify_d19_pmax_600": shares,
                      "pool_gain": pool, "repeats": args.repeats}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
