"""Benchmark of the picard20 CLI: end-to-end timings of cold invocations, and a traced per-layer run.

Run from the root of a checkout (nothing is installed; `src` goes on
PYTHONPATH):

    python3 perfbench/run.py --workload verify-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all      # every workload, both modes, and a summary table
    python3 perfbench/run.py --smoke

`--trace 0` runs the workload's CLI invocations as cold subprocesses, one at
a time, each full-size invocation followed by its token-size twin, round
after round.  The first round always completes; after it, the run stops
before an invocation that would end past `--seconds`, judged by that
invocation's last duration.  Wall times are scaled by the reference work
run between invocations (see `measure`).  Metrics:

    wall_s       sum over the workload's slots of the median full-size wall time
    setup_s      the same sum over token-size invocations (the cold start)
    peak_rss_mb  peak resident memory of any full-size invocation and its children
    ok_share     share of full-size invocations whose output passed every check,
                 averaged over the slots; 1 - fail_share, which reads 0 when all pass

Each slot at full and at token size is one operation in `attempted`, however
often it ran; it is `failed` when any of its runs failed a check.

`--trace 1` runs the workload once in a fresh interpreter with every layer's
public functions wrapped (see tracer.py), once more without wrappers, and for
verify-deep once more as cold CLI runs with one and with two workers.  It
prints the per-layer metrics; their times are not scaled.

The last line of stdout is the JSON result; the line before it records the
environment, the seed and every sample.  `--all` runs every workload in both
modes and ends with a table of the end-to-end metrics and `fail_share`.
`--smoke` runs every workload once at token size in both modes.  Metric
names and units come from BENCHMARK.json, and a run whose metrics differ
from it fails.  The exit code is nonzero when the program under test is
missing or a smoke check fails.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

# Seconds the reference work takes on this 2-core 2.1 GHz Xeon when it is quiet;
# scaled wall times read as on a machine that fast.
REFERENCE_S = 0.2

# An invocation still running after this long is killed and counts as failed.
INVOCATION_TIMEOUT_S = 120


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = "missing"
    return {
        "python": platform.python_version(),
        "sympy": sympy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit or "unknown (not a git checkout)",
        "seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("P20_THREADS", None)  # the worker cap would change what --workers means
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass(frozen=True)
class Sample:
    slot: int
    token: bool
    wall: float
    rss_mb: float
    outcome: workloads.Outcome


def invoke(slot, env: dict, index: int = 0, token: bool = False) -> Sample:
    """One cold CLI process: wall time, peak RSS of it and its children, checked output."""
    cmd = [sys.executable, "-m", "picard20.cli", *slot.argv()]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    watchdog.start()
    errors = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    outcome = slot.check(proc.returncode, out)
    if outcome.status != workloads.OK and errors[0]:
        tail = errors[0].decode(errors="replace").strip().splitlines()[-1:]
        outcome = replace(outcome, detail=f"{outcome.detail}; stderr: {' '.join(tail)}")
    return Sample(index, token, wall, usage.ru_maxrss / 1024, outcome)


def tally(outcomes) -> tuple[int, int, bool, list[str]]:
    """attempted, failed, correct and the distinct failure details, one outcome per operation."""
    bad = [o for o in outcomes if o.status != workloads.OK]
    correct = all(o.status != workloads.WRONG for o in outcomes)
    return len(outcomes), len(bad), correct, sorted({f"{o.status}: {o.detail}" for o in bad})


def worst(outcomes) -> workloads.Outcome:
    """What an operation run several times counts as: wrong before failed before ok."""
    order = (workloads.WRONG, workloads.FAILED, workloads.OK)
    return min(outcomes, key=lambda o: order.index(o.status))


def reference_s(env: dict) -> float:
    """Wall time of the fixed reference work, run as a subprocess like the CLI."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "reference.py")], env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, check=True, timeout=60)
    return time.perf_counter() - start


def measure(slots: tuple, seconds: float, token_only: bool) -> dict:
    """End-to-end metrics from every slot at full and at token size, for about `seconds`.

    The machine's speed drifts by tens of percent over seconds to minutes
    when its other tenants are busy.  So the reference work runs between
    every two invocations, and each invocation's wall time is scaled by
    REFERENCE_S over the mean of the reference times around it: times read
    as on a machine where the reference takes REFERENCE_S.  Token
    invocations alternate with the full ones, so that a slow spell does not
    fall on all set-up samples at once.
    """
    env = child_env()
    n = len(slots)
    jobs = [(i, True, slot.token()) for i, slot in enumerate(slots)]
    if not token_only:
        jobs = [job for i, slot in enumerate(slots) for job in ((i, False, slot), jobs[i])]
    samples, refs = [], [reference_s(env)]
    cost = {}  # seconds the last run of each job took, its reference included
    start = time.perf_counter()
    while True:
        pos = len(samples) % len(jobs)
        if len(samples) >= len(jobs) and time.perf_counter() - start + cost[pos] > seconds:
            break
        index, token, slot = jobs[pos]
        began = time.perf_counter()
        samples.append(invoke(slot, env, index, token))
        refs.append(reference_s(env))
        cost[pos] = time.perf_counter() - began
    scaled = [
        replace(s, wall=s.wall * REFERENCE_S * 2 / (before + after))
        for s, before, after in zip(samples, refs, refs[1:])
    ]
    setup = [s for s in scaled if s.token]
    measured = [s for s in scaled if not s.token] or setup

    def median_sum(group):
        return sum(statistics.median(s.wall for s in group if s.slot == i) for i in range(n))

    def ok_share(i):
        passed = [s.outcome.status == workloads.OK for s in measured if s.slot == i]
        return sum(passed) / len(passed)

    # Every run is checked, but an operation (a slot at full or at token size)
    # counts once however often it ran, so that attempted and failed depend
    # on the seed alone and not on how many rounds fitted into the time.
    runs = {}
    for s in samples:
        runs.setdefault((s.slot, s.token), []).append(s.outcome)
    attempted, failed, correct, failures = tally([worst(o) for o in runs.values()])
    metrics = {
        "wall_s": median_sum(measured),
        "setup_s": median_sum(setup),
        "peak_rss_mb": max(s.rss_mb for s in measured),
        "ok_share": statistics.mean(ok_share(i) for i in range(n)),
    }
    record = {
        "reference_s": [round(r, 4) for r in refs],
        "slots": [
            {
                "invocation": " ".join(slot.argv()),
                "raw_walls": [round(s.wall, 4) for s in samples if s.slot == i and not s.token],
                "raw_setup_walls": [round(s.wall, 4) for s in samples if s.slot == i and s.token],
                "peak_rss_mb": max(s.rss_mb for s in measured if s.slot == i),
            }
            for i, slot in enumerate(slots)
        ],
        "fail_share": failed / attempted,
        "failures": failures,
    }
    return {"attempted": attempted, "failed": failed, "correct": correct, "metrics": metrics, "record": record}


def run_tracer(workload: str, seed: int, plain: bool, token: bool) -> dict:
    cmd = [sys.executable, str(HERE / "tracer.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--plain"] * plain + ["--token"] * token
    done = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"traced run failed: {done.stderr.decode(errors='replace')[-2000:]}")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def layer_metrics(traced: dict, import_s: float, pool_gain: float, overhead: float) -> dict:
    stats, counters = traced["stats"], traced["counters"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        _, seconds, nested = stats.get(name, [0, 0.0, 0.0])
        return seconds - nested

    def share(part, whole):
        return part / whole if whole else 0.0

    verify_s = total("atverify.verify_surface")
    return {
        "ellsurf.trace_ap.s": total("ellsurf.trace_ap"),
        "ellsurf.trace_ap.calls": calls("ellsurf.trace_ap"),
        "ellsurf.trace_ap.s_per_p2": share(total("ellsurf.trace_ap"), counters.get("ellsurf.trace_ap.p2", 0)),
        "ellsurf.count_fiber.s": total("ellsurf.count_fiber"),
        "ellsurf.count_fiber.calls": calls("ellsurf.count_fiber"),
        "ellsurf.classify_fibers.s": total("ellsurf.classify_fibers"),
        "polys.factor_int_poly.s": total("polys.factor_int_poly"),
        "cli.import_s": import_s,
        "ellsurf.good_prime.s": total("ellsurf.good_prime"),
        "ellsurf.good_prime.calls": calls("ellsurf.good_prime"),
        "ellsurf.good_prime.pass_share": share(
            counters.get("ellsurf.good_prime.pass", 0), calls("ellsurf.good_prime")
        ),
        "heckecm.split_type.s": total("heckecm.split_type"),
        "heckecm.split_type.calls": calls("heckecm.split_type"),
        "heckecm.ap_h1.s": total("heckecm.ap_h1"),
        "heckecm.ap_h1.calls": calls("heckecm.ap_h1"),
        "arith.cornacchia.s": total("arith.cornacchia"),
        "arith.cornacchia.calls": calls("arith.cornacchia"),
        "qforms.class_number.calls": calls("qforms.class_number"),
        "arith.primes_up_to.s": total("arith.primes_up_to"),
        "heckecm.match_twist.s": total("heckecm.match_twist"),
        "qforms.reduced_forms_up_to.s": total("qforms.reduced_forms_up_to"),
        "qforms.reduced_forms_up_to.forms": counters.get("qforms.reduced_forms_up_to.forms", 0),
        "atverify.classify_two_torsion.self_s": self_s("atverify.classify_two_torsion"),
        "atverify.classify_h1.self_s": self_s("atverify.classify_h1"),
        "atverify.verify_surface.s": verify_s,
        "atverify.verify_surface.self_s": self_s("atverify.verify_surface"),
        "atverify.verify_surface.trace_ap_share": share(total("ellsurf.trace_ap"), verify_s),
        "atverify.verify_surface.good_prime_share": share(total("ellsurf.good_prime"), verify_s),
        "atverify.rows.ok": counters.get("atverify.rows.ok", 0),
        "atverify.rows.skipped": counters.get("atverify.rows.skipped", 0),
        "atverify.rows.error": counters.get("atverify.rows.error", 0),
        "atverify.pool_gain_s": pool_gain,
        "cli.self_s": self_s("cli.main"),
        "cli.stdout_bytes": traced["stdout_bytes"],
        "trace.overhead_share": overhead,
    }


def traced(name: str, slots: tuple, seed: int, token_only: bool) -> dict:
    """Per-layer metrics from one traced and one plain in-process run."""
    env = child_env()
    refs = [reference_s(env)]
    traced_run = run_tracer(name, seed, plain=False, token=token_only)
    refs.append(reference_s(env))
    plain_run = run_tracer(name, seed, plain=True, token=token_only)
    refs.append(reference_s(env))
    # each run's wall time over the machine speed measured around it, as in measure()
    overhead = (traced_run["wall_s"] / (refs[0] + refs[1])) / (
        plain_run["wall_s"] / (refs[1] + refs[2])
    ) - 1
    outcomes = [
        workloads.Outcome(status, f"{label}: {detail}")
        for run in (traced_run, plain_run)
        for label, status, detail in run["outcomes"]
    ]
    pool_gain, pool_record = 0.0, {}
    if name == "verify-deep":
        slot = slots[0].token() if token_only else slots[0]
        one = invoke(replace(slot, workers=1), env)
        two = invoke(replace(slot, workers=2), env)
        outcomes += [one.outcome, two.outcome]
        pool_gain = one.wall - two.wall
        pool_record = {"wall_1_worker": one.wall, "wall_2_workers": two.wall}
    attempted, failed, correct, failures = tally(outcomes)
    record = {
        "traced_wall_s": traced_run["wall_s"],
        "plain_wall_s": plain_run["wall_s"],
        "reference_s": refs,
        "pool": pool_record,
        "unwrapped": traced_run["unwrapped"],
        "fail_share": failed / attempted,
        "failures": failures,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "metrics": layer_metrics(traced_run, plain_run["import_s"], pool_gain, overhead),
        "record": record,
    }


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(name: str, seed: int, seconds: float, trace: int, token_only: bool = False) -> dict:
    slots = workloads.slots(name, seed)
    result = traced(name, slots, seed, token_only) if trace else measure(slots, seconds, token_only)
    units = declared_units(trace)
    if set(result["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(units)}")
    result["metrics"] = {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()}
    return result


def report(name: str, seed: int, trace: int, result: dict) -> None:
    record = {"workload": name, "trace": trace, "environment": environment(seed), **result["record"]}
    print(json.dumps(record))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def smoke() -> int:
    """Every workload once at token size, in both modes; every output must be right.

    run_one itself refuses metrics that differ from those BENCHMARK.json declares.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run_one(name, seed=1, seconds=0, trace=trace, token_only=True)
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: wrong output {result['record']['failures']}")
            print(f"{name:16s} trace {trace}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}, {len(result['metrics'])} metrics")
    for problem in problems:
        print("SMOKE FAIL:", problem)
    print(json.dumps({"smoke": "fail" if problems else "pass", "problems": len(problems)}))
    return 1 if problems else 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, then a table of the end-to-end metrics with fail_share."""
    rows = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run_one(name, seed, seconds, trace)
            report(name, seed, trace, result)
            if not trace:
                rows.append((name, result))
    print(f"{'workload':16s} {'wall_s':>8s} {'setup_s':>8s} {'peak_rss_mb':>11s} {'ok_share':>8s} {'fail_share':>10s}")
    for name, result in rows:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"{name:16s} {m['wall_s']:8.3f} {m['setup_s']:8.3f} {m['peak_rss_mb']:11.1f} "
              f"{m['ok_share']:8.3f} {result['record']['fail_share']:10.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="every workload in both modes")
    mode.add_argument("--smoke", action="store_true", help="token-size run of every workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "picard20" / "cli.py").is_file():
        print(f"perfbench: no picard20 sources under {ROOT / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required unless --all or --smoke is given")
    result = run_one(args.workload, args.seed, args.seconds, args.trace)
    report(args.workload, args.seed, args.trace, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
