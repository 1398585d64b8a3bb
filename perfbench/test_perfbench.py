"""Tests of the benchmark itself: its checks, its seeded inputs, its tracer and its smoke run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def doc(obj) -> bytes:
    return json.dumps(obj).encode()


def test_smoke_run_passes():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == {"smoke": "pass", "problems": 0}


def test_refuses_to_run_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("seed", range(40))
def test_deltas_cover_both_sides_of_the_search_bound(seed):
    low, high = workloads.draw_deltas(seed)
    assert 2 <= abs(low) <= 1000 < abs(high) <= 2000
    assert workloads.is_squarefree(low) and workloads.is_squarefree(high)
    assert workloads.draw_deltas(seed) == (low, high)


def verify_doc(twist="matches_base", delta=None, pmax=20, verdict=True):
    rows = [{"p": p, "status": "skipped"} for p in workloads.primes_up_to(pmax)]
    verdicts = dict.fromkeys(
        ("hecke_match", "artin_tate_all_square", "principality_all", "N_gcd_bound"), True
    )
    verdicts["hecke_match"] = verdict
    return doc({"rows": rows, "twist": twist, "twist_delta": delta, "verdicts": verdicts})


def test_verify_check():
    base, twisted = workloads.Verify("d19", 20), workloads.Verify("d4", 20, delta=-10)
    assert base.check(0, verify_doc()).status == workloads.OK
    assert twisted.check(0, verify_doc("quadratic_twist", 10)).status == workloads.OK
    assert twisted.check(0, verify_doc("quadratic_twist", 7)).status == workloads.WRONG
    assert twisted.check(0, verify_doc("matches_base")).status == workloads.WRONG
    assert twisted.check(0, verify_doc("no_match", verdict=False)).status == workloads.FAILED
    assert base.check(0, verify_doc(verdict=False)).status == workloads.WRONG
    assert base.check(0, verify_doc(pmax=30)).status == workloads.WRONG
    error = doc({"error": {"code": "PRECONDITION", "message": "x"}})
    assert base.check(1, error).status == workloads.FAILED
    assert base.check(1, b"Traceback").status == workloads.FAILED


def test_classify_check():
    h1 = list(workloads.CLASS_NUMBER_ONE)
    scan = workloads.Classify(30000)
    assert scan.check(0, doc({"count": 13, "discriminants": h1})).status == workloads.OK
    assert scan.check(0, doc({"count": 12, "discriminants": h1[:-1]})).status == workloads.WRONG
    two = workloads.Classify(30000, two_torsion=True)
    fake = h1 + [-d for d in range(200, 200 + 87 * 4, 4)] + [-7392]
    assert len(fake) == 101
    assert two.check(0, doc({"count": 101, "discriminants": fake})).status == workloads.OK
    assert two.check(0, doc({"count": 100, "discriminants": fake[:-1]})).status == workloads.WRONG


def test_ap_check():
    rows = []
    for p in workloads.primes_up_to(30):
        if p <= 3:
            continue
        if p % 4 == 3:
            rows.append([p, "inert", None])
        else:
            x, y = next((x, y) for x in range(1, 6) for y in range(1, 3) if x * x + 4 * y * y == p)
            rows.append([p, "split", 2 * (x * x - 4 * y * y)])
    stream = workloads.ApStream(30)
    assert stream.check(0, doc({"rows": rows})).status == workloads.OK
    bad = [list(r) for r in rows]
    bad[0][2] += 4  # p = 5
    assert stream.check(0, doc({"rows": bad})).status == workloads.WRONG
    assert stream.check(0, doc({"rows": rows[1:]})).status == workloads.WRONG


def test_self_time_excludes_nested_spans():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: sum(range(20000)))

    def outer_body():
        inner()
        inner()
        return sum(range(20000))

    outer = t.wrap("outer", outer_body)
    outer()
    calls, total, nested = t.stats["outer"]
    assert calls == 1 and t.stats["inner"][0] == 2
    assert nested == pytest.approx(t.stats["inner"][1])
    assert 0 < total - nested < total
    assert t.stats["inner"][2] == 0.0


def test_an_operation_counts_once_as_its_worst_run():
    ok, failed, wrong = (workloads.Outcome(s) for s in (workloads.OK, workloads.FAILED, workloads.WRONG))
    assert run.worst([ok, ok]) == ok
    assert run.worst([ok, failed, ok]) == failed
    assert run.worst([failed, wrong, ok]) == wrong
    assert run.tally([run.worst([ok, failed]), run.worst([ok])])[:3] == (2, 1, True)
