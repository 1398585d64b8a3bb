"""End-to-end acceptance checks, one printed verdict line each.

Each test computes its own evidence, prints a single [Cnn] PASS/FAIL line
straight to the terminal (bypassing capture), and then asserts.  Reports
produced under timing here are cached and reused by the later property
suites so nothing is measured twice.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

from picard20.arith import is_prime, is_square, kronecker, primes_up_to
from picard20.atverify import verify_surface
from picard20.ellsurf import classify_fibers
from picard20.heckecm import CMRule
from picard20.models import REGISTRY, get_model
from picard20.mwheights import (
    config_from_model,
    contribution,
    height,
    ns_discriminant,
    table_check,
)
from picard20.classgroups import FormClassGroup, lemma_r_check
from picard20.qforms import class_number, fundamental_decomposition
from picard20.scans import classify_h1, classify_two_torsion

from oracles import ap_h1, composition_table, split_type

EXPECTED_H1 = [-3, -4, -7, -8, -11, -12, -16, -19, -27, -28, -43, -67, -163]

_REPORTS: dict = {}


def _verdict(capsys, cid, ok, detail):
    with capsys.disabled():
        print(f"\n[{cid}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{cid} {detail}"


def _cached_report(name, pmax=200):
    key = (name, pmax)
    if key not in _REPORTS:
        _REPORTS[key] = verify_surface(get_model(name), pmax=pmax, workers=1)
    return _REPORTS[key]


def _fiber_tally(model):
    return dict(config_from_model(model).fibers)


def test_c01_class_number_one_scan(capsys):
    t0 = time.perf_counter()
    discs = classify_h1(200)
    dt = time.perf_counter() - t0
    ok = discs == EXPECTED_H1 and dt < 1.0
    _verdict(capsys, "C01", ok, f"h=1 scan to 200: {len(discs)} discriminants in {dt:.3f}s")


def test_c02_two_torsion_scan(capsys):
    t0 = time.perf_counter()
    discs = classify_two_torsion(10000)
    dt = time.perf_counter() - t0
    ok = len(discs) == 101 and discs[-1] == -7392 and dt < 30.0
    _verdict(
        capsys,
        "C02",
        ok,
        f"two-torsion scan to 10000: {len(discs)} discriminants, largest {discs[-1]}, {dt:.2f}s",
    )


def test_c03_d19_traces_and_squares(capsys):
    t0 = time.perf_counter()
    report = _cached_report("d19", 200)
    dt = time.perf_counter() - t0
    failures = []
    rows = [r for r in report["rows"] if r["status"] == "ok"]
    for row in rows:
        if row["ap_geom"] != ap_h1(CMRule(-19), row["p"]):
            failures.append(f"trace mismatch at {row['p']}")
        q, rem = divmod(2 * row["p"] - row["ap_geom"], 19)
        if rem != 0 or not is_square(q):
            failures.append(f"(2p-a_p)/19 not a square at {row['p']}")
    good_split = [
        p
        for p in primes_up_to(200)
        if p > 3 and kronecker(-19, p) == 1
    ]
    if [r["p"] for r in rows] != good_split:
        failures.append("row set is not the good split primes to 200")
    ok = not failures and dt < 60.0
    _verdict(
        capsys,
        "C03",
        ok,
        f"d19 traces vs h=1 stream and (2p-a_p)/19 squares, {len(rows)} primes, "
        f"{dt:.2f}s" + (f"; {failures[:2]}" if failures else ""),
    )


def test_c04_d7_tate_fibers_traces_squares(capsys):
    model = get_model("d7-tate")
    tally = _fiber_tally(model)
    failures = []
    if tally != {"I1": 3, "I7": 3}:
        failures.append(f"fiber tally {tally}")
    report = _cached_report("d7-tate", 200)
    rows = [r for r in report["rows"] if r["status"] == "ok"][:10]
    if len(rows) < 10:
        failures.append("fewer than ten usable split primes")
    for row in rows:
        if row["ap_geom"] != ap_h1(CMRule(-7), row["p"]):
            failures.append(f"trace mismatch at {row['p']}")
        if row["M"] is None:
            failures.append(f"Brauer ratio not a square at {row['p']}")
    ok = not failures
    _verdict(
        capsys,
        "C04",
        ok,
        f"d7-tate fibers I1x3+I7x3, traces and Brauer squares at first "
        f"{len(rows)} split primes" + (f"; {failures[:2]}" if failures else ""),
    )


def test_c05_d27_fibers_height_nsdisc(capsys):
    model = get_model("d27")
    tally = _fiber_tally(model)
    config = config_from_model(model)
    section = model.sections[0]
    h = height(section, model)
    nd = ns_discriminant(config)
    ok = (
        tally == {"I1": 4, "I2": 1, "I9": 2}
        and h == Fraction(3, 2)
        and nd == -27
    )
    _verdict(
        capsys,
        "C05",
        ok,
        f"d27 fibers {tally}, height {h}, NS discriminant {nd}",
    )


def test_c06_torsion_height_vanishes(capsys):
    model = get_model("d7-tate")
    section = model.sections[0]
    places = {F.place: F.kodaira_type for F in classify_fibers(model)}
    corrections = sorted(
        contribution(places[place], index) for place, index in section.component_hits
    )
    h = height(section, model)
    ok = (
        section.torsion_order == 7
        and corrections == [Fraction(6, 7), Fraction(10, 7), Fraction(12, 7)]
        and h == 0
    )
    _verdict(
        capsys,
        "C06",
        ok,
        f"7-torsion section: corrections {[str(c) for c in corrections]}, height {h}",
    )


def test_c07_additive_configurations(capsys):
    tally4 = _fiber_tally(get_model("d4"))
    tally3 = _fiber_tally(get_model("d3"))
    euler = {
        name: config_from_model(get_model(name)).euler_sum for name in ("d4", "d3")
    }
    ok = (
        tally4 == {"III*": 2, "I0*": 1}
        and tally3 == {"II*": 2, "IV": 1}
        and euler == {"d4": 24, "d3": 24}
    )
    _verdict(
        capsys,
        "C07",
        ok,
        f"d4 {tally4} (e={euler['d4']}), d3 {tally3} (e={euler['d3']})",
    )


def test_c08_table_cross_check(capsys):
    out = table_check()
    rows = out["rows"]
    failures = []
    if len(rows) != 13:
        failures.append(f"{len(rows)} rows")
    for row in rows:
        if not row["euler_ok"]:
            failures.append(f"euler at {row['d']}")
        if row["check"] == "exact" and row["status"] == "ok" and row["ns_discriminant"] != row["d"]:
            failures.append(f"ns mismatch at {row['d']}")
    if out["flagged"] != [-3]:
        failures.append(f"flagged {out['flagged']}")
    ok = not failures and out["all_as_expected"]
    _verdict(
        capsys,
        "C08",
        ok,
        f"13-row table: all rows as expected, flagged {out['flagged']}"
        + (f"; {failures[:2]}" if failures else ""),
    )


def test_c09a_group_axioms(capsys):
    t0 = time.perf_counter()
    checked = 0
    for d in range(-3, -501, -1):
        if d % 4 not in (0, 1):
            continue
        group = FormClassGroup(d)
        table = composition_table(group)
        forms = group.reduced_forms
        n = len(forms)
        idx = {f: i for i, f in enumerate(forms)}
        e = idx[group.identity]
        ok_d = all(table[e][j] == j and table[j][e] == j for j in range(n))
        ok_d = ok_d and all(
            any(table[i][j] == e for j in range(n)) for i in range(n)
        )
        ok_d = ok_d and all(
            table[table[i][j]][k] == table[i][table[j][k]]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )
        if not ok_d:
            _verdict(capsys, "C09a", False, f"axioms broken at d={d}")
        checked += 1
    dt = time.perf_counter() - t0
    _verdict(capsys, "C09a", True, f"group axioms for {checked} discriminants to -500, {dt:.1f}s")


def test_c09b_class_numbers_vs_brute(capsys):
    from math import gcd

    def brute(d):
        # independent route: scan b, factor a*c, count reduced pairs
        count = 0
        b = d & 1
        while 3 * b * b <= -d:
            ac = (b * b - d) // 4
            a = max(b, 1)
            while a * a <= ac:
                if ac % a == 0 and gcd(gcd(a, b), ac // a) == 1:
                    count += 1
                    if 0 < b < a < ac // a:
                        count += 1
                a += 1
            b += 2
        return count

    t0 = time.perf_counter()
    bad = [
        d
        for d in range(-3, -2001, -1)
        if d % 4 in (0, 1) and class_number(d) != brute(d)
    ]
    dt = time.perf_counter() - t0
    _verdict(
        capsys,
        "C09b",
        not bad,
        f"class numbers vs independent count to -2000, {dt:.1f}s"
        + (f"; first mismatch {bad[:1]}" if bad else ""),
    )


def test_c09c_coefficient_invariants(capsys):
    failures = []
    for name, model in sorted(REGISTRY.items()):
        d_K = fundamental_decomposition(model.d)[0]
        rule = CMRule(d_K)
        D = rule.D
        for p in primes_up_to(200):
            if p <= 3 or split_type(d_K, p) != "split":
                continue
            ap = ap_h1(rule, p)
            if not (abs(ap) < 2 * p and ap % p != 0):
                failures.append((name, p, "size/unit"))
            if not is_square(2 * p + ap):
                failures.append((name, p, "2p+a_p"))
            q, rem = divmod(2 * p - ap, D)
            if rem != 0 or not is_square(q):
                failures.append((name, p, "2p-a_p"))
            if d_K % 2 == 0 and ap % 2 != 0:
                failures.append((name, p, "parity"))
    _verdict(
        capsys,
        "C09c",
        not failures,
        "coefficient invariants, six models, split p to 200"
        + (f"; {failures[:2]}" if failures else ""),
    )


def test_c09d_representation_stability(capsys):
    t0 = time.perf_counter()
    bad = []
    for d in range(-3, -51, -1):
        if d % 4 not in (0, 1):
            continue
        for r in (2, 3):
            if not lemma_r_check(d, r, 100000)["verdict"]:
                bad.append((d, r))
    dt = time.perf_counter() - t0
    _verdict(
        capsys,
        "C09d",
        not bad,
        f"represented-prime stability, |d| <= 50, r in (2,3), {dt:.1f}s"
        + (f"; {bad[:2]}" if bad else ""),
    )


def test_c09e_principality_on_verified_rows(capsys):
    failures = []
    total = 0
    for name, D in (("d19", 19), ("d7-tate", 7)):
        report = _cached_report(name, 200)
        for row in report["rows"]:
            if row["status"] != "ok":
                continue
            total += 1
            if row["certificate"] is None:
                failures.append((name, row["p"], "missing"))
                continue
            x, y = row["certificate"]
            if x * x + D * y * y != row["p"]:
                failures.append((name, row["p"], "norm"))
    ok = not failures and total >= 20
    _verdict(
        capsys,
        "C09e",
        ok,
        f"principality certificates on {total} verified rows"
        + (f"; {failures[:2]}" if failures else ""),
    )


def test_c10_byte_determinism(capsys):
    cmd = [
        sys.executable,
        "-m",
        "picard20.cli",
        "verify",
        "--model",
        "d19",
        "--pmax",
        "200",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    blob = json.loads(first.stdout)
    ok = (
        first.stdout == second.stdout
        and len(first.stdout) > 0
        and all(blob["verdicts"].values())
    )
    _verdict(
        capsys,
        "C10",
        ok,
        f"verify d19 pmax=200 byte-identical across runs ({len(first.stdout)} bytes)",
    )
