"""The verify pipeline of atverify, and the results it rests on: the form
lemma and the class-number scans of qforms, and the table check of mwheights."""

from fractions import Fraction

import pytest

from picard20.atverify import brauer_square, verify_surface, yp_gcd
from picard20.ellsurf import replace, twist_model
from picard20.errors import VerificationError
from picard20.heckecm import CMRule, principality_certificate
from picard20.models import REGISTRY, get_model
from picard20.mwheights import table_check
from picard20.classgroups import FormClassGroup, classify_h1, classify_two_torsion, lemma_r_check
from picard20.qforms import class_number, fundamental_decomposition

H1_DISCRIMINANTS = [-3, -4, -7, -8, -11, -12, -16, -19, -27, -28, -43, -67, -163]


class TestBrauerSquare:
    def test_hand_values(self):
        assert brauer_square(5, -9, -19) == (Fraction(1), 1)
        assert brauer_square(7, -5, -19) == (Fraction(1), 1)
        assert brauer_square(13, -1, -27) == (Fraction(1), 1)
        assert brauer_square(5, -6, -4) == (Fraction(4), 2)

    def test_non_square_keeps_fraction(self):
        M2, M = brauer_square(7, -5, -27)
        assert M2 == Fraction(19, 27) and M is None

    def test_nonpositive_rejected(self):
        with pytest.raises(VerificationError) as err:
            brauer_square(5, 10, -19)
        assert err.value.code == "NEGATIVE"


class TestPrincipality:
    def test_hand_values(self):
        assert principality_certificate(5, -9, 19) == (
            Fraction(1, 2),
            Fraction(1, 2),
        )
        assert principality_certificate(7, -5, 19) == (
            Fraction(3, 2),
            Fraction(1, 2),
        )
        assert principality_certificate(2, -3, 7) == (
            Fraction(1, 2),
            Fraction(1, 2),
        )

    def test_certificate_is_verified_exactly(self):
        x, y = principality_certificate(7, -13, 3)
        assert (x, y) == (Fraction(1, 2), Fraction(3, 2))
        assert x * x + 3 * y * y == 7

    def test_chain_failures(self):
        for p, ap, D in ((5, 1, 19), (5, -2, 1), (11, 4, 7)):
            with pytest.raises(VerificationError) as err:
                principality_certificate(p, ap, D)
            assert err.value.code == "CHAIN_FAILURE"


class TestVerifySurface:
    def test_d19_full_report(self):
        report = verify_surface(get_model("d19"), 200)
        assert report["d"] == -19 and report["dK"] == -19 and report["N"] == 1
        assert report["twist"] == "matches_base"
        assert all(report["verdicts"].values())
        assert report["yp_gcd"] == Fraction(1, 2)
        from picard20.arith import primes_up_to

        assert len(report["rows"]) == len(primes_up_to(200))
        for row in report["rows"]:
            if row["status"] == "ok":
                assert row["match"] and row["M"] is not None
                assert row["certificate"] is not None
                x, y = row["certificate"]
                assert x * x + 19 * y * y == row["p"]

    def test_every_builtin_model_verifies(self):
        for name, model in REGISTRY.items():
            report = verify_surface(model, pmax=80)
            assert report["twist"] == "matches_base", name
            assert all(report["verdicts"].values()), (name, report["verdicts"])

    def test_d27_gcd_sees_the_conductor(self):
        report = verify_surface(get_model("d27"), 150)
        assert report["N"] == 3
        assert report["yp_gcd"] == Fraction(3, 2)
        assert report["verdicts"]["N_gcd_bound"]

    def test_twisted_model_identified_and_verified(self):
        twisted = twist_model(get_model("d4"), 5)
        report = verify_surface(twisted, 150)
        assert report["twist"] == "quadratic_twist"
        assert report["twist_delta"] == 5
        assert all(report["verdicts"].values())

    def test_skipped_rows_keep_reasons(self):
        report = verify_surface(get_model("d19"), 60)
        reasons = {r["reason"] for r in report["rows"] if r["status"] == "skipped"}
        assert "p <= 3 excluded by policy" in reasons
        assert "inert in K" in reasons

    def test_non_effective_model_rejected(self):
        twisted = twist_model(get_model("d19"), 5)
        with pytest.raises(VerificationError) as err:
            verify_surface(twisted, 50)
        assert err.value.code == "PRECONDITION"

    def test_reports_are_deterministic(self):
        assert verify_surface(get_model("d19"), 120) == verify_surface(get_model("d19"), 120)

    def test_worker_pool_matches_serial(self):
        serial = verify_surface(get_model("d11"), pmax=100)
        pooled = verify_surface(get_model("d11"), pmax=100, workers=2)
        assert serial == pooled

    def test_worker_pool_capped_at_cpu_count(self, monkeypatch):
        # a stand-in pool that records its size and maps serially: no process
        # starts; verify_surface imports the pool class only when it uses it
        import concurrent.futures

        import picard20.atverify as atverify

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        serial = verify_surface(get_model("d11"), pmax=60)
        monkeypatch.setattr(atverify.os, "cpu_count", lambda: 2)
        assert verify_surface(get_model("d11"), pmax=60, workers=10**6) == serial
        assert sizes == [2]
        monkeypatch.setattr(atverify.os, "cpu_count", lambda: None)
        assert verify_surface(get_model("d11"), pmax=60, workers=8) == serial
        assert sizes == [2]

    def test_error_rows_keep_their_reason(self):
        # d27's fibers under a d_K = -4 label: some primes fail in the point
        # count, and the rest are ok rows whose certificates fail for D = 1
        report = verify_surface(replace(get_model("d27"), d=-4), 200)
        assert report["twist"] == "no_match"
        errors = [r for r in report["rows"] if r["status"] == "error"]
        assert errors[0]["p"] == 17
        assert errors[0]["reason"] == (
            "COMPONENTS_NOT_RATIONAL: I2 fiber at t=0: node tangents not rational at p=17"
        )
        assert set(errors[0]) == {"p", "status", "reason"}
        ok_rows = [r for r in report["rows"] if r["status"] == "ok"]
        assert ok_rows and all("CHAIN_FAILURE" in r["reason"] for r in ok_rows)


def test_yp_gcd_requires_three_certificates():
    rows = [
        {"p": 5, "status": "ok", "certificate": (Fraction(1, 2), Fraction(1, 2))},
        {"p": 7, "status": "ok", "certificate": (Fraction(3, 2), Fraction(1, 2))},
    ]
    with pytest.raises(VerificationError) as err:
        yp_gcd(rows, CMRule(-19))
    assert err.value.code == "PRECONDITION"


def test_yp_gcd_half_integral_lattice():
    rows = [
        {"p": 0, "status": "ok", "certificate": (Fraction(0), Fraction(3, 2))},
        {"p": 0, "status": "ok", "certificate": (Fraction(0), Fraction(9, 2))},
        {"p": 0, "status": "ok", "certificate": (Fraction(0), Fraction(3))},
    ]
    assert yp_gcd(rows, CMRule(-19)) == Fraction(3, 2)


class TestLemmaR:
    def test_class_number_preserving_pairs(self):
        for d, r in ((-4, 2), (-3, 3), (-7, 2), (-8, 3), (-11, 3), (-19, 5)):
            out = lemma_r_check(d, r, 50000)
            assert out["verdict"], (d, r)
            assert out["sets_equal"] == (out["h_d"] == out["h_dr2"]), (d, r)

    def test_class_number_growing_pairs(self):
        for d, r in ((-4, 3), (-8, 2), (-11, 2), (-19, 2), (-19, 3)):
            out = lemma_r_check(d, r, 50000)
            assert out["verdict"], (d, r)
            assert not out["sets_equal"], (d, r)

    def test_sweep_small_discriminants(self):
        for d in range(-3, -51, -1):
            if d % 4 not in (0, 1):
                continue
            for r in (2, 3):
                out = lemma_r_check(d, r, 100000)
                assert out["verdict"], (d, r)

    def test_bad_inputs_rejected(self):
        with pytest.raises(VerificationError):
            lemma_r_check(-5, 2, 1000)
        with pytest.raises(VerificationError):
            lemma_r_check(-4, 1, 1000)
        with pytest.raises(VerificationError):
            lemma_r_check(-4, 2, 50)


class TestClassify:
    def test_tiny_bound(self):
        assert classify_h1(4) == [-3, -4]

    def test_the_thirteen(self):
        assert classify_h1(200) == H1_DISCRIMINANTS

    def test_no_fourteenth_below_10000(self):
        assert classify_h1(10000) == H1_DISCRIMINANTS

    def test_two_torsion_count(self):
        discs = classify_two_torsion(10000)
        assert len(discs) == 101
        assert discs[-1] == -7392
        assert set(H1_DISCRIMINANTS) <= set(discs)

    def test_two_torsion_against_group_squaring(self):
        # independent route: square every class in the published groups
        discs = classify_two_torsion(10000)
        for d in discs:
            assert FormClassGroup(d).is_two_torsion(), d
        for d in (-23, -31, -39, -47, -108):
            assert d not in discs
            assert not FormClassGroup(d).is_two_torsion()

    def test_scans_agree_with_per_d(self):
        h1 = set(classify_h1(1000))
        two_torsion = set(classify_two_torsion(1000))
        for d in range(-3, -1001, -1):
            if d % 4 in (0, 1):
                assert (d in h1) == (class_number(d) == 1), d
                assert (d in two_torsion) == FormClassGroup(d).is_two_torsion(), d


class TestTableCheck:
    def test_everything_as_expected(self):
        out = table_check()
        assert out["all_as_expected"]
        assert out["flagged"] == [-3]
        assert len(out["rows"]) == 13
        assert [row["d"] for row in out["rows"]] == H1_DISCRIMINANTS

    def test_row_details(self):
        rows = {row["d"]: row for row in table_check()["rows"]}
        for d, row in rows.items():
            assert row["euler_ok"] and row["rank_ok"], d
        assert rows[-27]["ns_discriminant"] == -27
        assert rows[-3]["status"] == "non_integral"
        assert rows[-67]["check"] == "divisibility"
        assert rows[-67]["required_gram_det"] == Fraction(67, 28)


OK_ROW_KEYS = {
    "p", "status", "ap_geom", "ap_hecke", "match", "two_p_minus_ap", "M_squared", "M", "certificate",
}


def test_report_serialization_shape():
    report = verify_surface(get_model("d19"), 60)
    assert set(report) == {
        "model", "d", "dK", "N", "twist", "twist_delta", "rows", "verdicts", "yp_gcd",
    }
    assert report["model"] == "d19" and report["dK"] == -19
    ok = [r for r in report["rows"] if r["status"] == "ok"]
    assert ok[0]["p"] == 5 and ok[0]["certificate"] == (Fraction(1, 2), Fraction(1, 2))
    assert ok[0]["M_squared"] == Fraction(1)
    # the four row shapes: skipped, error, ok, and ok with a failed check
    assert report["rows"][0] == {"p": 2, "status": "skipped", "reason": "p <= 3 excluded by policy"}
    assert set(ok[0]) == OK_ROW_KEYS
    relabelled = verify_surface(replace(get_model("d27"), d=-4), 200)
    by_p = {r["p"]: r for r in relabelled["rows"]}
    assert by_p[17]["status"] == "error"
    assert set(by_p[17]) == {"p", "status", "reason"}
    failed = next(r for r in relabelled["rows"] if r["status"] == "ok")
    assert set(failed) == OK_ROW_KEYS | {"reason"}
    assert failed["certificate"] is None and "CHAIN_FAILURE" in failed["reason"]


def test_fundamental_decomposition_feeds_default_rule():
    # verify_surface derives the field from the model
    report = verify_surface(get_model("d27"), pmax=80)
    assert report["dK"] == -3 and report["N"] == 3
    assert fundamental_decomposition(-27) == (-3, 3)
