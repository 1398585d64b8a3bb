"""CLI surface: output shapes, exit codes, and byte determinism."""

import enum
import json
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picard20 import cli
from picard20.cli import main
from picard20.errors import VerificationError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestClassgroup:
    def test_known_group(self, capsys):
        code, blob = run_cli(capsys, "classgroup", "-d", "-84")
        assert code == 0
        assert blob["class_number"] == 4
        assert blob["elementary_divisors"] == [2, 2]
        assert blob["two_torsion"] is True
        assert blob["ambiguous_classes"] == 4
        assert len(blob["forms"]) == 4
        assert [1, 0, 21] in blob["forms"]

    def test_invalid_discriminant(self, capsys):
        code, blob = run_cli(capsys, "classgroup", "-d", "-5")
        assert code == 1
        assert blob["error"]["code"] == "PRECONDITION"


class TestClassify:
    def test_h1_bound_200(self, capsys):
        code, blob = run_cli(capsys, "classify", "--bound", "200")
        assert code == 0
        assert blob["count"] == 13
        assert blob["discriminants"][0] == -3
        assert blob["discriminants"][-1] == -163

    def test_two_torsion_carries_note(self, capsys):
        code, blob = run_cli(capsys, "classify", "--bound", "300", "--two-torsion")
        assert code == 0
        assert -120 in blob["discriminants"]
        assert "note" in blob

    def test_both_scans_at_the_bound_cap(self, capsys):
        code, blob = run_cli(capsys, "classify", "--bound", "1000000")
        assert code == 0
        assert blob["kind"] == "class_number_one"
        assert blob["count"] == len(blob["discriminants"]) == 13
        assert blob["discriminants"][-1] == -163
        code, blob = run_cli(capsys, "classify", "--bound", "1000000", "--two-torsion")
        assert code == 0
        assert blob["kind"] == "two_torsion"
        assert blob["count"] == len(blob["discriminants"]) == 101
        assert blob["discriminants"][-1] == min(blob["discriminants"]) == -7392
        assert blob["note"] == cli._TWO_TORSION_NOTE

    @pytest.mark.parametrize("flags", [[], ["--two-torsion"]])
    def test_bound_out_of_range(self, capsys, flags):
        for bound in ("-5", "1000001"):
            code, blob = run_cli(capsys, "classify", "--bound", bound, *flags)
            assert code == 1
            assert blob["error"]["code"] == "PRECONDITION"

    @pytest.mark.parametrize("flags", [[], ["--two-torsion"]])
    def test_bound_below_smallest_discriminant(self, capsys, flags):
        code, blob = run_cli(capsys, "classify", "--bound", "2", *flags)
        assert code == 0
        assert blob["count"] == 0 and blob["discriminants"] == []


class TestAp:
    def test_twist_scales_base_rows(self, capsys):
        from picard20.arith import kronecker

        code, base = run_cli(capsys, "ap", "--dK", "-4", "--pmax", "30")
        code2, twisted = run_cli(capsys, "ap", "--dK", "-4", "--pmax", "30", "--twist", "5")
        assert (code, code2) == (0, 0)
        assert twisted["twist"] == 5
        want = [
            [p, kind, None if ap is None else ap * kronecker(20, p)]
            for p, kind, ap in base["rows"]
        ]
        assert twisted["rows"] == want != base["rows"]

    def test_class_number_checked_before_any_prime(self, capsys):
        # no prime up to 5 splits in Q(sqrt(-5)), yet the field is refused
        code, blob = run_cli(capsys, "ap", "--dK", "-20", "--pmax", "5")
        assert code == 1
        assert blob["error"] == {
            "code": "PRECONDITION",
            "message": "class number of -20 is not one",
        }

    def test_pmax_above_the_ap_limit(self, capsys):
        # refused before the primes up to pmax are sieved
        code, blob = run_cli(capsys, "ap", "--dK", "-4", "--pmax", "10000001")
        assert code == 1
        assert blob["error"] == {
            "code": "PRECONDITION",
            "message": "pmax=10000001 exceeds the ap limit 10000000",
        }

    @pytest.mark.parametrize("pmax", [-5, 0, 1, 4, 5])
    def test_pmax_below_the_first_row(self, capsys, pmax):
        # 2 and 3 never get a row, so 5 is the first prime that does
        code, blob = run_cli(capsys, "ap", "--dK", "-4", "--pmax", str(pmax))
        assert code == 0
        rows = [[5, "split", -6]] if pmax >= 5 else []
        assert blob == {"dK": -4, "twist": 1, "pmax": pmax, "rows": rows}

    def test_sieved_primes_are_not_proved_again(self, capsys, monkeypatch):
        # the sieve is the only primality proof on the CM stream
        import picard20.arith
        import picard20.ellsurf
        import picard20.heckecm
        import picard20.polys

        calls = []
        is_prime = picard20.arith.is_prime

        def counted(n):
            calls.append(n)
            return is_prime(n)

        for module in (picard20.heckecm, picard20.ellsurf, picard20.polys, picard20.arith):
            monkeypatch.setattr(module, "is_prime", counted, raising=False)
        code, blob = run_cli(capsys, "ap", "--dK", "-4", "--pmax", "100000")
        assert code == 0 and len(blob["rows"]) == 9590
        assert calls == []

    def test_stream_is_walked_not_solved(self, capsys, monkeypatch):
        # cornacchia is the per-prime oracle of the stream, never on the CLI path
        import picard20.arith
        import picard20.heckecm

        calls = []
        cornacchia = picard20.arith.cornacchia

        def counted(D, m):
            calls.append(m)
            return cornacchia(D, m)

        for module in (picard20.heckecm, picard20.arith, cli):
            monkeypatch.setattr(module, "cornacchia", counted, raising=False)
        code, blob = run_cli(capsys, "ap", "--dK", "-4", "--pmax", "100000")
        assert code == 0 and len(blob["rows"]) == 9590
        assert calls == []

    @pytest.mark.parametrize("twist", ["1", "-3"])
    def test_split_prime_missing_from_the_stream(self, capsys, monkeypatch, twist):
        # the Kronecker symbol and the norm-form walk check each other
        import picard20.heckecm

        split_stream = picard20.heckecm.split_stream

        def without_13_and_17(d_K, pmax, flags=None):
            stream = split_stream(d_K, pmax, flags)
            del stream[13], stream[17]
            return stream

        # the error names the first missing prime, so the primes come in order
        monkeypatch.setattr(picard20.heckecm, "split_stream", without_13_and_17)
        code, blob = run_cli(capsys, "ap", "--dK", "-4", "--pmax", "100", "--twist", twist)
        assert code == 1
        assert blob["error"] == {
            "code": "NO_REPRESENTATION",
            "message": "13 = x^2 + 4y^2 has no solution",
        }

    def test_twist_must_be_squarefree(self, capsys):
        code, blob = run_cli(capsys, "ap", "--dK", "-4", "--pmax", "30", "--twist", "4")
        assert code == 1
        assert blob["error"] == {
            "code": "PRECONDITION",
            "message": "twist 4 is not squarefree",
        }


class TestCount:
    def test_d19_at_5(self, capsys):
        code, blob = run_cli(capsys, "count", "--model", "d19", "--p", "5")
        assert code == 0
        assert blob["surface_count"] == 117
        assert blob["trace_ap"] == -9

    @pytest.mark.parametrize("p", [19, 1, 0, -7])
    def test_bad_prime_is_an_error(self, capsys, p):
        code, blob = run_cli(capsys, "count", "--model", "d19", "--p", str(p))
        assert code == 1
        assert blob["error"] == {
            "code": "PRECONDITION",
            "message": f"p={p} is not a good prime for d19",
        }

    def test_prime_above_the_count_limit(self, capsys):
        # refused before the p-entry character table is built
        code, blob = run_cli(capsys, "count", "--model", "d19", "--p", "1000003")
        assert code == 1
        assert blob["error"] == {
            "code": "PRECONDITION",
            "message": "p=1000003 exceeds the count limit 10000",
        }

    def test_inert_prime_counts_without_trace(self, capsys):
        code, blob = run_cli(capsys, "count", "--model", "d4", "--p", "7")
        assert code == 0
        assert blob["surface_count"] == 190
        assert blob["trace_ap"] is None

    def test_surface_counted_once(self, capsys, monkeypatch):
        import picard20.ellsurf

        calls = []
        original = picard20.ellsurf.surface_count

        def counted(model, p):
            calls.append(p)
            return original(model, p)

        monkeypatch.setattr(picard20.ellsurf, "surface_count", counted)
        # split at 11 (a trace), inert at 13 (no trace)
        for p, traced in ((11, True), (13, False)):
            calls.clear()
            code, blob = run_cli(capsys, "count", "--model", "d19", "--p", str(p))
            assert code == 0
            assert (blob["trace_ap"] is not None) == traced
            assert calls == [p]


class TestFibers:
    def test_d27_table(self, capsys):
        code, blob = run_cli(capsys, "fibers", "--model", "d27")
        assert code == 0
        # conjugate places stay grouped, so tally geometric fibers by degree
        tally: dict[str, int] = {}
        for row in blob["fibers"]:
            tally[row["type"]] = tally.get(row["type"], 0) + row["degree"]
        assert tally == {"I1": 4, "I2": 1, "I9": 2}
        assert blob["euler_total"] == 24

    def test_d3_additive_table(self, capsys):
        code, blob = run_cli(capsys, "fibers", "--model", "d3")
        assert code == 0
        types = sorted(row["type"] for row in blob["fibers"])
        assert types == ["II*", "II*", "IV"]
        assert blob["euler_total"] == 24


class TestHeight:
    def test_free_section_height(self, capsys):
        code, blob = run_cli(capsys, "height", "--model", "d27", "--section", "0")
        assert code == 0
        assert blob["height"] == "3/2"
        assert blob["pole_order"] == 0
        assert blob["torsion_order"] == 0
        assert ["t=0", 1, "1/2"] in blob["corrections"]

    def test_torsion_corrections(self, capsys):
        code, blob = run_cli(capsys, "height", "--model", "d7-tate", "--section", "0")
        assert code == 0
        assert blob["height"] == "0"
        assert blob["torsion_order"] == 7
        contribs = sorted(c[2] for c in blob["corrections"])
        assert contribs == ["10/7", "12/7", "6/7"]

    def test_out_of_range_index(self, capsys):
        code, blob = run_cli(capsys, "height", "--model", "d27", "--section", "5")
        assert code == 1
        assert blob["error"]["code"] == "PRECONDITION"

    def test_hit_at_a_place_without_reducible_fiber(self, capsys, tmp_path):
        from picard20.ellsurf import model_to_json
        from picard20.models import get_model

        obj = model_to_json(get_model("d4"))
        obj["sections"][0]["component_hits"] = [["t=5", 1]]
        path = tmp_path / "d4_hit_t5.json"
        path.write_text(json.dumps(obj))
        code, blob = run_cli(capsys, "height", "--model", str(path), "--section", "0")
        assert code == 1
        assert blob["error"] == {
            "code": "PRECONDITION",
            "message": "component hit at t=5, which carries no reducible fiber",
        }


class TestNsdisc:
    def test_d27(self, capsys):
        code, blob = run_cli(capsys, "nsdisc", "--model", "d27")
        assert code == 0
        assert blob["ns_discriminant"] == -27

    def test_twist_preserves_geometric_invariant(self, capsys, tmp_path):
        # a quadratic twist is a Q-form of the same surface
        from picard20.ellsurf import model_to_json, twist_model
        from picard20.models import get_model

        path = tmp_path / "d19_twist.json"
        path.write_text(json.dumps(model_to_json(twist_model(get_model("d19"), 5))))
        code, blob = run_cli(capsys, "nsdisc", "--model", str(path))
        assert code == 0
        assert blob["ns_discriminant"] == -19


class TestVerify:
    def test_verdict_block(self, capsys):
        code, blob = run_cli(capsys, "verify", "--model", "d19", "--pmax", "100")
        assert code == 0
        assert blob["twist"] == "matches_base"
        assert all(blob["verdicts"].values())
        assert blob["yp_gcd"] == "1/2"

    def test_fractions_render_as_strings(self, capsys):
        code, blob = run_cli(capsys, "verify", "--model", "d19", "--pmax", "60")
        assert code == 0
        ok = [r for r in blob["rows"] if r["status"] == "ok"]
        assert ok[0]["p"] == 5 and ok[0]["certificate"] == ["1/2", "1/2"]
        assert ok[0]["M_squared"] == "1"

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(
            ["verify", "--model", "d19", "--pmax", "60", "--out", str(out_path)]
        )
        stdout = capsys.readouterr().out
        assert code == 0
        assert out_path.read_bytes() == stdout.encode()

    @pytest.mark.parametrize(
        "where, why",
        [("missing/report.json", "No such file or directory"), ("", "Is a directory")],
        ids=["missing-directory", "directory"],
    )
    def test_unwritable_out_is_a_precondition(self, capsys, tmp_path, where, why):
        # stdout holds the error document alone, not the report before it
        out_path = tmp_path / where
        code, blob = run_cli(
            capsys, "verify", "--model", "d19", "--pmax", "60", "--out", str(out_path)
        )
        assert code == 1
        assert blob["error"] == {
            "code": "PRECONDITION",
            "message": f"cannot write {out_path}: {why}",
        }

    def test_pmax_above_the_count_limit(self, capsys):
        # refused before the primes up to pmax are sieved
        code, blob = run_cli(capsys, "verify", "--model", "d19", "--pmax", "1000000000")
        assert code == 1
        assert blob["error"] == {
            "code": "PRECONDITION",
            "message": "pmax=1000000000 exceeds the count limit 10000",
        }


class TestModelLoading:
    def test_model_from_file(self, capsys, tmp_path):
        code, blob = run_cli(capsys, "fibers", "--model", "d4")
        path = tmp_path / "exported.json"
        from picard20.ellsurf import model_to_json
        from picard20.models import get_model

        path.write_text(json.dumps(model_to_json(get_model("d4"))))
        code2, blob2 = run_cli(capsys, "fibers", "--model", str(path))
        assert (code, code2) == (0, 0)
        assert blob == blob2

    def test_unknown_model(self, capsys):
        code, blob = run_cli(capsys, "count", "--model", "d99", "--p", "5")
        assert code == 1
        assert blob["error"]["code"] == "UNKNOWN_MODEL"

    def test_missing_file(self, capsys, tmp_path):
        code, blob = run_cli(capsys, "fibers", "--model", str(tmp_path / "none.json"))
        assert code == 1
        assert blob["error"]["code"] == "UNKNOWN_MODEL"

    def test_malformed_files_end_in_an_error_document(self, capsys, tmp_path):
        from picard20.ellsurf import model_to_json
        from picard20.models import get_model

        def with_edit(name, path, value):
            obj = model_to_json(get_model(name))
            *keys, last = path
            target = obj
            for key in keys:
                target = target[key]
            target[last] = value
            return json.dumps(obj)

        cases = {
            "no_a": json.dumps({"name": "x"}),
            "list": "[1, 2]",
            "not_json": "d19 =",
            "a_string": json.dumps({"name": "x", "a": "x", "d": -4}),
            "torsion": with_edit("d27", ("sections", 0, "torsion_order"), "z"),
            "bool_coefficient": with_edit("d4", ("a", "a4", 3), True),
            "d_string": with_edit("d19", ("d",), "-19"),
            "d_positive": with_edit("d19", ("d",), 5),
            "twist_square": with_edit("d4", ("twist_by",), 4),
            "torsion_negative": with_edit("d27", ("sections", 0, "torsion_order"), -1),
        }
        messages = {
            "d_positive": "declared discriminant must be a negative integer",
            "twist_square": "twist_by must be squarefree and nonzero",
            "torsion_negative": "negative torsion order",
        }
        for label, text in cases.items():
            path = tmp_path / f"{label}.json"
            path.write_text(text)
            code, blob = run_cli(capsys, "fibers", "--model", str(path))
            assert code == 1, label
            assert blob["error"]["code"] == "PRECONDITION", label
            if label in messages:
                assert blob["error"]["message"] == messages[label], label

    def test_model_claiming_rank_20_without_it(self, capsys, monkeypatch, tmp_path):
        # y^2 = x^3 + t^7 + 1: II at t = -1 and at the degree-6 place, II* at
        # t = oo, so the lattice ranks sum to 10
        from picard20.arith import kronecker, primes_up_to
        from picard20.ellsurf import good_prime, model_from_json, trace_ap

        obj = {
            "name": "x7",
            "d": -3,
            "rank20_over_Q": True,
            "a": {"a1": [], "a2": [], "a3": [], "a4": [], "a6": [1, 0, 0, 0, 0, 0, 0, 1]},
        }
        path = tmp_path / "x7.json"
        path.write_text(json.dumps(obj))
        code, blob = run_cli(capsys, "fibers", "--model", str(path))
        assert code == 0
        assert [(row["type"], row["degree"]) for row in blob["fibers"]] == [
            ("II", 1),
            ("II", 6),
            ("II*", 1),
        ]
        code, blob = run_cli(capsys, "nsdisc", "--model", str(path))
        assert code == 1
        assert blob["error"] == {
            "code": "PRECONDITION",
            "message": "lattice ranks of x7 sum to 10, not 20",
        }
        # verify refuses the claim up front, as nsdisc does, and counts no point
        with monkeypatch.context() as m:
            m.setattr("picard20.atverify.trace_ap", lambda *args: pytest.fail("counted"))
            code, blob = run_cli(capsys, "verify", "--model", str(path), "--pmax", "200")
        assert code == 1
        assert blob["error"] == {
            "code": "PRECONDITION",
            "message": "lattice ranks of x7 sum to 10, not 20",
        }
        # trace_ap refuses the claim at every good split prime, before it counts
        model = model_from_json(obj)
        split = [
            p for p in primes_up_to(200)
            if p > 3 and good_prime(model, p) and kronecker(model.d, p) == 1
        ]
        assert split[0] == 13
        for p in split:
            with pytest.raises(VerificationError, match="^PRECONDITION: lattice ranks of x7 sum to 10, not 20$"):
                trace_ap(model, p)

    def test_nsdisc_refuses_a_model_without_rank_20(self, capsys, tmp_path):
        # the same y^2 = x^3 + t^7 + 1 with no rank-20 claim: its fibers and
        # zero section span a rank-10 sublattice, whose discriminant -1 is not
        # that of NS
        obj = {
            "name": "x7",
            "d": -3,
            "a": {"a1": [], "a2": [], "a3": [], "a4": [], "a6": [1, 0, 0, 0, 0, 0, 0, 1]},
        }
        path = tmp_path / "x7.json"
        path.write_text(json.dumps(obj))
        code, blob = run_cli(capsys, "nsdisc", "--model", str(path))
        assert code == 1
        assert blob["error"] == {
            "code": "PRECONDITION",
            "message": "lattice ranks sum to 10, not 20",
        }

    def test_count_refuses_a_false_claim_before_any_table(self, capsys, monkeypatch, tmp_path):
        # y^2 = x^3 - t^3 x^2 - t^3 (t-1)^2 x: I4 at t = 1, III* at t = 0, I1 at a
        # cubic place and I2* at t = oo, so the lattice ranks sum to 18
        from picard20.ellsurf import count_fiber, model_from_json, surface_count, trace_ap

        obj = {
            "name": "r18",
            "d": -4,
            "rank20_over_Q": True,
            "a": {"a1": [], "a2": [0, 0, 0, -1], "a3": [], "a4": [0, 0, 0, -1, 2, -1], "a6": []},
        }
        path = tmp_path / "r18.json"
        path.write_text(json.dumps(obj))
        refusal = ("PRECONDITION", "lattice ranks of r18 sum to 18, not 20")
        model = model_from_json(obj)
        with monkeypatch.context() as m:
            m.setattr("picard20.ellsurf._cubic_sum_table", lambda *args: pytest.fail("tabled"))
            code, blob = run_cli(capsys, "count", "--model", str(path), "--p", "13")
            assert code == 1
            assert blob["error"] == dict(zip(("code", "message"), refusal))
            for count in (trace_ap, surface_count, lambda m, p: count_fiber(m, p, 1)):
                with pytest.raises(VerificationError) as exc:
                    count(model, 13)
                assert (exc.value.code, exc.value.message) == refusal

class TestArgparseContract:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["classify"])
        assert exc.value.code == 2

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def test_list_models(capsys):
    code, blob = run_cli(capsys, "list-models")
    assert code == 0
    names = [row["name"] for row in blob["models"]]
    assert names == sorted(names)
    assert {"d19", "d27", "d7-tate", "d4", "d3", "d11"} <= set(names)


def test_table_check_command(capsys):
    code, blob = run_cli(capsys, "table-check")
    assert code == 0
    assert blob["all_as_expected"] is True
    assert blob["flagged"] == [-3]


@pytest.mark.parametrize(
    "argv",
    [
        ["classgroup", "-d", "-1000000007"],
        ["ap", "--dK", "-1000000007", "--pmax", "10"],
        ["lemma-r", "-d", "-4", "-r", "100000"],  # through d r^2 = -4 * 10^10
    ],
)
def test_class_group_limit(capsys, argv):
    # the reduced-form walk is refused above |d| = 10^9 instead of running for minutes
    code, blob = run_cli(capsys, *argv)
    assert code == 1
    assert blob["error"]["code"] == "PRECONDITION"
    assert "the class-group limit" in blob["error"]["message"]
    assert "1000000000" in blob["error"]["message"]


def test_lemma_r_command(capsys):
    code, blob = run_cli(capsys, "lemma-r", "-d", "-4", "-r", "2", "--bound", "10000")
    assert code == 0
    assert blob["verdict"] is True


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) >= 2**53 else obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def oracle_text(obj) -> str:
    """The serializer the renderer replaced: a converted copy, then json.dumps."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2)


class _Level(enum.IntEnum):
    LOW = 3


class _Name(str):
    pass


class _Row(NamedTuple):
    p: int
    kind: str
    ap: int | None


# lists of exact tuples of one length, each column exact str or exact int
# under 2^53 with None allowed: _table renders each as one % format
TABLE_CASES = [
    [(5, "split", -6), (7, "inert", None), (3, "ramified", None)],
    [(2**53 - 1, "under"), (1 - 2**53, "minus_under"), (0, "")],
    [(5, None), (7, None)],
    [(5, "split", -6)],
    [(None,), (1,)],
    # cells are substituted into the template, never parsed as formats
    [("%", 1), ("%s", 2), ("%%", 3), ("%(x)s", 4), ("%d%", 5)],
    [("Néron–Severi \u2603 \U0001f600",), ('tab\t "quoted" back\\slash\n\x00',), ("",)],
    [(3, "split"), (5, "split"), (7, "split"), (11, "split")],
    [(0,), (None,), (2**53 - 1,), (1 - 2**53,), (None,), (0,)],
]

# lists of tuples that _table leaves to the per-item path
NOT_TABLES = [
    [(2**53 - 1, "a"), (2**53, "b")],
    [(1 - 2**53,), (-(2**53),)],
    [(1, "a"), (True, "b")],
    [("a", 1), (_Name("b"), 2)],
    [(1, 2), (3,)],
    [(1,), (2, 3)],
    [(), ()],
    [(1, 2), [3, 4]],
    [(1, (2, 3)), (4, (5,))],
    [(Fraction(1, 2), 1), (0.5, 2)],
]

RENDER_CASES = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": [[], {}, [[]]], "d": {"e": {"f": []}}},
    [[], {}, [{}], [[[]]]],
    [2**53 - 1, -(2**53 - 1), 2**53, -(2**53), 2**60, 0],
    {"under": 2**53 - 1, "at": 2**53, "minus_at": -(2**53), "minus_under": 1 - 2**53},
    [True, 1, False, 0, [True], {"t": True, "one": 1, "f": False, "zero": 0}],
    {"none": None, "x": [None, Fraction(3, 4), Fraction(-7), Fraction(0)]},
    (1, (2, (3,)), [(4, 5)], {"t": (6,)}),
    {10: "ten", 9: "nine", -1: "minus", 2**53: "big", 0: ()},
    {False: "f", 2: "two"},
    {None: "null key"},
    ["Néron–Severi", "\u2603", "tab\t", "new\nline", '"quoted"', "back\\slash", "\x00", ""],
    {"ümlaut": "ü", "snowman\u2603": ["\U0001f600"]},
    [0.5, -1e300, {"h": 1.25}],
    {"nested": {"deep": [{"x": [Fraction(1, 3), 2**53, True, None, "s"]}]}},
    # items whose exact type is not a scalar's take the isinstance chain
    [(5, _Level.LOW, True, _Name("split"), False)],
    [_Row(5, "split", -6), _Row(7, "inert", None)],
    (2**53 - 1, -(2**53 - 1), 2**53, -(2**53)),
    [1, None, 2, None, None, 3],
    *TABLE_CASES,
    *NOT_TABLES,
    {"rows": TABLE_CASES[0], "dK": -4, "empty": [(), ()]},
]


def test_tables_take_the_table_path_and_the_rest_do_not():
    assert all(cli._table(rows, "") is not None for rows in TABLE_CASES)
    assert all(cli._table(rows, "") is None for rows in NOT_TABLES)


@pytest.mark.parametrize("obj", RENDER_CASES, ids=range(len(RENDER_CASES)))
def test_render_matches_the_json_oracle(obj):
    assert cli._render(obj) == oracle_text(obj)


def test_render_refuses_what_json_refuses():
    for obj in (object(), [1, {1j}], {"a": b"bytes"}, {(1, 2): 3}):
        with pytest.raises(TypeError):
            oracle_text(obj)
        with pytest.raises(TypeError):
            cli._render(obj)


_scalars = (
    st.integers(min_value=-(2**60), max_value=2**60)
    | st.builds(lambda k, sign: sign * (2**53 + k), st.integers(-2, 2), st.sampled_from([1, -1]))
    | st.fractions(max_denominator=50)
    | st.booleans()
    | st.none()
    | st.text(max_size=4)
)
_documents = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_render_matches_the_json_oracle_on_random_documents(obj):
    assert cli._render(obj) == oracle_text(obj)


# _documents almost never draws a table: here each column draws from one
# kind, so most lists are tables and the rest sit next to one
_columns = st.sampled_from([
    st.integers(min_value=-(2**53) - 1, max_value=2**53 + 1),
    st.integers(min_value=-9, max_value=9) | st.none(),
    st.text(max_size=4),
    _scalars,
])
_tables = st.lists(_columns, min_size=1, max_size=4).flatmap(
    lambda columns: st.lists(st.tuples(*columns), min_size=1, max_size=6)
)


@settings(max_examples=300, deadline=None)
@given(_tables)
def test_render_matches_the_json_oracle_on_random_tables(rows):
    for obj in (rows, {"rows": rows, "in_a_list": [rows]}):
        assert cli._render(obj) == oracle_text(obj)


@pytest.mark.parametrize("twist", [1, 5])
@pytest.mark.parametrize("d_K", [-3, -4, -7, -8, -11, -19, -43, -67, -163])
def test_ap_document_matches_json_dumps_in_every_class_number_one_field(d_K, twist):
    # the rows hold small ints, the three kind strings and None, which
    # json.dumps takes as they are
    doc = {"dK": d_K, "twist": twist, "pmax": 20000, "rows": cli._ap_rows(d_K, twist, 20000)}
    assert cli._table(doc["rows"], "    ") is not None
    assert cli._render(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_render_peak_memory_stays_under_half_of_json_dumps():
    # the rendered items of a list are joined straight from the comprehension;
    # holding them while the body is copied raised the peak by a third
    doc = {"dK": -4, "twist": 1, "pmax": 10**5, "rows": cli._ap_rows(-4, 1, 10**5)}

    def peak(render):
        tracemalloc.start()
        try:
            text = render(doc)
            return tracemalloc.get_traced_memory()[1], text
        finally:
            tracemalloc.stop()

    ours, text = peak(cli._render)
    # the rows hold small ints, strings and None, which json.dumps takes as they are
    oracle, expected = peak(lambda d: json.dumps(d, sort_keys=True, indent=2))
    assert text == expected
    assert ours <= oracle / 2, (ours / len(text), oracle / len(text))


# one document of every subcommand, an error document included
COMMAND_DOCUMENTS = [
    ["classgroup", "-d", "-84"],
    ["classgroup", "-d", "-5"],
    ["classify", "--bound", "200"],
    ["classify", "--bound", "300", "--two-torsion"],
    ["ap", "--dK", "-7", "--pmax", "100", "--twist", "5"],
    ["count", "--model", "d19", "--p", "13"],
    ["fibers", "--model", "d4"],
    ["verify", "--model", "d19", "--pmax", "60"],
    ["height", "--model", "d27", "--section", "0"],
    ["nsdisc", "--model", "d27"],
    ["lemma-r", "-d", "-4", "-r", "2", "--bound", "1000"],
    ["table-check"],
    ["list-models"],
]


def test_command_documents_cover_every_subcommand():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv in COMMAND_DOCUMENTS} == set(sub.choices)


@pytest.mark.parametrize("argv", COMMAND_DOCUMENTS, ids=" ".join)
def test_command_document_matches_the_json_oracle(argv, capsys, monkeypatch):
    docs = []
    emit = cli._emit

    def recorded(obj, *args, **kwargs):
        docs.append(obj)
        return emit(obj, *args, **kwargs)

    monkeypatch.setattr(cli, "_emit", recorded)
    main(argv)
    assert len(docs) == 1
    assert capsys.readouterr().out == oracle_text(docs[0]) + "\n"


class TestByteDeterminism:
    def test_verify_repeat_runs_identical(self):
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
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")


def test_commands_do_not_import_sympy():
    # Delta is factored and the bad-prime resultant taken without sympy, which
    # only the tests use, as an oracle
    script = "\n".join([
        "import contextlib, io, sys",
        "from picard20.cli import main",
        "for argv in (['verify', '--model', 'd19', '--pmax', '100'],",
        "             ['fibers', '--model', 'd27'],",
        "             ['height', '--model', 'd27', '--section', '0']):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert main(argv) == 0, argv",
        "print('sympy' in sys.modules)",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_commands_without_a_pool_do_not_import_it():
    # verify imports the process pool only for --workers > 1
    script = "\n".join([
        "import contextlib, io, sys",
        "from picard20.cli import main",
        "for argv in (['verify', '--model', 'd19', '--pmax', '100', '--workers', '1'],",
        "             ['ap', '--dK', '-4', '--pmax', '1000'],",
        "             ['classify', '--bound', '1000'],",
        "             ['list-models']):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert main(argv) == 0, argv",
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_scans_and_ap_import_only_the_layers_they_run():
    # classify and classgroup run qforms alone, and ap adds heckecm; neither
    # imports (or, without bytecode, compiles) the point-count stack, nor
    # dataclasses and inspect unless the interpreter's start loaded them
    script = "\n".join([
        "import contextlib, io, sys",
        "before = set(sys.modules)",
        "from picard20.cli import main",
        "def run(*argvs):",
        "    for argv in argvs:",
        "        with contextlib.redirect_stdout(io.StringIO()):",
        "            assert main(argv) == 0, argv",
        "    print(sorted(m for m in sys.modules if m.startswith('picard20.')))",
        "run(['classify', '--bound', '1000'],",
        "    ['classify', '--bound', '1000', '--two-torsion'],",
        "    ['classgroup', '-d', '-84'])",
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))",
        "run(['ap', '--dK', '-7', '--pmax', '1000', '--twist', '-3'])",
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == [
        "['picard20.arith', 'picard20.cli', 'picard20.errors', 'picard20.qforms']",
        "[]",
        "['picard20.arith', 'picard20.cli', 'picard20.errors', 'picard20.heckecm', 'picard20.qforms']",
        "[]",
    ]


_MODEL_STACK = ["arith", "cli", "ellsurf", "errors", "models", "polys"]

_LAYERS_RUN = [
    (["verify", "--model", "d27", "--pmax", "100"], _MODEL_STACK + ["atverify", "heckecm", "qforms"]),
    (["count", "--model", "d19", "--p", "101"], _MODEL_STACK),
    (["fibers", "--model", "d27"], _MODEL_STACK),
    (["list-models"], _MODEL_STACK),
    (["height", "--model", "d27", "--section", "0"], _MODEL_STACK + ["mwheights"]),
    (["nsdisc", "--model", "d27"], _MODEL_STACK + ["mwheights"]),
    (["table-check"], ["arith", "cli", "ellsurf", "errors", "mwheights", "polys"]),
    (["lemma-r", "-d", "-4", "-r", "2", "--bound", "1000"], ["arith", "cli", "errors", "qforms"]),
]


@pytest.mark.parametrize("argv, layers", _LAYERS_RUN, ids=[argv[0] for argv, _ in _LAYERS_RUN])
def test_model_and_check_commands_import_only_the_layers_they_run(argv, layers):
    # one fresh interpreter per subcommand: verify does not load the lattice
    # layer, the table check does not load the verify pipeline, and the form
    # lemma loads the forms layer alone
    script = "\n".join([
        "import contextlib, io, sys",
        "from picard20.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert main({argv!r}) == 0",
        "print(sorted(m for m in sys.modules if m.startswith('picard20.')))",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert done.stdout == f"{sorted('picard20.' + m for m in layers)}\n"


def test_model_commands_import_neither_dataclasses_nor_inspect():
    # the records on the verify path are NamedTuples checked in __new__, so
    # no subcommand pays for dataclasses (or the inspect it imports) unless
    # the interpreter's start loaded them
    script = "\n".join([
        "import contextlib, io, sys",
        "before = set(sys.modules)",
        "from picard20.cli import main",
        "for argv in (['verify', '--model', 'd27', '--pmax', '100'],",
        "             ['verify', '--model', 'd4', '--pmax', '100', '--delta', '-3'],",
        "             ['count', '--model', 'd19', '--p', '101'],",
        "             ['fibers', '--model', 'd27'],",
        "             ['nsdisc', '--model', 'd27'],",
        "             ['height', '--model', 'd27', '--section', '0'],",
        "             ['list-models']):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert main(argv) == 0, argv",
        "    print(sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["[]"] * 7
