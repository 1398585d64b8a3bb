"""The scripts under tools/ stay in step with the code they time."""

import importlib.util
from pathlib import Path

import picard20.ellsurf as ellsurf
from picard20.cli import main
from picard20.models import get_model

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ap_stages_times_every_stage_of_the_ap_document(capsys):
    # stages patches arith.prime_flags, arith.primes_above_3 and
    # heckecm.split_stream; a patch that no longer intercepts its call leaves
    # its stage unset, and stages raises KeyError
    ap_stages = _load("ap_stages")
    out = ap_stages.stages(-4, 1, 1000)
    assert set(ap_stages.STAGES) <= set(out)
    assert out["render_peak_mb"] > 0
    assert main(["ap", "--dK", "-4", "--pmax", "1000"]) == 0
    assert out["stdout_bytes"] == len(capsys.readouterr().out.encode())


def test_count_stages_times_every_stage_of_the_count():
    # a patch that no longer intercepts its call leaves its stage at 0: d19
    # builds the S(k, k) table, and d4 (c6 = 0) sums only axis fibers
    count_stages = _load("count_stages")
    names = ("_counting_context", "_cubic_sum_table", "pvalues_mod", "_axis_sum")
    originals = [getattr(ellsurf, name) for name in names]
    d19 = count_stages.stages(get_model("d19"), 200)
    d4 = count_stages.stages(get_model("d4"), 200)
    assert [getattr(ellsurf, name) for name in names] == originals  # restored
    assert set(count_stages.STAGES) <= set(d19)
    assert (d19["primes"], d4["primes"]) == (20, 21)
    assert min(d19[k] for k in ("context", "table", "values", "axis")) > 0
    assert d4["table"] == 0 and min(d4[k] for k in ("context", "values", "axis")) > 0
