"""The scripts under tools/ stay in step with the code they time."""

import importlib.util
from pathlib import Path

from picard20.cli import main

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_ap_stages_times_every_stage_of_the_ap_document(capsys):
    # stages patches arith.prime_flags and heckecm.split_stream; a patch that
    # no longer intercepts its call leaves its stage unset, and stages raises
    # KeyError
    spec = importlib.util.spec_from_file_location("ap_stages", TOOLS / "ap_stages.py")
    ap_stages = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ap_stages)
    out = ap_stages.stages(-4, 1, 1000)
    assert set(ap_stages.STAGES) <= set(out)
    assert main(["ap", "--dK", "-4", "--pmax", "1000"]) == 0
    assert out["stdout_bytes"] == len(capsys.readouterr().out.encode())
