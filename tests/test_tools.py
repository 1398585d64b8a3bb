"""The scripts under tools/ stay in step with the code they time."""

import gc
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
    # stages patches heckecm.prime_flags, heckecm.primes_above_3 and
    # heckecm.split_stream; a patch that no longer intercepts its call leaves
    # its stage unset, and stages raises KeyError
    ap_stages = _load("ap_stages")
    assert gc.isenabled()
    out = ap_stages.stages(-4, 1, 1000)
    assert gc.isenabled()  # off while timed, as in the CLI process, then back on
    assert set(ap_stages.STAGES) <= set(out)
    assert out["render_peak_mb"] > 0
    assert main(["ap", "--dK", "-4", "--pmax", "1000"]) == 0
    assert out["stdout_bytes"] == len(capsys.readouterr().out.encode())


def test_count_stages_times_every_stage_of_the_count():
    # a patch that no longer intercepts its call leaves its stage at 0: d19
    # builds the S(k, k) table, and d4 (c6 = 0) sums only axis fibers
    count_stages = _load("count_stages")
    names = ("_counting_context", "_cubic_sum_table", "pvalues_on_powers", "_axis_sum")
    originals = [getattr(ellsurf, name) for name in names]
    d19 = count_stages.stages(get_model("d19"), 200)
    d4 = count_stages.stages(get_model("d4"), 200)
    assert [getattr(ellsurf, name) for name in names] == originals  # restored
    assert set(count_stages.STAGES) <= set(d19)
    assert (d19["primes"], d4["primes"]) == (20, 21)
    assert min(d19[k] for k in ("context", "table", "values", "axis")) > 0
    assert d4["table"] == 0 and min(d4[k] for k in ("context", "values", "axis")) > 0
    # every wrapped call is counted, so that its own cost is not charged to
    # pass: at least a context, two value tables and an axis sum per prime
    for out in (d19, d4):
        assert out["wrapped_calls"] >= 4 * out["primes"] and out["pass"] > 0


def test_code_lines_counts_lines_that_hold_code(tmp_path):
    # code: 6 import, 9 def, 12-15 a call whose string spans 13-14, 17 class
    # and 19 pass; the docstrings (1-3, 10-11, 18), the comment and the
    # blank lines are not code
    code_lines = _load("code_lines")
    (tmp_path / "a.py").write_text(
        '"""Module\n'
        "docstring.\n"
        '"""\n'
        "\n"
        "# a comment\n"
        "import os  # trailing comment\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """Function\n'
        '    docstring."""\n'
        "    return os.path.join(\n"
        '        """two\n'
        'lines""",\n'
        "    )\n"
        "\n"
        "class C:\n"
        '    "docstring"\n'
        "    pass\n"
    )
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n')
    assert code_lines.report(tmp_path) == {"a.py": 8, "b.py": 0}


def test_cold_start_times_each_stage_of_a_cold_run():
    # one run of this checkout: the child runs the statement under cli.py's
    # __main__ check, after importing every module that classify loads
    cold_start = _load("cold_start")
    root = str(TOOLS.parent)
    assert cold_start._entry(root) == "run()"
    out = cold_start.measure([root], ["classify", "--bound", "100"], 1)
    (samples,) = out["samples_ms"].values()
    assert set(samples) == {"plain", "start", "imports", "work", "exit", "rss_mb"}
    assert min(v[0] for v in samples.values()) > 0 and out["bare_samples_ms"][0] > 0
