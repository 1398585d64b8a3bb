"""Cold-start split of one picard20 command: interpreter start, imports and compile, the command's work, exit.

Each --tree is a checkout root; its `src` goes on PYTHONPATH. With two trees
the runs alternate, the first tree first on even runs:

    python3 tools/cold_start.py --tree ../parent --tree . --runs 25 -- classify --bound 100

Every run is a cold process started with posix_spawn and reaped with
os.wait4, bytecode writes off, stdout to /dev/null. Each run index takes,
per tree, one plain `python -m picard20.cli` run (`plain`, its wall time,
and `rss_mb`, its peak RSS) and one instrumented run, and then one `python -c pass` (`bare`). The
instrumented child is a `python -c` script. It reads the monotonic clock on
entry, imports every module the command loads (listed by one unmeasured
run beforehand) and reads the clock again. It then registers an atexit hook
that reads the clock a third time, and runs the statement under
`if __name__ == "__main__":` in the tree's cli.py. So `start` is spawn to
entry, `imports` the import and compile of those modules, `work` the rest of
the process entry (parsing, the command, rendering and writing), and `exit`
the hook to the end of wait4: the interpreter's teardown. Prints one JSON
document with every sample, in ms but for `rss_mb`, and the median of each.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

# {0!r}: the command's argv; {1!r}: the modules to import; {2!r}: the entry
# statement of cli.py. The child's clock readings go to stderr at exit.
_CHILD = """\
import time
t0 = time.perf_counter()
import atexit, importlib, sys
sys.argv = ["picard20", *{0!r}]
for name in {1!r}:
    importlib.import_module(name)
t1 = time.perf_counter()
atexit.register(lambda: print(t0, t1, time.perf_counter(), file=sys.stderr))
exec({2!r}, vars(sys.modules["picard20.cli"]))
"""

_LIST = """\
import contextlib, io, sys
before = set(sys.modules)
from picard20.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main({0!r})
print([m for m in sys.modules if m not in before])
"""


def _entry(tree: str) -> str:
    """The statement under `if __name__ == "__main__":` in the tree's cli.py."""
    with open(os.path.join(tree, "src", "picard20", "cli.py"), encoding="utf-8") as fh:
        module = ast.parse(fh.read())
    (block,) = [node for node in module.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    return ast.unparse(block.body)


def _spawn(env: dict, args: list, stderr: str = os.devnull) -> tuple:
    """The clock before posix_spawn and after wait4, and the peak RSS in MB;
    the exit code must be 0."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
               (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    end = time.perf_counter()
    if os.waitstatus_to_exitcode(status):
        raise RuntimeError(f"{args} exited with {os.waitstatus_to_exitcode(status)}")
    return start, end, usage.ru_maxrss / 1024


def measure(trees: list, argv: list, runs: int) -> dict:
    """Samples of each tree's plain runs and stages, and of `python -c pass`."""
    envs, children = {}, {}
    for tree in trees:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.path.join(tree, "src"))
        names = subprocess.run([sys.executable, "-c", _LIST.format(argv)], env=env, check=True,
                               capture_output=True, text=True).stdout
        envs[tree] = env
        children[tree] = _CHILD.format(argv, ast.literal_eval(names), _entry(tree))
    keys = ("plain", "start", "imports", "work", "exit", "rss_mb")
    samples = {tree: {k: [] for k in keys} for tree in trees}
    bare = []
    with tempfile.TemporaryDirectory() as tmp:
        clock = os.path.join(tmp, "clock")
        for i in range(runs):
            for tree in trees if i % 2 == 0 else trees[::-1]:
                got = samples[tree]
                start, end, rss = _spawn(envs[tree], ["-m", "picard20.cli", *argv])
                got["plain"].append((end - start) * 1000)
                got["rss_mb"].append(rss)
                start, end, _ = _spawn(envs[tree], ["-c", children[tree]], clock)
                with open(clock, encoding="utf-8") as fh:
                    t0, t1, t2 = map(float, fh.read().split())
                for key, span in zip(keys[1:5], (t0 - start, t1 - t0, t2 - t1, end - t2)):
                    got[key].append(span * 1000)
            start, end, _ = _spawn(envs[trees[0]], ["-c", "pass"])
            bare.append((end - start) * 1000)
    median = {tree: {k: round(statistics.median(v), 1) for k, v in got.items()}
              for tree, got in samples.items()}
    return {"command": argv, "runs": runs, "median_ms": median,
            "bare_median_ms": round(statistics.median(bare), 1),
            "samples_ms": {tree: {k: [round(x, 2) for x in v] for k, v in got.items()}
                           for tree, got in samples.items()},
            "bare_samples_ms": [round(x, 2) for x in bare]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True, help="a checkout root")
    parser.add_argument("--runs", type=int, default=25)
    parser.add_argument("command", nargs=argparse.REMAINDER, help="after --, the picard20 arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    print(json.dumps(measure([os.path.abspath(t) for t in args.tree], command, args.runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
