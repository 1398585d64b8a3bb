"""In-process stage split of `picard20 ap`: sieve, prime list, norm-form walk, rows, render.

Run from the root of a checkout, with its `src` on PYTHONPATH:

    PYTHONPATH=src python3 tools/ap_stages.py --dK -4 --pmax 1000000 --repeat 7

Each repeat builds the `ap` document as the CLI does, in one warm process.
`sieve`, `primes` and `walk` are the `prime_flags`, `primes_above_3` and
`split_stream` calls that `heckecm._ap_rows` makes. `primes` is its own stage,
not part of `sieve`: `primes_above_3` returns a lazy iterator, which the
tool reads to its end under the timer, so `_ap_rows` then walks a list.
`rows` is the rest of `_ap_rows` and `render` is `cli._render` of the
document, so the stages sum to the whole document; `stdout_bytes` is the
length of its text. `render_peak_mb` is the tracemalloc peak of
`cli._render` of the same document, in MiB, taken in a second pass that is
not timed, since tracing slows every allocation. The stages run with the
cyclic collector off, as the CLI process runs, so that no stage is charged
the collector's passes over the tool's own heap; it is turned back on
afterwards when it was on. Prints one JSON line with the median seconds of
each stage and the median render peak.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import time
import tracemalloc

import picard20.heckecm
from picard20 import cli

STAGES = ("sieve", "primes", "walk", "rows", "render")


def stages(d_K: int, twist: int, pmax: int) -> dict:
    """Seconds of each stage of one `ap` document, and its length in bytes,
    with the collector off, as in `cli.run`."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _stages(d_K, twist, pmax)
    finally:
        if enabled:
            gc.enable()


def _stages(d_K: int, twist: int, pmax: int) -> dict:
    spent = {}
    # patched where _ap_rows looks them up
    patched = [
        (picard20.heckecm, "prime_flags"),
        (picard20.heckecm, "primes_above_3"),
        (picard20.heckecm, "split_stream"),
    ]
    originals = [getattr(module, name) for module, name in patched]

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return list(out) if name == "primes_above_3" else out
            finally:
                spent[name] = spent.get(name, 0.0) + time.perf_counter() - start

        return wrapper

    for (module, name), fn in zip(patched, originals):
        setattr(module, name, timed(name, fn))
    try:
        start = time.perf_counter()
        rows = picard20.heckecm._ap_rows(d_K, twist, pmax)
        ap_rows = time.perf_counter() - start
    finally:
        for (module, name), fn in zip(patched, originals):
            setattr(module, name, fn)
    doc = {"dK": d_K, "twist": twist, "pmax": pmax, "rows": rows}
    start = time.perf_counter()
    text = cli._render(doc) + "\n"
    render = time.perf_counter() - start
    tracemalloc.start()
    try:
        cli._render(doc)
        render_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "sieve": spent["prime_flags"],
        "primes": spent["primes_above_3"],
        "walk": spent["split_stream"],
        "rows": ap_rows - sum(spent.values()),
        "render": render,
        "stdout_bytes": len(text.encode()),
        "render_peak_mb": render_peak / 2**20,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dK", type=int, default=-4)
    parser.add_argument("--twist", type=int, default=1)
    parser.add_argument("--pmax", type=int, default=10**6)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    runs = [stages(args.dK, args.twist, args.pmax) for _ in range(args.repeat)]
    out = {key: round(statistics.median(r[key] for r in runs), 4) for key in STAGES}
    out.update(
        render_peak_mb=round(statistics.median(r["render_peak_mb"] for r in runs), 2),
        stdout_bytes=runs[0]["stdout_bytes"],
        repeat=args.repeat,
        python=platform.python_version(),
        cpus=os.cpu_count(),
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
