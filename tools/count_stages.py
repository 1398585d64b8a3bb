"""In-process stage split of the point counts behind `picard20 verify`.

Run from the root of a checkout, with its `src` on PYTHONPATH:

    PYTHONPATH=src python3 tools/count_stages.py --model d19 --pmax 1000 --repeat 5

Each repeat counts #X(F_p) with `ellsurf.surface_count` at every good split
prime p <= pmax of the model, the primes at which `verify` counts, each from
a fresh counting context.  The time is split into stages, summed over the
primes:

    context  building the counting context (chi and the inverses), table excluded
    table    _cubic_sum_table, the S(k, k) table
    values   the two pvalues_mod calls, c4 and c6 at every t
    axis     the sums of the fibers with a = 0 or b = 0: _axis_sum where it
             exists, otherwise every _cubic_sum call made during the count
    pass     the rest of surface_count: the fiber pass and the singular fibers

Each stage is timed by wrapping its function in the `ellsurf` module, and a
wrapper called once per fiber (the `_cubic_sum` of a checkout without
`_axis_sum`) adds its own call cost to `axis`.  `total` is the same counts
with no wrapper.  Prints one JSON line with the median seconds of each stage.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time

import picard20.ellsurf as ellsurf
from picard20.arith import kronecker, primes_up_to
from picard20.models import get_model

STAGES = ("context", "table", "values", "axis", "pass", "total")


def _count_all(model, primes: list, clear) -> float:
    start = time.perf_counter()
    for p in primes:
        clear()
        ellsurf.surface_count(model, p)
    return time.perf_counter() - start


def stages(model, pmax: int) -> dict:
    """Seconds of each stage of the counts at the good split primes <= pmax."""
    primes = [
        p for p in primes_up_to(pmax)
        if ellsurf.good_prime(model, p) and kronecker(model.d, p) == 1
    ]
    axis = "_axis_sum" if hasattr(ellsurf, "_axis_sum") else "_cubic_sum"
    names = {"_counting_context": "context", "_cubic_sum_table": "table",
             "pvalues_mod": "values", axis: "axis"}
    spent = dict.fromkeys(names.values(), 0.0)
    originals = {name: getattr(ellsurf, name) for name in names}

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[names[name]] += time.perf_counter() - start

        return wrapper

    clear = ellsurf._counting_context.cache_clear
    total = _count_all(model, primes, clear)
    for name, fn in originals.items():
        setattr(ellsurf, name, timed(name, fn))
    try:
        wrapped = _count_all(model, primes, clear)
    finally:
        for name, fn in originals.items():
            setattr(ellsurf, name, fn)
    spent["context"] -= spent["table"]
    spent["pass"] = wrapped - sum(spent.values())
    spent["total"] = total
    spent["primes"] = len(primes)
    return spent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--model", default="d19")
    parser.add_argument("--pmax", type=int, default=1000)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    model = get_model(args.model)
    runs = [stages(model, args.pmax) for _ in range(args.repeat)]
    out = {key: round(statistics.median(r[key] for r in runs), 4) for key in STAGES}
    out.update(
        model=model.name,
        pmax=args.pmax,
        primes=runs[0]["primes"],
        repeat=args.repeat,
        python=platform.python_version(),
        cpus=os.cpu_count(),
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
