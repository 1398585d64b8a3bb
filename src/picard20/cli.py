"""Command line interface.

Every subcommand prints a single deterministic JSON document (sorted keys,
two-space indent) and exits 0.  Domain failures exit 1 with an error object;
usage errors exit 2 via argparse.  Integers that could exceed 2^53 and all
exact fractions are emitted as strings so the output survives any JSON
parser.  _render writes the bytes json.dumps(sort_keys=True, indent=2) would
write for that document, without building a converted copy first.

A run builds the parser of its own subcommand alone, and that subcommand's
handler imports the layer that builds its document, so a cold run imports
(and, without bytecode, compiles) only the layers it runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from .errors import VerificationError

_JSON_INT_LIMIT = 2**53


def _render(obj, pad: str = "") -> str:
    """obj as JSON at the indent pad, the next level two spaces deeper.

    One isinstance branch per JSON kind, bool before int: str, bool, int
    (quoted at 2^53 in size), None, list or tuple, dict, Fraction (quoted),
    and json.dumps for the rest. Fraction comes last and is looked up in
    sys.modules, since a Fraction exists only once fractions is loaded, so a
    document with no Fraction in it never loads fractions. A list of
    exact tuples of one length whose columns _table accepts is rendered by
    _table, as one % format.
    """
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return _quote(str(obj)) if abs(obj) >= _JSON_INT_LIMIT else str(obj)
    if obj is None:
        return "null"
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if type(obj[0]) is tuple and (body := _table(obj, inner)) is not None:
            return f"[\n{inner}{body}\n{pad}]"
        # the items are joined straight from the comprehension, so they are
        # freed before the f-string copies the body
        body = sep.join([_render(v, inner) for v in obj])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # a key that is not a string takes json's conversion, and its TypeError
        body = sep.join([
            (_quote(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4])
            + ": " + _render(v, inner)
            for k, v in sorted(obj.items())
        ])
        return f"{{\n{inner}{body}\n{pad}}}"
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(obj, fractions.Fraction):
        return _quote(str(obj))
    # floats, and a TypeError for what JSON cannot hold
    return json.dumps(obj)


def _table(rows, pad: str) -> str | None:
    """The items of rows rendered at pad and joined, when rows is a table.

    A table's rows are exact tuples of one length k >= 1, and each column
    is all exact str, or all exact int under 2^53 in size, None allowed.
    The cells are flattened once and each column, the slice cells[i::k], is
    checked and converted in place: a str column quotes each distinct value
    once, and an int column maps None to null. The whole table is then one
    % format of the row template repeated len(rows) times; the cells are
    substituted, never parsed, so a % in a string stays literal. Anything
    else is None, and takes the per-item path.
    """
    if set(map(type, rows)) != {tuple} or len(set(map(len, rows))) != 1 or not rows[0]:
        return None
    k = len(rows[0])
    cells = list(chain.from_iterable(rows))
    for i in range(k):
        column = cells[i::k]
        kinds = set(map(type, column))
        if kinds == {str}:
            quoted = {v: _quote(v) for v in set(column)}
            cells[i::k] = map(quoted.__getitem__, column)
        elif not kinds <= {int, type(None)} or (
            max(map(abs, filter(None, column)), default=0) >= _JSON_INT_LIMIT
        ):
            return None
        elif type(None) in kinds:
            # get(v, v): null for None, the int itself otherwise
            cells[i::k] = map({None: "null"}.get, column, column)
    # the last column and the list are dropped before the template is built,
    # so that the format holds one copy of the cells, not two
    del column
    cells = tuple(cells)
    inner = pad + "  "
    row = f"[\n{inner}" + f",\n{inner}".join(["%s"] * k) + f"\n{pad}]"
    return f",\n{pad}".join([row] * len(rows)) % cells


def _emit(obj, out: str | None = None, code: int = 0) -> int:
    """Write obj as JSON to stdout and, when out is given, to that file too."""
    text = _render(obj) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise VerificationError("PRECONDITION", f"cannot write {out}: {exc.strerror}") from None
    sys.stdout.write(text)
    return code


def _load_model(spec: str, delta: int = 1):
    """The model of a registry name or a JSON file; loads the point-count
    stack, and the model-file reader only for a file."""
    from .ellsurf import twist_model
    from .models import get_model

    if os.sep in spec or spec.endswith(".json"):
        from .modelfile import model_from_json

        try:
            with open(spec, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise VerificationError("UNKNOWN_MODEL", f"cannot read {spec}: {exc.strerror}") from None
        except (ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON and bytes that are not UTF-8
            raise VerificationError("PRECONDITION", f"{spec} is not JSON: {exc}") from None
        model = model_from_json(obj)
    else:
        model = get_model(spec)
    if delta != 1:
        model = twist_model(model, delta)
    return model


# ---------------------------------------------------------------- subcommands

# Each handler returns its subcommand's document, built by the layer that
# runs it, and imports that layer only when it is called.


def _cmd_classgroup(args) -> dict:
    from .classgroups import class_group_report

    return class_group_report(args.d)


def _cmd_classify(args) -> dict:
    from .scans import classify_report

    return classify_report(args.bound, args.two_torsion)


def _cmd_ap(args) -> dict:
    from .heckecm import ap_report

    return ap_report(args.dK, args.pmax, args.twist)


def _cmd_count(args) -> dict:
    from .ellsurf import count_report

    return count_report(_load_model(args.model, args.delta), args.p)


def _cmd_fibers(args) -> dict:
    from .ellsurf import fiber_report

    return fiber_report(_load_model(args.model, args.delta))


def _cmd_verify(args) -> dict:
    from .atverify import verify_surface

    return verify_surface(_load_model(args.model, args.delta), args.pmax, workers=args.workers)


def _cmd_height(args) -> dict:
    from .mwheights import height_report

    return height_report(_load_model(args.model), args.section)


def _cmd_nsdisc(args) -> dict:
    from .mwheights import nsdisc_report

    return nsdisc_report(_load_model(args.model))


def _cmd_lemma_r(args) -> dict:
    from .classgroups import lemma_r_check

    return lemma_r_check(args.d, args.r, args.bound)


def _cmd_table_check(args) -> dict:
    from .mwheights import table_check

    return table_check()


def _cmd_list_models(args) -> dict:
    from .models import registry_report

    return registry_report()


# ---------------------------------------------------------------- wiring

_MODEL = ("--model", {"required": True})
_DELTA = ("--delta", {"type": int, "default": 1})

# name: (handler, help, arguments), each argument a flag and the keywords of
# its add_argument call, in the order of the help
_COMMANDS = {
    "classgroup": (_cmd_classgroup, "reduced forms and group structure", [
        ("-d", {"type": int, "required": True, "help": "negative discriminant"}),
    ]),
    "classify": (_cmd_classify, "scan discriminants by class group shape", [
        ("--bound", {"type": int, "required": True}),
        ("--two-torsion", {"action": "store_true", "dest": "two_torsion"}),
    ]),
    "ap": (_cmd_ap, "CM newform coefficients", [
        ("--dK", {"type": int, "required": True, "help": "fundamental discriminant"}),
        ("--pmax", {"type": int, "required": True}),
        ("--twist", {"type": int, "default": 1, "help": "quadratic twist delta"}),
    ]),
    "count": (_cmd_count, "point count of one surface at one prime", [
        _MODEL,
        ("--p", {"type": int, "required": True}),
        _DELTA,
    ]),
    "fibers": (_cmd_fibers, "Kodaira classification of the bad fibers", [_MODEL, _DELTA]),
    "verify": (_cmd_verify, "per-prime verification report", [
        _MODEL,
        ("--pmax", {"type": int, "default": 200}),
        _DELTA,
        ("--workers", {"type": int, "default": 1}),
        ("--out", {"help": "also write the report to this file"}),
    ]),
    "height": (_cmd_height, "canonical height of a stored section", [
        _MODEL,
        ("--section", {"type": int, "required": True, "help": "section index"}),
    ]),
    "nsdisc": (_cmd_nsdisc, "Neron-Severi discriminant of a model", [_MODEL]),
    "lemma-r": (_cmd_lemma_r, "represented primes of d versus d r^2", [
        ("-d", {"type": int, "required": True}),
        ("-r", {"type": int, "required": True}),
        ("--bound", {"type": int, "default": 100000}),
    ]),
    "table-check": (_cmd_table_check, "consistency of the built-in table", []),
    "list-models": (_cmd_list_models, "built-in surface models", []),
}


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of the subcommand that argv[0] names, or of every one.

    A run parses one subcommand, so when argv[0] names one only its
    subparser is built; the top-level usage still lists every subcommand, so
    a usage error after it reads as it would with all of them built.  -h, an
    unknown subcommand and none at all build every subparser, for the full
    help and list of choices.
    """
    parser = argparse.ArgumentParser(
        prog="picard20",
        description="Arithmetic verification for singular K3 surfaces over Q",
    )
    names, metavar = list(_COMMANDS), None
    if argv and argv[0] in _COMMANDS:
        # the metavar argparse would format from the full list of choices
        names, metavar = [argv[0]], "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        handler, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        return _emit(args.func(args), getattr(args, "out", None))
    except VerificationError as exc:
        return _emit({"error": {"code": exc.code, "message": exc.message}}, code=1)


def run() -> None:
    """The process entry of `python -m picard20.cli` and of the picard20
    script: main() on sys.argv, and exit with its code.

    The cyclic collector is off from entry.  A run leaves under a hundred
    objects in garbage cycles, the argument parser's, whatever its size,
    and the collector's passes over the row tuples of an `ap` document
    free nothing.  However the run ends (a document, an error document or
    a usage error), the heap is frozen first, so the interpreter's
    collections at exit skip it; most of it is the interpreter's own
    start-up objects.  Teardown is otherwise unchanged, and a process pool
    has been shut down by its with block before main() returns; its forked
    workers inherit the collector's state.  main() itself neither turns the
    collector off nor freezes anything, for callers in process.
    """
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
