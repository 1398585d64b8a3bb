"""Command line interface.

Every subcommand prints a single deterministic JSON document (sorted keys,
two-space indent) and exits 0.  Domain failures exit 1 with an error object;
usage errors exit 2 via argparse.  Integers that could exceed 2^53 and all
exact fractions are emitted as strings so the output survives any JSON
parser.  _render writes the bytes json.dumps(sort_keys=True, indent=2) would
write for that document, without building a converted copy first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from .errors import VerificationError

_JSON_INT_LIMIT = 2**53

_TWO_TORSION_NOTE = (
    "completeness above |d| = 10000 rests on the standard one-class-per-genus "
    "finiteness expectation; the list is unconditionally complete up to at "
    "most one further discriminant"
)


def _render(obj, pad: str = "") -> str:
    """obj as JSON at the indent pad, the next level two spaces deeper.

    One isinstance branch per JSON kind, bool before int: str, bool, int
    (quoted at 2^53 in size), None, Fraction (quoted), list or tuple, dict,
    and json.dumps for the rest. A list of exact tuples of one length whose
    columns _table accepts is rendered by _table, as one % format.
    """
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return _quote(str(obj)) if abs(obj) >= _JSON_INT_LIMIT else str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, Fraction):
        return _quote(str(obj))
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
    """The model of a registry name or a JSON file; loads the point-count stack."""
    from .ellsurf import model_from_json, twist_model
    from .models import get_model

    if os.sep in spec or spec.endswith(".json"):
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

# Each subcommand imports the layers it runs: a scan loads qforms and arith
# alone, and does not import (or, without bytecode, compile) the point-count
# stack.


def _cmd_classgroup(args) -> int:
    from .qforms import FormClassGroup

    group = FormClassGroup(args.d)
    return _emit(
        {
            "d": args.d,
            "class_number": group.h,
            "elementary_divisors": group.elementary_divisors(),
            "two_torsion": group.is_two_torsion(),
            "ambiguous_classes": group.ambiguous_count(),
            "forms": [[f.a, f.b, f.c] for f in group.reduced_forms],
        }
    )


def _cmd_classify(args) -> int:
    from .qforms import classify_h1, classify_two_torsion

    scan = classify_two_torsion if args.two_torsion else classify_h1
    discs = scan(args.bound)
    out = {
        "bound": args.bound,
        "kind": "two_torsion" if args.two_torsion else "class_number_one",
        "count": len(discs),
        "discriminants": discs,
    }
    if args.two_torsion:
        out["note"] = _TWO_TORSION_NOTE
    return _emit(out)


# ap sieves pmax + 1 bytes and walks the norm form once before its first
# row; cold on 2 cores with bytecode off, --pmax 10^6 takes 0.31-0.43 s at a
# 36.5 MB peak RSS and --pmax 10^7 2.0-3.0 s at 182.5 MB
_AP_LIMIT = 10**7


def _ap_rows(d_K: int, twist: int, pmax: int) -> list:
    """(p, kind, a_p) for each prime 3 < p <= pmax, a_p from one norm-form walk.

    A split p missing from the stream is NO_REPRESENTATION. The rows are
    tuples, and the stream is emptied as they are built, to keep the
    render's peak low. Each kind is read from one table of split_types, at
    p mod |d_K|.
    """
    from .arith import kronecker, prime_flags, primes_above_3
    from .heckecm import SPLIT, CMRule, no_representation, split_stream, split_types
    from .qforms import twist_discriminant

    CMRule(d_K, twist if twist != 1 else None)
    dstar = twist_discriminant(twist)
    flags = prime_flags(pmax)
    stream = split_stream(d_K, pmax, flags)
    kinds = split_types(d_K)
    modulus = len(kinds)
    rows = []
    for p in primes_above_3(flags):
        kind = kinds[p % modulus]
        ap = None
        if kind == SPLIT:
            # popped, not read: the row's int for the next p takes the freed
            # key's slot, where a key kept to the end would leave a hole
            # among the kept a_p that the render's strings cannot reuse
            ap = stream.pop(p, None)
            if ap is None:
                raise no_representation(d_K, p)
            if dstar != 1:
                ap *= kronecker(dstar, p)
        rows.append((p, kind, ap))
    return rows


def _cmd_ap(args) -> int:
    if args.pmax > _AP_LIMIT:
        raise VerificationError("PRECONDITION", f"pmax={args.pmax} exceeds the ap limit {_AP_LIMIT}")
    rows = _ap_rows(args.dK, args.twist, args.pmax)
    return _emit(
        {"dK": args.dK, "twist": args.twist, "pmax": args.pmax, "rows": rows}
    )


def _cmd_count(args) -> int:
    from .ellsurf import algebraic_count, surface_count, trace_ap

    model = _load_model(args.model, args.delta)
    try:
        ap = trace_ap(model, args.p)
    except VerificationError:
        ap = None
    # a trace gives the count; trace_ap refuses most primes before it counts
    count = surface_count(model, args.p) if ap is None else ap + algebraic_count(args.p)
    return _emit(
        {"model": model.name, "p": args.p, "surface_count": count, "trace_ap": ap}
    )


def _cmd_fibers(args) -> int:
    from .ellsurf import classify_fibers

    model = _load_model(args.model, args.delta)
    fibers = classify_fibers(model)
    rows = [
        {
            "place": f.place,
            "degree": f.degree,
            "type": f.kodaira_type,
            "v_c4": f.vc4,
            "v_c6": f.vc6,
            "v_delta": f.vdelta,
            "components": f.component_count,
            "euler": f.euler_number,
        }
        for f in fibers
    ]
    return _emit(
        {
            "model": model.name,
            "fibers": rows,
            "euler_total": sum(r["degree"] * r["euler"] for r in rows),
        }
    )


def _cmd_verify(args) -> int:
    from .atverify import verify_surface

    model = _load_model(args.model, args.delta)
    return _emit(verify_surface(model, args.pmax, workers=args.workers), args.out)


def _cmd_height(args) -> int:
    from .mwheights import compute_PO, config_from_model, corrections, height

    model = _load_model(args.model)
    if not 0 <= args.section < len(model.sections):
        raise VerificationError(
            "PRECONDITION",
            f"{model.name} has {len(model.sections)} sections, index {args.section} invalid",
        )
    section = model.sections[args.section]
    config = config_from_model(model)
    pole_order = compute_PO(section, model)
    return _emit(
        {
            "model": model.name,
            "section": args.section,
            "torsion_order": section.torsion_order,
            "pole_order": pole_order,
            "corrections": corrections(section, config),
            "height": height(section, config, pole_order),
        }
    )


def _cmd_nsdisc(args) -> int:
    from .mwheights import config_from_model, ns_discriminant

    model = _load_model(args.model)
    config = config_from_model(model)
    return _emit(
        {
            "model": model.name,
            "configuration": config.fibers,
            "mw_rank": config.mw_rank,
            "torsion_order": config.torsion_order,
            "mw_gram": config.mw_gram,
            "ns_discriminant": ns_discriminant(config),
        }
    )


def _cmd_lemma_r(args) -> int:
    from .qforms import lemma_r_check

    result = lemma_r_check(args.d, args.r, args.bound)
    result.update({"d": args.d, "r": args.r, "bound": args.bound})
    return _emit(result)


def _cmd_table_check(args) -> int:
    from .mwheights import table_check

    return _emit(table_check())


def _cmd_list_models(args) -> int:
    from .models import REGISTRY

    rows = []
    for name in sorted(REGISTRY):
        model = REGISTRY[name]
        rows.append(
            {
                "name": name,
                "d": model.d,
                "rank20_over_Q": model.rank20_over_Q,
                "sections": len(model.sections),
                "expected_config": model.expected_config,
            }
        )
    return _emit({"models": rows})


# ---------------------------------------------------------------- wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="picard20",
        description="Arithmetic verification for singular K3 surfaces over Q",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classgroup", help="reduced forms and group structure")
    p.add_argument("-d", type=int, required=True, help="negative discriminant")
    p.set_defaults(func=_cmd_classgroup)

    p = sub.add_parser("classify", help="scan discriminants by class group shape")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--two-torsion", action="store_true", dest="two_torsion")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("ap", help="CM newform coefficients")
    p.add_argument("--dK", type=int, required=True, help="fundamental discriminant")
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--twist", type=int, default=1, help="quadratic twist delta")
    p.set_defaults(func=_cmd_ap)

    p = sub.add_parser("count", help="point count of one surface at one prime")
    p.add_argument("--model", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--delta", type=int, default=1)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("fibers", help="Kodaira classification of the bad fibers")
    p.add_argument("--model", required=True)
    p.add_argument("--delta", type=int, default=1)
    p.set_defaults(func=_cmd_fibers)

    p = sub.add_parser("verify", help="per-prime verification report")
    p.add_argument("--model", required=True)
    p.add_argument("--pmax", type=int, default=200)
    p.add_argument("--delta", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("height", help="canonical height of a stored section")
    p.add_argument("--model", required=True)
    p.add_argument("--section", type=int, required=True, help="section index")
    p.set_defaults(func=_cmd_height)

    p = sub.add_parser("nsdisc", help="Neron-Severi discriminant of a model")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_nsdisc)

    p = sub.add_parser("lemma-r", help="represented primes of d versus d r^2")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--bound", type=int, default=100000)
    p.set_defaults(func=_cmd_lemma_r)

    p = sub.add_parser("table-check", help="consistency of the built-in table")
    p.set_defaults(func=_cmd_table_check)

    p = sub.add_parser("list-models", help="built-in surface models")
    p.set_defaults(func=_cmd_list_models)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        return _emit({"error": {"code": exc.code, "message": exc.message}}, code=1)


if __name__ == "__main__":
    sys.exit(main())
