"""The model-file format: a surface model as a JSON object, and back.

model_to_json writes a SurfaceModel as an object of ascending integer
coefficient lists, and model_from_json reads one back, refusing with
PRECONDITION any value that does not describe a model.  A key the reader
does not know is ignored; so is expected_config, which older files carry,
since classify_fibers derives each fiber's place and type.  Only a
subcommand given a model file imports this module; a registry name never
does.
"""

from __future__ import annotations

from .errors import VerificationError
from .ellsurf import _DEGREE_BOUND, SectionData, SurfaceModel


def model_to_json(model: SurfaceModel) -> dict:
    """JSON-ready dict; polynomials as ascending integer coefficient lists."""
    obj = {
        "name": model.name,
        "d": model.d,
        "rank20_over_Q": model.rank20_over_Q,
        "a": {
            "a1": list(model.a1),
            "a2": list(model.a2),
            "a3": list(model.a3),
            "a4": list(model.a4),
            "a6": list(model.a6),
        },
        "sections": [
            {
                "x_num": list(s.x_num),
                "x_den": list(s.x_den),
                "y_num": list(s.y_num),
                "y_den": list(s.y_den),
                "torsion_order": s.torsion_order,
                "component_hits": [[pl, k] for pl, k in s.component_hits],
            }
            for s in model.sections
        ],
    }
    if model.twist_by != 1:
        obj["twist_by"] = model.twist_by
    return obj


_REQUIRED = object()
_JSON_TYPE = {
    dict: "an object", list: "an array", str: "a string", int: "an integer", bool: "a boolean"
}


def _json_field(obj, key: str, kind: type, default=_REQUIRED):
    """obj[key], of exactly the JSON type kind (a bool is no int), or default
    when the key is absent; PRECONDITION otherwise."""
    if type(obj) is not dict:
        raise VerificationError("PRECONDITION", "a model and its sections must be JSON objects")
    if key not in obj:
        if default is _REQUIRED:
            raise VerificationError("PRECONDITION", f"model JSON lacks {key!r}")
        return default
    if type(obj[key]) is not kind:
        raise VerificationError(
            "PRECONDITION", f"model JSON field {key!r} must be {_JSON_TYPE[kind]}"
        )
    return obj[key]


def _json_ints(obj, key: str, default=()) -> tuple:
    values = tuple(_json_field(obj, key, list, default))
    if any(type(v) is not int for v in values):
        raise VerificationError("PRECONDITION", f"model JSON field {key!r} must hold integers")
    return values


def _json_hits(section) -> tuple:
    hits = _json_field(section, "component_hits", list, ())
    for hit in hits:
        if type(hit) is not list or [type(v) for v in hit] != [str, int]:
            raise VerificationError(
                "PRECONDITION",
                "model JSON field 'component_hits' must hold pairs of a string and an integer",
            )
    return tuple(tuple(hit) for hit in hits)


def model_from_json(obj) -> SurfaceModel:
    """Inverse of model_to_json; validates through the SurfaceModel constructor.

    A value that does not describe a model raises PRECONDITION.
    """
    a = _json_field(obj, "a", dict)
    sections = tuple(
        SectionData(
            x_num=_json_ints(s, "x_num", _REQUIRED),
            x_den=_json_ints(s, "x_den", (1,)),
            y_num=_json_ints(s, "y_num"),
            y_den=_json_ints(s, "y_den", (1,)),
            torsion_order=_json_field(s, "torsion_order", int, 0),
            component_hits=_json_hits(s),
        )
        for s in _json_field(obj, "sections", list, ())
    )
    return SurfaceModel(
        name=_json_field(obj, "name", str),
        **{key: _json_ints(a, key) for key in _DEGREE_BOUND},
        d=_json_field(obj, "d", int),
        rank20_over_Q=_json_field(obj, "rank20_over_Q", bool, False),
        sections=sections,
        twist_by=_json_field(obj, "twist_by", int, 1),
    )
