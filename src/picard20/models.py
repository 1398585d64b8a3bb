"""Built-in surface models.

The registry holds one explicit elliptic fibration per worked discriminant,
with sections and their fiber component hits.  Component indices at I_m
fibers follow the convention index = min(n, m - n), which the correction
terms n(m - n)/m cannot distinguish anyway.  A model states no fiber
configuration: classify_fibers derives each fiber's place and type from
Delta, c4 and c6.
"""

from __future__ import annotations

from .errors import VerificationError
from .ellsurf import SectionData, SurfaceModel, classify_fibers

# y^2 = x^3 + (t^4+t^3+3t^2+1) x^2 + 2(t^3+t^2+2t) x + (t^2+t+1)
_D19 = SurfaceModel(
    name="d19",
    a1=(),
    a2=(1, 0, 3, 1, 1),
    a3=(),
    a4=(0, 4, 2, 2),
    a6=(1, 1, 1),
    d=-19,
    rank20_over_Q=True,
    sections=(),
)

# y^2 + (1+t-t^2) x y + (t^2-t^3) y = x^3 + (t^2-t^3) x^2, P = (0,0) of order 7
_D7_TATE = SurfaceModel(
    name="d7-tate",
    a1=(1, 1, -1),
    a2=(0, 0, 1, -1),
    a3=(0, 0, 1, -1),
    a4=(),
    a6=(),
    d=-7,
    rank20_over_Q=True,
    sections=(
        SectionData(
            x_num=(),
            y_num=(),
            torsion_order=7,
            component_hits=(("t=0", 2), ("t=1", 1), ("t=oo", 3)),
        ),
    ),
)

# y^2 + 3(2t^2+1) x y + (1-t^2)^3 y = x^3, P = ((t-1)^3, (t-1)^6), 3-torsion (0,0)
_D27 = SurfaceModel(
    name="d27",
    a1=(3, 0, 6),
    a2=(),
    a3=(1, 0, -3, 0, 3, 0, -1),
    a4=(),
    a6=(),
    d=-27,
    rank20_over_Q=True,
    sections=(
        SectionData(
            x_num=(-1, 3, -3, 1),
            y_num=(1, -6, 15, -20, 15, -6, 1),
            torsion_order=0,
            component_hits=(("t=0", 1), ("t=1", 3)),
        ),
        SectionData(
            x_num=(),
            y_num=(),
            torsion_order=3,
            component_hits=(("t=1", 3), ("t=-1", 3)),
        ),
    ),
)

# y^2 = x^3 - t^3 (t-1)^2 x, 2-torsion (0,0)
_D4 = SurfaceModel(
    name="d4",
    a1=(),
    a2=(),
    a3=(),
    a4=(0, 0, 0, -1, 2, -1),
    a6=(),
    d=-4,
    rank20_over_Q=True,
    sections=(
        SectionData(
            x_num=(),
            y_num=(),
            torsion_order=2,
            component_hits=(("t=0", 1), ("t=1", 1), ("t=oo", 1)),
        ),
    ),
)

# y^2 = x^3 - t^5 (t+1)^2
_D3 = SurfaceModel(
    name="d3",
    a1=(),
    a2=(),
    a3=(),
    a4=(),
    a6=(0, 0, 0, 0, 0, -1, -2, -1),
    d=-3,
    rank20_over_Q=True,
    sections=(),
)

# y^2 = x^3 + t^2(t^2+3t+1) x^2 + t^4(2t+4) x + t^5(t+1)
_D11 = SurfaceModel(
    name="d11",
    a1=(),
    a2=(0, 0, 1, 3, 1),
    a3=(),
    a4=(0, 0, 0, 0, 4, 2),
    a6=(0, 0, 0, 0, 0, 1, 1),
    d=-11,
    rank20_over_Q=True,
    sections=(),
)

REGISTRY = {
    m.name: m for m in (_D19, _D7_TATE, _D27, _D4, _D3, _D11)
}


def get_model(name: str) -> SurfaceModel:
    """Look up a built-in model by name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise VerificationError(
            "UNKNOWN_MODEL",
            f"no built-in model {name!r}; known: {', '.join(sorted(REGISTRY))}",
        ) from None


def registry_report() -> dict:
    """The list-models document: one row per built-in model, by name.

    A row's expected_config is the model's (place, Kodaira type) list as
    classify_fibers derives it from Delta, c4 and c6; no model declares one.
    """
    rows = []
    for name in sorted(REGISTRY):
        model = REGISTRY[name]
        rows.append(
            {
                "name": name,
                "d": model.d,
                "rank20_over_Q": model.rank20_over_Q,
                "sections": len(model.sections),
                "expected_config": [(F.place, F.kodaira_type) for F in classify_fibers(model)],
            }
        )
    return {"models": rows}
