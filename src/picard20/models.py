"""Built-in surface models.

The registry holds one explicit elliptic fibration per worked discriminant,
with sections and their fiber component hits.  Component indices at I_m
fibers follow the convention index = min(n, m - n), which the correction
terms n(m - n)/m cannot distinguish anyway.
"""

from __future__ import annotations

from .errors import VerificationError
from .ellsurf import SectionData, SurfaceModel

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
    expected_config=(
        ("4*t^5+5*t^4+18*t^3+3*t^2+14*t-31=0", "I1"),
        ("t=oo", "I19"),
    ),
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
    expected_config=(
        ("t=1", "I7"),
        ("t=0", "I7"),
        ("t^3-8*t^2+5*t+1=0", "I1"),
        ("t=oo", "I7"),
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
    expected_config=(
        ("t=1", "I9"),
        ("t=0", "I2"),
        ("t=-1", "I9"),
        ("t^2-t+1=0", "I1"),
        ("t^2+t+1=0", "I1"),
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
    expected_config=(("t=1", "I0*"), ("t=0", "III*"), ("t=oo", "III*")),
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
    expected_config=(("t=0", "II*"), ("t=-1", "IV"), ("t=oo", "II*")),
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
    expected_config=(
        ("t=0", "II*"),
        ("4*t^3+17*t^2+14*t-27=0", "I1"),
        ("t=oo", "I11"),
    ),
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
