"""Admissible-angle intervals and the four-term nonnegative splitting.

The divergence-form operator div(D grad u) is rewritten as

    dx(g0 ux) + d_b1(g1p u_b1) + d_b2(g1m u_b2) + dy(g2 uy)

where d_b is the second directional derivative operator along the angle b.
With tan(beta1) strictly between sup(b/a) and inf(c/b) over the b>0 part of a
region, and tan(beta2) strictly between sup(c/b) and inf(b/a) over the b<0
part, all four coefficients are nonnegative throughout the region.  Points
with b = 0 fall to the beta1 branch, which is continuous across the seam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PlanError

__all__ = [
    "AngleIntervals",
    "slope_bounds",
    "slope_ratios",
    "SLOPE_REDUCTIONS",
    "split_values",
    "axis_gamma",
    "GAMMA_TOLERANCE",
]

# Round-off allowance on coefficient nonnegativity checks.
GAMMA_TOLERANCE = -1e-12


@dataclass(frozen=True)
class AngleIntervals:
    """Open admissible slope intervals (a_sup, b_inf) and (c_sup, d_inf).

    ``a_sup``/``b_inf`` bound tan(beta1) via the b>0 part of the region,
    ``c_sup``/``d_inf`` bound tan(beta2) via the b<0 part.  An empty part has
    the bounds (-inf, inf) and imposes no constraint.
    """

    a_sup: float
    b_inf: float
    c_sup: float
    d_inf: float


# Reduction and empty-part value of each slope bound, in (A, B, C, D) order.
SLOPE_REDUCTIONS = (
    (np.maximum, -np.inf),
    (np.minimum, np.inf),
    (np.maximum, -np.inf),
    (np.minimum, np.inf),
)


def slope_ratios(a, b, c):
    """The ratios g = b/a and f = c/b of the slope bounds, f nan where b = 0.

    Non-finite ratios of a non-finite field are left to the callers' checks.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return b / a, np.where(b != 0.0, c / b, np.nan)


def slope_bounds(g, f, plus, minus, axis=None):
    """The four slope bounds over sampled ratios g = b/a and f = c/b.

    Returns (sup g on plus, inf f on plus, sup f on minus, inf g on minus),
    reduced over ``axis``, with -inf/+inf standing in for an empty part.
    ``plus``/``minus`` mark the samples with b > 0 and b < 0.
    """
    return tuple(
        ufunc.reduce(np.where(part, ratio, fill), axis)
        for (ufunc, fill), part, ratio in zip(SLOPE_REDUCTIONS, (plus, plus, minus, minus), (g, f, f, g))
    )


def _inv_cos_sin(tan_beta: float):
    """1/(cos(beta)*sin(beta)) written to avoid overflow for extreme slopes."""
    return 1.0 / tan_beta + tan_beta


def axis_gamma(d, b, tan1, tan2, which: int):
    """gamma0 (which=0) or gamma2 (which=1) of the x or y term from samples
    of b and of the diagonal entry the term uses: d = a for gamma0, c for gamma2.

    Elementwise: ``tan1`` serves the samples with b > 0 and ``tan2`` those
    with b < 0; samples with b = 0 give d.  A sample whose sign of b has no
    slope (nan) gets nan; non-finite entries carry through.
    """
    tan = np.where(b > 0.0, tan1, tan2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(b == 0.0, d, d - b / tan if which == 0 else d - b * tan)


def split_values(a: float, b: float, c: float, tan1: float | None, tan2: float | None):
    """Coefficients (g0, g1p, g1m, g2) at a point; no sign checking.

    ``tan1`` may be None only when the point has b <= 0, ``tan2`` only when
    b >= 0; violating that is a plan inconsistency and raises PlanError.
    """
    if b > 0.0:
        if tan1 is None:
            raise PlanError("point with b > 0 but no plus-direction available")
        g0 = a - b / tan1
        g1p = b * _inv_cos_sin(tan1)
        g1m = 0.0
        g2 = c - b * tan1
    elif b < 0.0:
        if tan2 is None:
            raise PlanError("point with b < 0 but no minus-direction available")
        g0 = a - b / tan2
        g1p = 0.0
        g1m = b * _inv_cos_sin(tan2)
        g2 = c - b * tan2
    else:
        g0, g1p, g1m, g2 = a, 0.0, 0.0, c
    return g0, g1p, g1m, g2
