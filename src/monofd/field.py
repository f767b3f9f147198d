"""Diffusion tensor fields and the global constants that drive planning.

A field is the symmetric tensor [[a, b], [b, c]] with entries given as
closed-form expressions of (x, y) on the closed unit square.  From dense
lattice sampling we estimate:

* ``alpha_bar``: infimum of the determinant a*c - b^2,
* ``alpha``:     max of sup a*(|b|+1) and sup c*(|b|+1),
* ``cap_m``:     sup|b/a| + alpha_bar/alpha, the cut-off level for the
                 slope-ratio functions,
* Lipschitz estimates of the cut-off ratios and of b/a,
* ``radius``:    alpha_bar / (3*alpha*maxL), the uniform neighborhood size on
                 which admissible direction intervals are guaranteed nonempty.

Suprema and infima are lattice estimates, not certificates; the planner adds
its own safety margin on top (see stencil.plan_grid and DEFAULT_SAFETY).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, FieldValidationError
from .expressions import Expression, const, cos, parse_expression, sin, var
from .splitting import SLOPE_REDUCTIONS, masked_ratios, slope_ratios

__all__ = [
    "DiffusionField",
    "SplittingConstants",
    "ProbeTable",
    "compute_constants",
    "built_in_field",
    "BUILT_IN_FIELDS",
    "field_from_expressions",
]

DOMAIN_DIAMETER = math.sqrt(2.0)

# Cap on each window array ProbeTable.ball_bounds gathers per node chunk;
# 1 MB keeps a chunk's windows cache-resident (8 MB measured ~25% slower).
_CHUNK_BYTES = 1 << 20

# Finest probe step accepted; its lattice already holds 1e8 samples per array.
_MIN_PROBE_STEP = 1e-4


@dataclass(frozen=True)
class DiffusionField:
    """Symmetric 2x2 tensor field with expression-backed entries."""

    name: str
    a: Expression
    b: Expression
    c: Expression

    def tensor(self, x: float, y: float) -> tuple[float, float, float]:
        """Entries (a, b, c) at a single point of the closed unit square."""
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ConfigError(f"point ({x}, {y}) lies outside the closed unit square")
        return float(self.a(x, y)), float(self.b(x, y)), float(self.c(x, y))

    def tensor_arrays(self, x, y):
        """Vectorized entries; domain checking is the caller's concern."""
        shape = np.broadcast(x, y).shape
        a = np.broadcast_to(np.asarray(self.a(x, y), dtype=float), shape).copy()
        b = np.broadcast_to(np.asarray(self.b(x, y), dtype=float), shape).copy()
        c = np.broadcast_to(np.asarray(self.c(x, y), dtype=float), shape).copy()
        return a, b, c


@dataclass(frozen=True)
class SplittingConstants:
    """Field-wide constants; ``radius`` bounds the planning neighborhoods."""

    alpha_bar: float
    alpha: float
    cap_m: float
    lip_fplus: float
    lip_fminus: float
    lip_g: float
    radius: float


def _lattice(probe_step: float) -> np.ndarray:
    if not (math.isfinite(probe_step) and probe_step >= _MIN_PROBE_STEP):
        raise ConfigError(f"probe_step must be finite and >= {_MIN_PROBE_STEP:g}, got {probe_step!r}")
    cells = max(2, round(1.0 / probe_step))
    return np.linspace(0.0, 1.0, cells + 1)


class ProbeTable:
    """Dense lattice samples of the tensor entries and planning ratios.

    Axis 0 indexes y, axis 1 indexes x.  The planner slices rectangular
    windows out of these arrays, so everything is precomputed once per field.
    """

    def __init__(self, field: DiffusionField, probe_step: float = 1e-3):
        self.field = field
        xs = _lattice(probe_step)
        self.xs = xs
        self.step = xs[1] - xs[0]
        X, Y = np.meshgrid(xs, xs)
        # A field that is non-finite somewhere may divide by zero or overflow
        # here; compute_constants rejects it with a FieldValidationError.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self.a, self.b, self.c = field.tensor_arrays(X, Y)
            self.det = self.a * self.c - self.b**2
        self.ratio_g, self.ratio_f = slope_ratios(self.a, self.b, self.c)

    def window_intervals(self, x0: float, y0: float, radius: float):
        """Raw (A, B, C, D) over lattice points strictly inside the ball.

        Returns (sup b/a on b>0, inf c/b on b>0, sup c/b on b<0, inf b/a on
        b<0) with -inf/+inf standing in for empty parts.  One-node form of
        ``ball_bounds``.
        """
        bounds, _ = self.ball_bounds(np.array([x0], dtype=float), np.array([y0], dtype=float), radius)
        return tuple(float(v[0]) for v in bounds)

    def ball_bounds(self, x0: np.ndarray, y0: np.ndarray, radius: float):
        """(A, B, C, D) of ``window_intervals`` for every center at once.

        Returns the four bound arrays and a boolean array marking the balls
        that hold no probe sample.  The sign-masked ratios are built once
        over the lattice box the balls touch; fixed-size windows of them are
        gathered in node chunks of at most ``_CHUNK_BYTES`` per array and
        reduced under each node's disk mask.
        """
        xs, step, last = self.xs, self.step, self.xs.size - 1
        ilo = np.maximum(0, np.ceil((x0 - radius) / step)).astype(np.intp)
        ihi = np.minimum(last, np.floor((x0 + radius) / step)).astype(np.intp)
        jlo = np.maximum(0, np.ceil((y0 - radius) / step)).astype(np.intp)
        jhi = np.minimum(last, np.floor((y0 + radius) / step)).astype(np.intp)
        bounds = [np.full(x0.shape, fill) for _, fill in SLOPE_REDUCTIONS]
        empty = np.ones(x0.shape, dtype=bool)
        live = np.flatnonzero((ilo <= ihi) & (jlo <= jhi))
        if live.size == 0:
            return tuple(bounds), empty
        i0, i1 = int(ilo[live].min()), int(ihi[live].max())
        j0, j1 = int(jlo[live].min()), int(jhi[live].max())
        box = np.s_[j0 : j1 + 1, i0 : i1 + 1]
        b = self.b[box]
        parts = masked_ratios(self.ratio_g[box], self.ratio_f[box], b > 0.0, b < 0.0)
        wx = int((ihi - ilo)[live].max()) + 1
        wy = int((jhi - jlo)[live].max()) + 1
        views = [sliding_window_view(part, (wy, wx)) for part in parts]
        # Window origins inside the box: at the node's own box unless that
        # would run past the box's far edge.
        si = np.minimum(ilo - i0, i1 - i0 + 1 - wx)
        sj = np.minimum(jlo - j0, j1 - j0 + 1 - wy)
        dx2, x_of = self._squared_offsets(x0[live], ilo[live], ihi[live], i0 + si[live], wx)
        dy2, y_of = self._squared_offsets(y0[live], jlo[live], jhi[live], j0 + sj[live], wy)
        r2 = radius**2
        chunk = max(1, _CHUNK_BYTES // (8 * wx * wy))
        for start in range(0, live.size, chunk):
            span = slice(start, start + chunk)
            nodes = live[span]
            # The scalar test dx**2 + dy**2 < radius**2, negated.
            outside = dx2[x_of[span], None, :] + dy2[y_of[span], :, None] >= r2
            empty[nodes] = outside.all(axis=(1, 2))
            for out, view, (ufunc, fill) in zip(bounds, views, SLOPE_REDUCTIONS):
                window = view[sj[nodes], si[nodes]]
                np.copyto(window, fill, where=outside)
                out[nodes] = ufunc.reduce(window, axis=(1, 2))
        return tuple(bounds), empty

    def _squared_offsets(self, centers, lo, hi, origin, width):
        """Squared lattice offsets from each distinct center coordinate over
        its window of ``width`` indices from ``origin``; inf outside the
        index range [lo, hi].  Returns them and each center's row in them."""
        values, first, row = np.unique(centers, return_index=True, return_inverse=True)
        idx = origin[first, None] + np.arange(width)
        inside = (idx >= lo[first, None]) & (idx <= hi[first, None])
        return np.where(inside, self.xs[idx] - values[:, None], np.inf) ** 2, row


def _axis_lipschitz(values: np.ndarray, step: float) -> float:
    """Lipschitz estimate from first differences on the probe lattice.

    Per axis the max difference quotient estimates sup of that partial
    derivative; their sum bounds the Euclidean gradient norm from above, so
    the estimate errs on the conservative (smaller radius) side.
    """
    d0 = np.abs(np.diff(values, axis=0)).max() if values.shape[0] > 1 else 0.0
    d1 = np.abs(np.diff(values, axis=1)).max() if values.shape[1] > 1 else 0.0
    return float((d0 + d1) / step)


def compute_constants(table: ProbeTable) -> SplittingConstants:
    """Planning constants of ``table.field`` from its probe-lattice samples.

    Raises FieldValidationError, naming the probe with the smallest
    determinant, unless every sample is finite with a, c and a*c - b^2
    positive.  A constant field has zero Lipschitz estimates; its radius is
    the domain diameter.
    """
    a, b, c, det = table.a, table.b, table.c, table.det
    # A NaN or infinite a, b or c makes det non-finite as well.
    finite = np.isfinite(det)
    if not finite.all() or a.min() <= 0.0 or c.min() <= 0.0 or det.min() <= 0.0:
        worst = np.unravel_index(int(np.argmin(np.where(finite, det, -np.inf))), det.shape)
        point = (float(table.xs[worst[1]]), float(table.xs[worst[0]]))
        raise FieldValidationError(
            f"field {table.field.name!r} is not finite and uniformly positive definite near {point}",
            point=point,
        )
    alpha_bar = float(det.min())
    weight = np.abs(b) + 1.0
    alpha = float(max((a * weight).max(), (c * weight).max()))
    cap_m = float(np.abs(table.ratio_g).max() + alpha_bar / alpha)

    f = table.ratio_f
    f_plus = np.where((b > 0.0) & (f < cap_m), f, cap_m)
    f_minus = np.where((b < 0.0) & (f > -cap_m), f, -cap_m)
    lip_fplus = _axis_lipschitz(f_plus, table.step)
    lip_fminus = _axis_lipschitz(f_minus, table.step)
    lip_g = _axis_lipschitz(table.ratio_g, table.step)
    max_lip = max(lip_fplus, lip_fminus, lip_g)
    if max_lip == 0.0:
        radius = DOMAIN_DIAMETER
    else:
        radius = min(alpha_bar / (3.0 * alpha * max_lip), DOMAIN_DIAMETER)
    return SplittingConstants(
        alpha_bar=alpha_bar,
        alpha=alpha,
        cap_m=cap_m,
        lip_fplus=lip_fplus,
        lip_fminus=lip_fminus,
        lip_g=lip_g,
        radius=radius,
    )


def field_from_expressions(name: str, a, b, c) -> DiffusionField:
    """Build a field from Expression objects or grammar strings."""
    def as_expr(v):
        if isinstance(v, Expression):
            return v
        if isinstance(v, str):
            return parse_expression(v)
        return const(v)

    return DiffusionField(name, as_expr(a), as_expr(b), as_expr(c))


def _exam1_field() -> DiffusionField:
    x, y = var("x"), var("y")
    b = 4.0 * sin(2.0 * const(math.pi) * x * y)
    return DiffusionField("exam1", const(9.0), b, const(3.0))


def _exam3_field() -> DiffusionField:
    x, y = var("x"), var("y")
    b = sin(2.0 * const(math.pi) * x * y)
    return DiffusionField("exam3", const(1.1), b, const(1.1))


def _exam4_field(k: float) -> DiffusionField:
    # Rotation of diag(k, 1) by the angle pi*sin(x)*cos(y).
    x, y = var("x"), var("y")
    theta = const(math.pi) * sin(x) * cos(y)
    ct, st = cos(theta), sin(theta)
    a = const(k) * ct * ct + st * st
    b = const(k - 1.0) * st * ct
    c = const(k) * st * st + ct * ct
    return DiffusionField(f"exam4-k{k:g}", a, b, c)


def _identity_field() -> DiffusionField:
    return DiffusionField("identity", const(1.0), const(0.0), const(1.0))


BUILT_IN_FIELDS = ("exam1", "exam3", "exam4", "identity")


def built_in_field(name: str, k: float = 10.0) -> DiffusionField:
    """Registry of named tensor fields; exam4 takes the anisotropy ratio k."""
    if name == "exam1":
        return _exam1_field()
    if name == "exam3":
        return _exam3_field()
    if name == "exam4":
        return _exam4_field(float(k))
    if name == "identity":
        return _identity_field()
    raise ConfigError(f"unknown built-in field {name!r}; choices: {BUILT_IN_FIELDS}")
