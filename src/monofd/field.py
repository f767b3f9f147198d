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

The probe table splits its samples by sign once: a sample is in the plus
part where b/a > 0 and in the minus part where b/a < 0.  Since a > 0 that is
the sign of b, except where b != 0 and b/a underflows to +-0; such a sample
counts as b = 0 in the table's constants and ball bounds.  The planner's
exact check at its nodes' centers and edge midpoints still reads b itself.

Suprema and infima are lattice estimates, not certificates; the planner adds
its own safety margin on top (see stencil.plan_grid and DEFAULT_SAFETY).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FieldValidationError
from .expressions import Expression, evaluate, parse_expression
from .splitting import SLOPE_REDUCTIONS

__all__ = [
    "DiffusionField",
    "SplittingConstants",
    "ProbeTable",
    "compute_constants",
    "field_from_expressions",
]

DOMAIN_DIAMETER = math.sqrt(2.0)

# Cap on the running-reduction tables ProbeTable.ball_bounds builds for one
# sign-split ratio and one chunk of center rows; 2 MB measured fastest or
# even with 4 MB (0.5 MB about 30% slower, 8 MB 4-27% slower).
_CHUNK_BYTES = 1 << 21

# Finest probe step accepted; its lattice already holds 1e8 samples per array.
_MIN_PROBE_STEP = 1e-4


@dataclass(frozen=True)
class DiffusionField:
    """Symmetric 2x2 tensor field with expression-backed entries."""

    name: str
    a: Expression
    b: Expression
    c: Expression

    def tensor_arrays(self, x, y):
        """Entries (a, b, c) at the points, read-only, from one ``evaluate``
        call over the three trees; domain checking is the caller's concern."""
        return evaluate((self.a, self.b, self.c), x, y)


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
    """Dense lattice samples of the planning ratios and the field's planning
    ``constants``: ``ratio_g`` = b/a, and c/b split by the sign of b/a as
    ``f_plus`` (+inf where b/a <= 0) and ``f_minus`` (-inf where b/a >= 0).
    ``row_parts[0]``/``[1]`` mark the lattice rows holding a sample with
    b/a > 0 / b/a < 0.  Axis 0 indexes y, axis 1 indexes x.  The planner
    reduces the ratios over balls around its nodes, so they are computed
    once per field.  Raises FieldValidationError unless the field is finite
    and uniformly positive definite on the lattice.
    """

    def __init__(self, field: DiffusionField, probe_step: float = 1e-3):
        self.field = field
        xs = _lattice(probe_step)
        self.xs = xs
        self.step = xs[1] - xs[0]
        # Allocated in this order, a table mostly reuses the heap pages of the
        # one before it (measured by page faults over repeated prepares).
        self.f_minus = f_minus = np.empty((xs.size, xs.size))
        a, b, c = field.tensor_arrays(xs[None, :], xs[:, None])
        with np.errstate(all="ignore"):  # c/b is +-inf where b = 0; the check reports the rest
            self.ratio_g, self.f_plus = g, f_plus = b / a, c / b
        alpha_bar, alpha = _definite_bounds(self, a, b, c)
        del a, b, c  # before the masks and the constants' temporaries, to lower the peak
        plus, minus = g > 0.0, g < 0.0
        np.copyto(f_minus, -np.inf)
        np.copyto(f_minus, f_plus, where=minus)
        np.copyto(f_plus, np.inf, where=~plus)
        self.row_parts = np.stack([plus.any(axis=1), minus.any(axis=1)])
        self.constants = compute_constants(self, alpha_bar, alpha)

    def window_intervals(self, x0: float, y0: float, radius: float):
        """Raw (A, B, C, D) over lattice points strictly inside the ball.

        Returns (sup b/a on b/a>0, inf c/b on b/a>0, sup c/b on b/a<0, inf
        b/a on b/a<0) with -inf/+inf standing in for empty parts.  One-node
        form of ``ball_bounds``.
        """
        bounds, _ = self.ball_bounds(np.array([x0], dtype=float), np.array([y0], dtype=float), radius)
        return tuple(float(v[0]) for v in bounds)

    def ball_bounds(self, xc: np.ndarray, yc: np.ndarray, radius: float):
        """(A, B, C, D) of ``window_intervals`` for the centers (xc[u], yc[v]).

        Centers run in row-major order, v outer, as a grid's linear order.
        Returns the four bound arrays and a boolean array marking the balls
        that hold no probe sample.  A is sup b/a over the ball, -inf where
        that is <= 0, D is inf b/a, +inf where that is >= 0, and B and C
        reduce the table's ``f_plus`` and ``f_minus``.  A lattice sample is
        in a ball when dx2 + dy2 < radius**2, over the squared offsets of
        ``_squared_offsets``.  Each row of centers has one arm: its window
        rows in increasing dy2.  The float sum is monotone in dy2, so in
        each lattice column a ball holds a prefix of its arm; rows of equal
        dy2 are in or out together, so their order does not matter.  Its
        length comes from a search over the sorted distinct dx2, and each
        column's bound from one lookup in running reductions of the ratios
        along the arm.  The tables cover a chunk of center rows at a time, at
        most ``_CHUNK_BYTES`` per ratio, and are skipped for a sign part that
        no arm row of the chunk holds; no per-node mask is built.
        """
        xs, step, last = self.xs, self.step, self.xs.size - 1

        def index_range(centers):
            lo = np.maximum(0, np.ceil((centers - radius) / step)).astype(np.intp)
            hi = np.minimum(last, np.floor((centers + radius) / step)).astype(np.intp)
            return lo, hi

        ilo, ihi = index_range(xc)
        jlo, jhi = index_range(yc)
        bounds = [np.full((yc.size, xc.size), fill) for _, fill in SLOPE_REDUCTIONS]
        empty = np.ones((yc.size, xc.size), dtype=bool)
        rows = np.flatnonzero(jlo <= jhi)
        if rows.size == 0 or not (ilo <= ihi).any():
            return tuple(out.reshape(-1) for out in bounds), empty.reshape(-1)
        jlo, jhi = jlo[rows], jhi[rows]
        i0, j0 = int(ilo[ilo <= ihi].min()), int(jlo.min())
        box = np.s_[j0 : int(jhi.max()) + 1, i0 : int(ihi.max()) + 1]
        parts = self.ratio_g[box], self.f_plus[box], self.f_minus[box], self.ratio_g[box]
        row_parts = self.row_parts[:, box[0]]
        height, width = parts[0].shape

        r2 = radius**2
        # Window samples run along axis 0 from here on, so the reduction over
        # a window is elementwise over contiguous slabs.
        dx2 = self._squared_offsets(xc, ilo, ihi).T
        values, rank = np.unique(dx2, return_inverse=True)
        rank = rank.reshape(dx2.shape)
        # Box column of each window sample; one past a window's end has
        # dx2 = inf and reads only a table's fill row.
        col = np.clip(ilo - i0 + np.arange(dx2.shape[0])[:, None], 0, width - 1)[:, :, None]

        dy2 = self._squared_offsets(yc[rows], jlo, jhi)
        order = np.argsort(dy2, axis=1)
        lengths = _prefix_lengths(values, np.take_along_axis(dy2, order, axis=1).T, r2)
        # The arms' box rows, clipped past a window's end, where no lookup reaches.
        arms = np.clip(jlo - j0 + order.T, 0, height - 1)

        chunk = max(1, _CHUNK_BYTES // (8 * width * (arms.shape[0] + 1)))
        for start in range(0, rows.size, chunk):
            span = slice(start, start + chunk)
            block = rows[span]
            # How many samples each window column takes from its arm, then
            # where the arm's running reductions hold them.
            taken = _arm_prefixes(lengths[:, span], rank, values.size)
            empty[block] = (taken == 0).all(axis=0).T
            lookup = ((taken * block.size + np.arange(block.size)) * width + col).reshape(-1)
            present = row_parts[:, arms[:, span]].any(axis=(1, 2))
            for out, part, (ufunc, fill), sign in zip(bounds, parts, SLOPE_REDUCTIONS, (0, 0, 1, 1)):
                if present[sign]:
                    found = _running(ufunc, fill, part, arms[:, span]).take(lookup)
                    out[block] = ufunc.reduce(found.reshape(taken.shape), axis=0).T
        # A sup of b/a that is <= 0, or an inf that is >= 0, met no sample of its part.
        np.copyto(bounds[0], -np.inf, where=bounds[0] <= 0.0)
        np.copyto(bounds[3], np.inf, where=bounds[3] >= 0.0)
        return tuple(out.reshape(-1) for out in bounds), empty.reshape(-1)

    def _squared_offsets(self, centers, lo, hi):
        """Squared lattice offsets (xs[i] - center)**2 over each center's
        index range [lo, hi], from lo on; inf past hi, to the widest range."""
        idx = lo[:, None] + np.arange(int((hi - lo).max()) + 1)
        offsets = self.xs[np.minimum(idx, self.xs.size - 1)] - centers[:, None]
        return np.where(idx <= hi[:, None], offsets, np.inf) ** 2


def _prefix_lengths(values, offsets, r2):
    """For each entry d of ``offsets``, how many of the sorted ``values``
    satisfy value + d < r2: a prefix of them, as the float sum is monotone."""
    lo = np.zeros(offsets.shape, dtype=np.intp)
    hi = np.full(offsets.shape, values.size)
    for _ in range(values.size.bit_length()):
        mid = (lo + hi) // 2
        ok = (lo < hi) & (values[np.minimum(mid, values.size - 1)] + offsets < r2)
        lo, hi = np.where(ok, mid + 1, lo), np.where(ok, hi, mid)
    return lo


def _arm_prefixes(lengths, rank, size):
    """For every rank in ``rank`` and every arm (a column of ``lengths``),
    how many of the arm's entries k have rank < lengths[k]; the arms run
    along the last axis of the result.

    An arm is one center row's window rows in increasing dy2, and
    ``lengths`` holds, per arm entry, ``_prefix_lengths`` of ``size`` sorted
    values; it is non-increasing along each arm, so the entries counted are
    a prefix.
    """
    arms = lengths.shape[1]
    counts = np.bincount((lengths * arms + np.arange(arms)).reshape(-1), minlength=(size + 1) * arms)
    # above[a, v]: entries of arm v whose length exceeds a
    above = np.cumsum(counts.reshape(size + 1, arms)[:0:-1], axis=0)[::-1]
    return above[rank]


def _running(ufunc, fill, part, arm_rows):
    """Running reductions of ``part`` along the box rows of each arm (a
    column of ``arm_rows``, one center row's window rows in increasing dy2):
    entry p reduces an arm's first p rows, with ``fill`` for p = 0."""
    table = np.empty((arm_rows.shape[0] + 1, arm_rows.shape[1], part.shape[1]))
    table[0] = fill
    for p, at in enumerate(arm_rows):
        ufunc(table[p], part[at], out=table[p + 1])
    return table


def _axis_lipschitz(values: np.ndarray, step: float) -> float:
    """Lipschitz estimate from first differences on the probe lattice.

    Per axis the max difference quotient estimates sup of that partial
    derivative; their sum bounds the Euclidean gradient norm from above, so
    the estimate errs on the conservative (smaller radius) side.
    """
    def largest_step(axis):
        # max |diff| without an array of absolute values
        d = np.diff(values, axis=axis)
        return max(abs(d.max()), abs(d.min()))

    return float((largest_step(0) + largest_step(1)) / step)


def _definite_bounds(table: ProbeTable, a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """``alpha_bar`` and ``alpha`` of ``table.field`` from its probe-lattice
    samples ``a``, ``b`` and ``c``.  Raises FieldValidationError, naming the
    probe with the smallest determinant, unless every sample is finite with
    a, c and a*c - b^2 positive."""
    with np.errstate(invalid="ignore", over="ignore"):
        det = a * c - b**2
    # A NaN or infinite a, b or c makes det non-finite as well.
    finite = np.isfinite(det)
    if not finite.all() or a.min() <= 0.0 or c.min() <= 0.0 or det.min() <= 0.0:
        worst = np.unravel_index(int(np.argmin(np.where(finite, det, -np.inf))), det.shape)
        point = (float(table.xs[worst[1]]), float(table.xs[worst[0]]))
        raise FieldValidationError(
            f"field {table.field.name!r} is not finite and uniformly positive definite near {point}")
    weight = np.abs(b) + 1.0
    return float(det.min()), float(max((a * weight).max(), (c * weight).max()))


def compute_constants(table: ProbeTable, alpha_bar: float, alpha: float) -> SplittingConstants:
    """Planning constants of ``table.field`` from its sign-split ratios and
    the bounds ``alpha_bar`` and ``alpha`` of its entries.

    The cut-off ratios are c/b capped at ``cap_m`` on the plus part and at
    -``cap_m`` on the minus part, the cap standing in off the part.  A
    constant field has zero Lipschitz estimates; its radius is the domain
    diameter.
    """
    g = table.ratio_g
    cap_m = float(max(g.max(), -g.min()) + alpha_bar / alpha)
    capped = np.minimum(table.f_plus, cap_m)
    lip_fplus = _axis_lipschitz(capped, table.step)
    lip_fminus = _axis_lipschitz(np.maximum(table.f_minus, -cap_m, out=capped), table.step)
    lip_g = _axis_lipschitz(g, table.step)
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


def field_from_expressions(name: str, a: str, b: str, c: str) -> DiffusionField:
    """Build a field from the grammar text of its entries a, b and c."""
    return DiffusionField(name, parse_expression(a), parse_expression(b), parse_expression(c))
