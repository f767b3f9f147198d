"""Per-node stencil planning: direction tables, size selection, boundary clipping.

For stencil half-width m there are 4m lattice directions from the center to
the outer ring of the (2m+1) x (2m+1) stencil, indexed by i in
[-2m+1, 2m]:

    |i| <= m        slope i/m        offset (m, i)
    m < i <= 2m     slope m/(2m-i)   offset (2m-i, m)      (i = 2m vertical)
    -2m < i < -m    slope m/(-2m-i)  offset (2m+i, -m)

A plan stores only (m, i1, i2) per node, index 0 for an empty sign part;
its slopes are the dy/dx of the offsets (``direction_slopes``).

The planner picks, per interior node, the smallest m whose direction table
contains slopes strictly inside the node's admissible intervals.  Intervals
are sampled over the ball of the field-wide planning radius around the node.
The chosen slopes are then checked at the node's four axis-edge midpoints,
where assembly evaluates the x- and y-term coefficients (both sides sample
the field there and apply ``splitting.axis_gamma``); a node that fails is
replanned over the ball augmented with its center and those midpoints, so
the assembled sign structure follows from strict interval placement rather
than from a mesh-size assumption.

Planning is batched and samples the field once per stage: one
``ProbeTable.ball_bounds`` call for every node's ball, one ``evaluate`` call
per axis for the first sign check, and one at the fallback nodes' centers
and midpoints, read by both their merged bounds and the replan's check.
Selection runs one pass per half-width m over the nodes still unresolved,
first over all nodes, then over the fallback subset.  ``select_stencil``
and ``ProbeTable.window_intervals`` are the one-node forms of the kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PlanningError
from .expressions import evaluate
from .field import ProbeTable, SplittingConstants
from .grid import Grid
from .splitting import SLOPE_REDUCTIONS, AngleIntervals, axis_gamma, slope_bounds, slope_ratios

__all__ = [
    "StencilChoice",
    "ArmEndpoint",
    "GridPlan",
    "MeshCondition",
    "direction_offsets",
    "direction_slopes",
    "stencil_upper_bound",
    "select_stencil",
    "clip_arm",
    "clip_arms",
    "plan_grid",
    "check_mesh_condition",
    "DEFAULT_SAFETY",
    "MAX_HALF_WIDTH",
]

# Fraction of the admissible interval kept clear on each side; guards the
# chosen slope against sampling error without distorting wide intervals.
DEFAULT_SAFETY = 0.05

# Largest half-width a plan can store: its int32 direction indices reach 2m.
MAX_HALF_WIDTH = np.iinfo(np.int32).max // 2


def direction_offsets(m, i):
    """Lattice offsets (dx, dy) of direction indices ``i`` at half-widths ``m``.

    Elementwise over arrays, by the three cases of the module docstring;
    offsets are normalized to dx >= 0, which flips dy negative for i < -m.
    """
    m, i = np.asarray(m), np.asarray(i)
    steep, falling = i > m, i < -m
    dx = np.where(steep, 2 * m - i, np.where(falling, 2 * m + i, m))
    dy = np.where(steep, m, np.where(falling, -m, i))
    return dx, dy


def direction_slopes(m, i):
    """Slopes dy/dx of direction indices ``i`` at half-widths ``m``; nan where i = 0.

    Elementwise over arrays; index 0 stands for no direction, as in a plan.
    """
    dx, dy = direction_offsets(m, i)
    with np.errstate(divide="ignore", invalid="ignore"):  # i = 2m is vertical
        return np.where(np.asarray(i) != 0, dy / dx, np.nan)


def stencil_upper_bound(constants: SplittingConstants) -> int:
    """Worst-case half-width floor(3*alpha/alpha_bar) + 1."""
    return int(math.floor(3.0 * constants.alpha / constants.alpha_bar)) + 1


@dataclass(frozen=True)
class StencilChoice:
    m: int
    i1: int | None
    i2: int | None
    tan1: float | None
    tan2: float | None


def _pick_integer(lo, hi, lo_clamp=None, hi_clamp=None):
    """Integer strictly inside (lo, hi) closest to the midpoint; ties take smaller |i|.

    Elementwise over arrays, within the clamps when given.  Returns int64
    values with 0 where the range holds no integer; the planner's clamps
    keep 0 out of every range it asks about.
    """
    low = np.floor(lo) + 1.0
    high = np.ceil(hi) - 1.0
    if lo_clamp is not None:
        low = np.maximum(low, lo_clamp)
    if hi_clamp is not None:
        high = np.minimum(high, hi_clamp)
    mid = 0.5 * (lo + hi)
    # The nearest integers to mid in [low, high] are its floor and the next
    # one, each clamped into the range.
    below = np.clip(np.floor(mid), low, high)
    above = np.clip(below + 1.0, low, high)
    d_below, d_above = np.abs(below - mid), np.abs(above - mid)
    take_above = (d_above < d_below) | ((d_above == d_below) & (np.abs(above) < np.abs(below)))
    return np.where(low <= high, np.where(take_above, above, below), 0.0).astype(np.int64)


def _shrunk(lo, hi, safety: float):
    delta = safety * np.minimum(hi - lo, 1.0)
    return lo + delta, hi - delta


def _direction(m: int, lo, hi):
    """Direction index (0 for none) whose slope lies in (lo, hi), for tan(beta1).

    The b<0 part's tan(beta2) in (lo, hi) is the mirror image: negate the
    index for (-hi, -lo).
    """
    flat = _pick_integer(m * lo, m * hi, lo_clamp=1)
    # 1 <= lo < hi: slopes m/q with q counted from the vertical
    q = _pick_integer(m / hi, m / lo, lo_clamp=1, hi_clamp=m - 1)
    cases = [~(lo < hi), (lo < 1.0) & (1.0 < hi), hi <= 1.0]
    return np.select(cases, [0, m, flat], np.where(q != 0, 2 * m - q, 0))


def _select(bounds, m_cap: int, safety: float, fixed_m: int | None):
    """``select_stencil`` for arrays of bounds (A, B, C, D).

    Returns int32 arrays m, i1, i2, with m = 0 where no half-width up to the
    cap fits and index 0 where a sign part is empty.  Each pass over m
    handles only the nodes still open, and each sign part only at the open
    nodes whose part is nonempty.
    """
    a_sup, b_inf, c_sup, d_inf = bounds
    n = a_sup.size
    m_out, i1, i2 = (np.zeros(n, dtype=np.int32) for _ in range(3))
    need = a_sup != -np.inf, d_inf != np.inf
    m_values = [fixed_m] if fixed_m is not None else range(1, m_cap + 1)
    todo = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for margin in (safety, 0.0) if safety > 0.0 else (0.0,):
            has = [part[todo] for part in need]
            plus_lo, plus_hi = _shrunk(a_sup[todo[has[0]]], b_inf[todo[has[0]]], margin)
            lo, hi = _shrunk(c_sup[todo[has[1]]], d_inf[todo[has[1]]], margin)
            spans = [(plus_lo, plus_hi), (-hi, -lo)]  # the b<0 part on positive slopes
            for m in m_values:
                if todo.size == 0:
                    break
                picks = [np.zeros(todo.size, dtype=np.int64) for _ in has]
                for sign, idx, on, (lo, hi) in zip((1, -1), picks, has, spans):
                    idx[on] = sign * _direction(m, lo, hi)
                done = ((picks[0] != 0) | ~has[0]) & ((picks[1] != 0) | ~has[1])
                m_out[todo[done]] = m
                for out, idx in zip((i1, i2), picks):
                    out[todo[done]] = idx[done]
                keep = ~done
                todo = todo[keep]
                spans = [(lo[keep[on]], hi[keep[on]]) for on, (lo, hi) in zip(has, spans)]
                has = [on[keep] for on in has]
    return m_out, i1, i2


def _no_stencil(intervals: AngleIntervals, m_cap: int, fixed_m: int | None) -> PlanningError:
    tried = f"half-width <= {m_cap}" if fixed_m is None else f"half-width {fixed_m}"
    return PlanningError(f"no admissible stencil with {tried} for intervals {intervals}")


def select_stencil(
    intervals: AngleIntervals,
    m_cap: int,
    safety: float = DEFAULT_SAFETY,
    fixed_m: int | None = None,
) -> StencilChoice:
    """Smallest admissible half-width and direction indices for both parts.

    The search first applies the safety margin; if nothing fits under the cap
    it retries on the raw open intervals, so the guaranteed bound on m is not
    weakened by the margin.  Empty sign parts impose no constraint.  Only
    ``fixed_m`` is tried when given; one-node form of the planner's selection.
    """
    bounds = tuple(np.array([v], dtype=float) for v in
                   (intervals.a_sup, intervals.b_inf, intervals.c_sup, intervals.d_inf))
    m, i1, i2 = (v[0] for v in _select(bounds, m_cap, safety, fixed_m))
    if m == 0:
        raise _no_stencil(intervals, m_cap, fixed_m)
    tan1, tan2 = (float(direction_slopes(m, i)) if i else None for i in (i1, i2))
    return StencilChoice(int(m), int(i1) if i1 else None, int(i2) if i2 else None, tan1, tan2)


@dataclass(frozen=True)
class ArmEndpoint:
    """One end of a directional difference arm.

    ``kind`` is "node" when the endpoint is a mesh node (possibly on the
    boundary) and "boundary" when the ray was clipped at the domain edge.
    ``distance`` is measured from the stencil center.
    """

    kind: str
    point: tuple[float, float]
    distance: float
    node: tuple[int, int] | None
    on_boundary: bool


def clip_arms(grid: Grid, j, k, dx, dy):
    """Endpoints of the arms from interior nodes (j, k) along lattice offsets (dx, dy).

    Elementwise over integer arrays.  An arm whose target leaves the closed
    square is shortened to the intersection of its ray with the boundary; an
    intersection within 1e-9 of a lattice node (a corner, typically) is that
    node.  Returns the endpoint in lattice units (ej, ek), the arm length, and
    the endpoint's interior linear index, or -1 where the endpoint is a
    boundary node or lies between nodes on the boundary.
    """
    n = grid.n
    j, k, dx, dy = np.broadcast_arrays(j, k, dx, dy)
    tj, tk = j + dx, k + dy
    ej, ek = tj.astype(float), tk.astype(float)
    # sqrt of the exact integer dx^2 + dy^2 is correctly rounded, as math.hypot
    # is; squared in int64, where a plan's int32 offsets cannot wrap
    length = grid.h * np.sqrt(np.square(dx, dtype=np.int64) + np.square(dy, dtype=np.int64))
    leaves = (tj < 0) | (tj > n) | (tk < 0) | (tk > n)
    out = np.flatnonzero(leaves)
    if out.size:
        oj, ok, odx, ody, otj, otk = (v[out] for v in (j, k, dx, dy, tj, tk))
        # The exit parameter along an axis the target does not leave is 1; its
        # division, by zero for offsets along the other axis, is not used.
        with np.errstate(divide="ignore", invalid="ignore"):
            tx = np.where(otj < 0, -oj / odx, np.where(otj > n, (n - oj) / odx, 1.0))
            ty = np.where(otk < 0, -ok / ody, np.where(otk > n, (n - ok) / ody, 1.0))
        t = np.minimum(tx, ty)
        cj, ck = oj + t * odx, ok + t * ody
        rj, rk = np.round(cj), np.round(ck)
        snap = (np.abs(cj - rj) < 1e-9) & (np.abs(ck - rk) < 1e-9)
        ej[out], ek[out] = np.where(snap, rj, cj), np.where(snap, rk, ck)
        length[out] *= t
    # A clipped endpoint lies on the boundary, so only unclipped arms can end inside.
    interior = ~leaves & (tj >= 1) & (tj <= n - 1) & (tk >= 1) & (tk <= n - 1)
    col = np.where(interior, (tk - 1) * (n - 1) + (tj - 1), -1).astype(np.int64)
    return ej, ek, length, col


def clip_arm(grid: Grid, node: tuple[int, int], offset: tuple[int, int]) -> ArmEndpoint:
    """Endpoint of the arm from an interior node along a lattice offset.

    One-node form of ``clip_arms``.
    """
    arrays = (np.array([v]) for v in (*node, *offset))
    ej, ek, length, col = (float(v[0]) for v in clip_arms(grid, *arrays))
    lattice = ej.is_integer() and ek.is_integer()
    return ArmEndpoint(
        kind="node" if lattice else "boundary",
        point=(ej / grid.n, ek / grid.n),
        distance=length,
        node=(int(ej), int(ek)) if lattice else None,
        on_boundary=col < 0,
    )


@dataclass
class GridPlan:
    """Vectorized per-node plans for one grid and field."""

    grid: Grid
    constants: SplittingConstants
    m: np.ndarray
    i1: np.ndarray  # 0 means no plus direction
    i2: np.ndarray  # 0 means no minus direction
    fallback_nodes: int = 0  # nodes replanned over the midpoint-augmented intervals
    empty_balls: int = 0  # nodes whose planning ball held no probe sample

    @property
    def tan1(self) -> np.ndarray:
        """Slope of each node's plus direction; nan where it has none."""
        return direction_slopes(self.m, self.i1)

    @property
    def tan2(self) -> np.ndarray:
        """Slope of each node's minus direction; nan where it has none."""
        return direction_slopes(self.m, self.i2)

    @property
    def max_m(self) -> int:
        return int(self.m.max())

    def m_histogram(self) -> dict[int, int]:
        values, counts = np.unique(self.m, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def dump(self, stream) -> None:
        """One line per node: j k m i1 tan1 i2 tan2 clipped-arm-count."""
        stream.write("# j k m i1 tan_beta1 i2 tan_beta2 clipped_arms\n")
        grid = self.grid
        J, K = grid.interior_nodes()
        clipped = np.zeros(J.size, dtype=np.int64)
        for i in (self.i1, self.i2):
            on = np.flatnonzero(i)
            dx, dy = direction_offsets(self.m[on], i[on])
            for sign in (1, -1):
                ej, ek, _, _ = clip_arms(grid, J[on], K[on], sign * dx, sign * dy)
                clipped[on] += (ej % 1 != 0) | (ek % 1 != 0)  # ends between boundary nodes
        tan1, tan2 = self.tan1, self.tan2
        for idx in range(J.size):
            m, i1, i2 = int(self.m[idx]), int(self.i1[idx]), int(self.i2[idx])
            t1, t2 = repr(float(tan1[idx])), repr(float(tan2[idx]))
            stream.write(f"{J[idx]} {K[idx]} {m} {i1} {t1} {i2} {t2} {clipped[idx]}\n")


def _axis_points(x, y, half: float, idx):
    """Centers of the nodes ``idx`` (an index array or ``slice(None)``) of the
    interior coordinates (x, y), and their x-edge midpoints x -+ half and
    y-edge midpoints y -+ half, each as (xs, ys) with one row per point."""
    x, y = x[idx], y[idx]
    x_edges = np.stack([x - half, x + half]), np.stack([y, y])
    y_edges = np.stack([x, x]), np.stack([y - half, y + half])
    return (x, y), x_edges, y_edges


def _axis_safe(samples, m: np.ndarray, i1: np.ndarray, i2: np.ndarray) -> np.ndarray:
    """Per node planned with (m, i1, i2): gamma0 at its x-edge and gamma2 at
    its y-edge midpoints are nonnegative.

    ``samples`` holds (a, b) at the x-edge and (c, b) at the y-edge
    midpoints, one row per point.  A midpoint carrying a sign of b for which
    the choice has no direction has an undefined (nan) coefficient, and is
    unsafe like a negative one.
    """
    tan1, tan2 = direction_slopes(m, i1), direction_slopes(m, i2)
    gamma0, gamma2 = (axis_gamma(d, b, tan1, tan2, which) for which, (d, b) in enumerate(samples))
    return (gamma0 >= 0.0).all(axis=0) & (gamma2 >= 0.0).all(axis=0)


def plan_grid(grid: Grid, table: ProbeTable, fixed_m: int | None = None) -> GridPlan:
    """Plan every interior node of the grid for the field of ``table``.

    Selection runs over the ball intervals (radius ``table.constants.radius``,
    independent of the mesh spacing) with the ``DEFAULT_SAFETY`` margin and
    half-widths up to ``stencil_upper_bound`` (``fixed_m`` alone when given);
    the chosen angles are checked for sign safety at the 4 axis-edge
    midpoints the assembler will use.  Unsafe nodes are replanned over the
    midpoint-augmented intervals, which makes safety structural at the cost
    of a possibly larger m there.  Raises PlanningError naming the first
    fallback node whose intervals admit no direction pair at the half-widths
    tried, or whose replanned pair is still not sign-safe.
    """
    m_cap = stencil_upper_bound(table.constants)
    if fixed_m is not None and not 1 <= fixed_m <= MAX_HALF_WIDTH:
        raise PlanningError(f"fixed stencil half-width must lie in [1, {MAX_HALF_WIDTH}], got {fixed_m}")
    field, half = table.field, 0.5 * grid.h
    # Allocated before the ball bounds: among the blocks they free, this heap
    # layout raised exam3 N=511's solve peak RSS from 380 to 402 MB (glibc).
    x, y = grid.interior_coords()
    # The interior coordinates of either axis, as in grid.interior_coords.
    axis = np.arange(1, grid.n) / grid.n
    bounds, empty = table.ball_bounds(axis, axis, table.constants.radius)
    m, i1, i2 = _select(bounds, m_cap, DEFAULT_SAFETY, fixed_m)
    _, *edges = _axis_points(x, y, half, slice(None))
    samples = [evaluate((d, field.b), xs, ys) for d, (xs, ys) in zip((field.a, field.c), edges)]
    fallback = np.flatnonzero((m == 0) | ~_axis_safe(samples, m, i1, i2))

    # One sample of each fallback node's center and midpoints serves both
    # its merged bounds and the replan's sign check.  The midpoints are exact
    # members of the merged sample set, so strict placement alone protects
    # them; no margin here keeps the fallback stencils as small as possible.
    a, b, c = field.tensor_arrays(*(np.vstack(rows) for rows in zip(*_axis_points(x, y, half, fallback))))
    special = slope_bounds(*slope_ratios(a, b, c), b > 0.0, b < 0.0, axis=0)
    merged = tuple(ufunc(ball[fallback], v) for (ufunc, _), ball, v in zip(SLOPE_REDUCTIONS, bounds, special))
    replan = _select(merged, m_cap, 0.0, fixed_m)
    failed = replan[0] == 0
    unsafe = ~failed & ~_axis_safe(((a[1:3], b[1:3]), (c[3:], b[3:])), *replan)
    bad = failed | unsafe
    if bad.any():
        first = int(np.argmax(bad))
        j, k = grid.node_from_linear(int(fallback[first]))
        intervals = AngleIntervals(*(float(v[first]) for v in merged))
        if failed[first]:
            exc = _no_stencil(intervals, m_cap, fixed_m)
            message = f"planning failed at node (j={j}, k={k}): {exc}"
        else:
            message = f"no sign-safe direction pair at node (j={j}, k={k})"
        raise PlanningError(message, node=(j, k))
    for out, values in zip((m, i1, i2), replan):
        out[fallback] = values

    return GridPlan(
        grid=grid,
        constants=table.constants,
        m=m,
        i1=i1,
        i2=i2,
        fallback_nodes=int(fallback.size),
        empty_balls=int(empty.sum()),
    )


@dataclass(frozen=True)
class MeshCondition:
    """Verdict on sqrt(2)*h*max_m <= radius, with the slack either way."""

    passed: bool
    lhs: float
    radius: float
    slack: float


def check_mesh_condition(plan: GridPlan) -> MeshCondition:
    """Check that every stencil of the plan fits inside its planning ball.

    Failure does not invalidate an assembled system (the matrix audit is the
    direct certificate) but it voids the a priori guarantee, so callers should
    surface it.
    """
    lhs = math.sqrt(2.0) * plan.grid.h * plan.max_m
    radius = plan.constants.radius
    return MeshCondition(passed=bool(lhs <= radius), lhs=lhs, radius=radius, slack=radius - lhs)
