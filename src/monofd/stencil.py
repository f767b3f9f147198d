"""Per-node stencil planning: direction tables, size selection, boundary clipping.

For stencil half-width m there are 4m lattice directions from the center to
the outer ring of the (2m+1) x (2m+1) stencil, indexed by i in
[-2m+1, 2m]:

    |i| <= m        slope i/m        offset (m, i)
    m < i <= 2m     slope m/(2m-i)   offset (2m-i, m)      (i = 2m vertical)
    -2m < i < -m    slope m/(-2m-i)  offset (2m+i, -m)

The planner picks, per interior node, the smallest m whose direction table
contains slopes strictly inside the node's admissible intervals.  Intervals
are sampled over the ball of the field-wide planning radius around the node.
The chosen slopes are then checked at the node's four axis-edge midpoints,
where assembly evaluates the x- and y-term coefficients; a node that fails
is replanned over the ball augmented with its center and those midpoints,
so the assembled sign structure follows from strict interval placement
rather than from a mesh-size assumption.

Planning is batched: the ball bounds of every node come from one
``ProbeTable.ball_bounds`` call, and selection runs as one pass per
half-width m over the nodes still unresolved, first over all nodes and
then over the fallback subset.  ``select_stencil`` and
``ProbeTable.window_intervals`` are the one-node forms of the same kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PlanningError
from .field import DiffusionField, ProbeTable, SplittingConstants
from .grid import Grid
from .splitting import SLOPE_REDUCTIONS, AngleIntervals, slope_bounds

__all__ = [
    "PrincipalDirections",
    "StencilChoice",
    "ArmEndpoint",
    "GridPlan",
    "MeshCondition",
    "principal_directions",
    "stencil_upper_bound",
    "select_stencil",
    "clip_arm",
    "plan_grid",
    "check_mesh_condition",
    "DEFAULT_SAFETY",
]

# Fraction of the admissible interval kept clear on each side; guards the
# chosen slope against sampling error without distorting wide intervals.
DEFAULT_SAFETY = 0.05


@dataclass(frozen=True)
class PrincipalDirections:
    """Direction table for half-width m: index -> angle and lattice offset."""

    m: int
    angles: dict[int, float]
    offsets: dict[int, tuple[int, int]]


def principal_directions(m: int) -> PrincipalDirections:
    """All 4m distinct directions (mod pi) to the outer ring of the stencil."""
    if m < 1:
        raise PlanningError(f"stencil half-width must be >= 1, got {m}")
    angles: dict[int, float] = {}
    offsets: dict[int, tuple[int, int]] = {}
    for i in range(-m, m + 1):
        angles[i] = math.atan(i / m)
        offsets[i] = (m, i)
    for i in range(m + 1, 2 * m + 1):
        dx = 2 * m - i
        angles[i] = math.pi / 2 if dx == 0 else math.atan(m / dx)
        offsets[i] = (dx, m)
    for i in range(-2 * m + 1, -m):
        # Offsets are normalized to dx > 0, which flips dy negative.
        angles[i] = math.atan(m / (-2 * m - i))
        offsets[i] = (2 * m + i, -m)
    return PrincipalDirections(m, angles, offsets)


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
    """Direction index (0 for none) and slope for tan(beta1) in (lo, hi).

    The b<0 part's tan(beta2) in (lo, hi) is the mirror image: negate the
    result for (-hi, -lo).
    """
    flat = _pick_integer(m * lo, m * hi, lo_clamp=1)
    # 1 <= lo < hi: slopes m/q with q counted from the vertical
    q = _pick_integer(m / hi, m / lo, lo_clamp=1, hi_clamp=m - 1)
    cases = [~(lo < hi), (lo < 1.0) & (1.0 < hi), hi <= 1.0]
    i = np.select(cases, [0, m, flat], np.where(q != 0, 2 * m - q, 0))
    return i, np.select(cases[1:], [1.0, flat / m], m / q)


def _select(bounds, m_cap: int, safety: float, fixed_m: int | None):
    """``select_stencil`` for arrays of bounds (A, B, C, D).

    Returns int32 arrays m, i1, i2 and float arrays tan1, tan2, with m = 0
    where no half-width up to the cap fits, index 0 and slope nan where a
    sign part is empty.  Each pass over m handles only the nodes still open.
    """
    a_sup, b_inf, c_sup, d_inf = bounds
    n = a_sup.size
    m_out, i1, i2 = (np.zeros(n, dtype=np.int32) for _ in range(3))
    tan1, tan2 = np.full(n, np.nan), np.full(n, np.nan)
    need_plus, need_minus = a_sup != -np.inf, d_inf != np.inf
    m_values = [fixed_m] if fixed_m is not None else range(1, m_cap + 1)
    todo = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for margin in (safety, 0.0) if safety > 0.0 else (0.0,):
            plus_lo, plus_hi = _shrunk(a_sup[todo], b_inf[todo], margin)
            lo, hi = _shrunk(c_sup[todo], d_inf[todo], margin)
            mirror_lo, mirror_hi = -hi, -lo  # the b<0 part on positive slopes
            for m in m_values:
                if todo.size == 0:
                    break
                p_i, p_tan = _direction(m, plus_lo, plus_hi)
                n_i, n_tan = (-v for v in _direction(m, mirror_lo, mirror_hi))
                has_plus, has_minus = need_plus[todo], need_minus[todo]
                done = ((p_i != 0) | ~has_plus) & ((n_i != 0) | ~has_minus)
                m_out[todo[done]] = m
                for ok, idx_out, tan_out, idx, tan in (
                    (done & has_plus, i1, tan1, p_i, p_tan),
                    (done & has_minus, i2, tan2, n_i, n_tan),
                ):
                    idx_out[todo[ok]] = idx[ok]
                    tan_out[todo[ok]] = tan[ok]
                keep = ~done
                todo = todo[keep]
                plus_lo, plus_hi = plus_lo[keep], plus_hi[keep]
                mirror_lo, mirror_hi = mirror_lo[keep], mirror_hi[keep]
    return m_out, i1, i2, tan1, tan2


def _no_stencil(intervals: AngleIntervals, m_cap: int) -> PlanningError:
    return PlanningError(
        f"no admissible stencil with half-width <= {m_cap} for intervals {intervals}",
        intervals=intervals,
    )


def select_stencil(
    intervals: AngleIntervals,
    m_cap: int,
    safety: float = DEFAULT_SAFETY,
    fixed_m: int | None = None,
) -> StencilChoice:
    """Smallest admissible half-width and direction indices for both parts.

    The search first applies the safety margin; if nothing fits under the cap
    it retries on the raw open intervals, so the guaranteed bound on m is not
    weakened by the margin.  Empty sign parts impose no constraint.
    One-node form of the planner's array selection.
    """
    bounds = tuple(np.array([v], dtype=float) for v in
                   (intervals.a_sup, intervals.b_inf, intervals.c_sup, intervals.d_inf))
    m, i1, i2, tan1, tan2 = (v[0] for v in _select(bounds, m_cap, safety, fixed_m))
    if m == 0:
        raise _no_stencil(intervals, m_cap)
    return StencilChoice(
        int(m),
        int(i1) if i1 else None,
        int(i2) if i2 else None,
        float(tan1) if i1 else None,
        float(tan2) if i2 else None,
    )


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


def clip_arm(grid: Grid, node: tuple[int, int], offset: tuple[int, int]) -> ArmEndpoint:
    """Endpoint of the arm from an interior node along a lattice offset.

    If the target lattice point leaves the closed square the arm is shortened
    to the intersection of the ray with the boundary; an intersection landing
    exactly on a lattice node (a corner, typically) is reported as that node.
    """
    j, k = node
    dx, dy = offset
    tj, tk = j + dx, k + dy
    n = grid.n
    full = grid.h * math.hypot(dx, dy)
    if 0 <= tj <= n and 0 <= tk <= n:
        return ArmEndpoint(
            kind="node",
            point=(tj / n, tk / n),
            distance=full,
            node=(tj, tk),
            on_boundary=tj in (0, n) or tk in (0, n),
        )
    t = 1.0
    if tj < 0:
        t = min(t, (0 - j) / dx)
    elif tj > n:
        t = min(t, (n - j) / dx)
    if tk < 0:
        t = min(t, (0 - k) / dy)
    elif tk > n:
        t = min(t, (n - k) / dy)
    cj, ck = j + t * dx, k + t * dy
    rj, rk = round(cj), round(ck)
    if abs(cj - rj) < 1e-9 and abs(ck - rk) < 1e-9:
        return ArmEndpoint("node", (rj / n, rk / n), t * full, (int(rj), int(rk)), True)
    return ArmEndpoint("boundary", (cj / n, ck / n), t * full, None, True)


@dataclass
class GridPlan:
    """Vectorized per-node plans for one grid and field."""

    grid: Grid
    constants: SplittingConstants
    m: np.ndarray
    i1: np.ndarray  # 0 means no plus direction
    i2: np.ndarray  # 0 means no minus direction
    tan1: np.ndarray  # nan where unused
    tan2: np.ndarray
    a_sup: np.ndarray
    b_inf: np.ndarray
    c_sup: np.ndarray
    d_inf: np.ndarray
    fallback_nodes: int = 0  # nodes replanned over the midpoint-augmented intervals
    empty_balls: int = 0  # nodes whose planning ball held no probe sample

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
        tables = {int(m): principal_directions(int(m)).offsets for m in np.unique(self.m)}
        for idx in range(grid.interior_count):
            node = grid.node_from_linear(idx)
            m, i1, i2 = int(self.m[idx]), int(self.i1[idx]), int(self.i2[idx])
            offsets = tables[m]
            clipped = 0
            for i in (i1, i2):
                if i:
                    dx, dy = offsets[i]
                    for off in ((dx, dy), (-dx, -dy)):
                        clipped += clip_arm(grid, (node.j, node.k), off).kind == "boundary"
            t1 = repr(float(self.tan1[idx])) if i1 else "nan"
            t2 = repr(float(self.tan2[idx])) if i2 else "nan"
            stream.write(f"{node.j} {node.k} {m} {i1} {t1} {i2} {t2} {clipped}\n")


class _SpecialPoints:
    """Tensor samples at each node's center and 4 axis-edge midpoints.

    These are exactly the points where assembly evaluates the axis-term
    coefficients, so they both extend the planning intervals (fallback path)
    and back the post-selection safety check.
    """

    def __init__(self, field: DiffusionField, grid: Grid):
        X, Y = grid.interior_coords()
        half = 0.5 * grid.h
        pts_x = np.stack([X, X - half, X + half, X, X])
        pts_y = np.stack([Y, Y, Y, Y - half, Y + half])
        self.a, self.b, self.c = field.tensor_arrays(pts_x, pts_y)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = self.b / self.a
            f = np.where(self.b != 0.0, self.c / self.b, np.nan)
        self.bounds = slope_bounds(g, f, self.b > 0.0, self.b < 0.0, axis=0)

    def choice_is_safe(self, idx: np.ndarray, tan1: np.ndarray, tan2: np.ndarray) -> np.ndarray:
        """Per node of ``idx``: gamma0/gamma2 stay nonnegative at the 4 edge midpoints.

        Midpoints carrying a sign of b for which the choice has no direction
        (slope nan) are unsafe by definition (assembly could not evaluate them).
        """
        a, b, c = self.a[1:, idx], self.b[1:, idx], self.c[1:, idx]
        tan = np.where(b > 0.0, tan1, tan2)
        gamma = np.concatenate([a[:2] - b[:2] / tan[:2],  # x-edge midpoints carry gamma0
                                c[2:] - b[2:] * tan[2:]])  # y-edge midpoints carry gamma2
        unsafe = (b != 0.0) & (np.isnan(tan) | (gamma < 0.0))
        return ~unsafe.any(axis=0)


def plan_grid(
    grid: Grid,
    field: DiffusionField,
    constants: SplittingConstants,
    table: ProbeTable,
    m_cap: int | None = None,
    fixed_m: int | None = None,
    safety: float = DEFAULT_SAFETY,
) -> GridPlan:
    """Plan every interior node of the grid.

    Selection runs over the ball intervals (which do not depend on the mesh
    spacing); the chosen angles are then checked for sign safety at the 4
    axis-edge midpoints the assembler will use.  Unsafe nodes are replanned
    over the midpoint-augmented intervals, which makes safety structural at
    the cost of a possibly larger m there.  Raises PlanningError naming the
    first node whose intervals admit no direction pair under the cap.
    """
    if m_cap is None:
        m_cap = stencil_upper_bound(constants)
    if fixed_m is not None and fixed_m < 1:
        raise PlanningError(f"fixed stencil half-width must be >= 1, got {fixed_m}")
    X, Y = grid.interior_coords()
    specials = _SpecialPoints(field, grid)
    bounds, empty = table.ball_bounds(X, Y, constants.radius)
    m, i1, i2, tan1, tan2 = _select(bounds, m_cap, safety, fixed_m)
    every = np.arange(X.size)
    fallback = np.flatnonzero((m == 0) | ~specials.choice_is_safe(every, tan1, tan2))

    # The midpoints are exact members of the merged sample set, so strict
    # placement alone protects them; no margin here keeps the fallback
    # stencils as small as possible.
    merged = tuple(
        ufunc(ball[fallback], special[fallback])
        for (ufunc, _), ball, special in zip(SLOPE_REDUCTIONS, bounds, specials.bounds)
    )
    replan = _select(merged, m_cap, 0.0, fixed_m)
    failed = replan[0] == 0
    unsafe = ~failed & ~specials.choice_is_safe(fallback, replan[3], replan[4])
    bad = failed | unsafe
    if bad.any():
        first = int(np.argmax(bad))
        node = grid.node_from_linear(int(fallback[first]))
        intervals = AngleIntervals(*(float(v[first]) for v in merged))
        if failed[first]:
            exc = _no_stencil(intervals, m_cap)
            message = f"planning failed at node (j={node.j}, k={node.k}): {exc}"
        else:
            message = f"no sign-safe direction pair at node (j={node.j}, k={node.k})"
        raise PlanningError(message, node=(node.j, node.k), intervals=intervals)
    for out, values in zip((m, i1, i2, tan1, tan2), replan):
        out[fallback] = values
    for ball, values in zip(bounds, merged):
        ball[fallback] = values

    return GridPlan(
        grid=grid,
        constants=constants,
        m=m,
        i1=i1,
        i2=i2,
        tan1=tan1,
        tan2=tan2,
        a_sup=bounds[0],
        b_inf=bounds[1],
        c_sup=bounds[2],
        d_inf=bounds[3],
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


def check_mesh_condition(grid: Grid, plan: GridPlan, constants: SplittingConstants) -> MeshCondition:
    """Check that every stencil fits inside its planning ball.

    Failure does not invalidate an assembled system (the matrix audit is the
    direct certificate) but it voids the a priori guarantee, so callers should
    surface it.
    """
    lhs = math.sqrt(2.0) * grid.h * plan.max_m
    return MeshCondition(
        passed=bool(lhs <= constants.radius),
        lhs=lhs,
        radius=constants.radius,
        slack=constants.radius - lhs,
    )
