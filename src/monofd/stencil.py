"""Per-node stencil planning: direction tables, size selection, boundary clipping.

For stencil half-width m there are 4m lattice directions from the center to
the outer ring of the (2m+1) x (2m+1) stencil, indexed by i in
[-2m+1, 2m]:

    |i| <= m        slope i/m        offset (m, i)
    m < i <= 2m     slope m/(2m-i)   offset (2m-i, m)      (i = 2m vertical)
    -2m < i < -m    slope m/(-2m-i)  offset (2m+i, -m)

The planner picks, per interior node, the smallest m whose direction table
contains slopes strictly inside the node's admissible intervals.  Intervals
are sampled over the ball of the field-wide planning radius around the node,
always augmented with the node itself and its four axis-edge midpoints: the
x- and y-term coefficients are evaluated exactly there during assembly, so
covering them makes the assembled sign structure follow from strict interval
placement rather than from a mesh-size assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PlanningError
from .field import DiffusionField, ProbeTable, SplittingConstants
from .grid import Grid
from .splitting import AngleIntervals, slope_bounds

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


def _pick_integer(lo: float, hi: float, lo_clamp: int | None = None, hi_clamp: int | None = None) -> int | None:
    """Integer strictly inside (lo, hi) closest to the midpoint; ties take smaller |i|."""
    low = int(math.floor(lo)) + 1
    high = int(math.ceil(hi)) - 1
    if lo_clamp is not None:
        low = max(low, lo_clamp)
    if hi_clamp is not None:
        high = min(high, hi_clamp)
    if low > high:
        return None
    mid = 0.5 * (lo + hi)
    candidates = sorted(range(low, high + 1), key=lambda i: (abs(i - mid), abs(i)))
    return candidates[0]


def _shrunk(lo: float, hi: float, safety: float) -> tuple[float, float]:
    width = hi - lo
    delta = safety * min(width, 1.0)
    return lo + delta, hi - delta


def _plus_direction(m: int, intervals: AngleIntervals, safety: float) -> tuple[int, float] | None:
    """Direction index for tan(beta1) in the shrunk (a_sup, b_inf), or None."""
    lo, hi = _shrunk(intervals.a_sup, intervals.b_inf, safety)
    if not lo < hi:
        return None
    if lo < 1.0 < hi:
        return m, 1.0
    if hi <= 1.0:
        i = _pick_integer(m * lo, m * hi, lo_clamp=1)
        return (i, i / m) if i is not None else None
    # 1 <= lo < hi: slopes m/q with q counted from the vertical
    q = _pick_integer(m / hi, m / lo, lo_clamp=1, hi_clamp=m - 1)
    return (2 * m - q, m / q) if q is not None else None


def _minus_direction(m: int, intervals: AngleIntervals, safety: float) -> tuple[int, float] | None:
    """Direction index for tan(beta2) in the shrunk (c_sup, d_inf), or None."""
    lo, hi = _shrunk(intervals.c_sup, intervals.d_inf, safety)
    if not lo < hi:
        return None
    if lo < -1.0 < hi:
        return -m, -1.0
    if lo >= -1.0:
        i = _pick_integer(m * lo, m * hi, hi_clamp=-1)
        return (i, i / m) if i is not None else None
    # lo < hi <= -1: slopes m/q with negative q
    q = _pick_integer(m / hi, m / lo, lo_clamp=-(m - 1), hi_clamp=-1)
    return (-2 * m - q, m / q) if q is not None else None


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
    """
    m_values = [fixed_m] if fixed_m is not None else range(1, m_cap + 1)
    plus_empty, minus_empty = intervals.plus_empty, intervals.minus_empty
    for margin in (safety, 0.0) if safety > 0.0 else (0.0,):
        for m in m_values:
            plus = None if plus_empty else _plus_direction(m, intervals, margin)
            if plus is None and not plus_empty:
                continue
            minus = None if minus_empty else _minus_direction(m, intervals, margin)
            if minus is None and not minus_empty:
                continue
            i1, tan1 = plus if plus is not None else (None, None)
            i2, tan2 = minus if minus is not None else (None, None)
            return StencilChoice(m, i1, i2, tan1, tan2)
    raise PlanningError(
        f"no admissible stencil with half-width <= {m_cap} for intervals {intervals}",
        intervals=intervals,
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

    def intervals(self, idx: int) -> AngleIntervals:
        return AngleIntervals(*(float(v[idx]) for v in self.bounds))

    def choice_is_safe(self, idx: int, choice: StencilChoice) -> bool:
        """True when gamma0/gamma2 stay nonnegative at the 4 edge midpoints.

        Midpoints carrying a sign of b for which the choice has no direction
        are unsafe by definition (assembly could not evaluate them).
        """
        for col in range(1, 5):
            b = float(self.b[col, idx])
            if b == 0.0:
                continue
            tan = choice.tan1 if b > 0.0 else choice.tan2
            if tan is None:
                return False
            a = float(self.a[col, idx])
            c = float(self.c[col, idx])
            if col in (1, 2):  # x-edge midpoints carry gamma0
                if a - b / tan < 0.0:
                    return False
            else:  # y-edge midpoints carry gamma2
                if c - b * tan < 0.0:
                    return False
        return True


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
    n_int = grid.interior_count
    X, Y = grid.interior_coords()
    specials = _SpecialPoints(field, grid)
    radius = constants.radius

    m_arr = np.zeros(n_int, dtype=np.int32)
    i1_arr = np.zeros(n_int, dtype=np.int32)
    i2_arr = np.zeros(n_int, dtype=np.int32)
    tan1_arr = np.full(n_int, np.nan)
    tan2_arr = np.full(n_int, np.nan)
    A = np.empty(n_int)
    B = np.empty(n_int)
    C = np.empty(n_int)
    D = np.empty(n_int)

    for idx in range(n_int):
        ball = AngleIntervals(*table.window_intervals(X[idx], Y[idx], radius))
        merged = ball.merged(specials.intervals(idx))
        intervals = ball
        try:
            choice = select_stencil(ball, m_cap, safety=safety, fixed_m=fixed_m)
            if not specials.choice_is_safe(idx, choice):
                choice = None
        except PlanningError:
            choice = None
        if choice is None:
            # The midpoints are exact members of the merged sample set, so
            # strict placement alone protects them; no margin here keeps the
            # fallback stencils as small as possible.
            intervals = merged
            try:
                choice = select_stencil(merged, m_cap, safety=0.0, fixed_m=fixed_m)
            except PlanningError as exc:
                node = grid.node_from_linear(idx)
                raise PlanningError(
                    f"planning failed at node (j={node.j}, k={node.k}): {exc}",
                    node=(node.j, node.k),
                    intervals=merged,
                ) from exc
            if not specials.choice_is_safe(idx, choice):
                node = grid.node_from_linear(idx)
                raise PlanningError(
                    f"no sign-safe direction pair at node (j={node.j}, k={node.k})",
                    node=(node.j, node.k),
                    intervals=merged,
                )
        A[idx], B[idx] = intervals.a_sup, intervals.b_inf
        C[idx], D[idx] = intervals.c_sup, intervals.d_inf
        m_arr[idx] = choice.m
        if choice.i1 is not None:
            i1_arr[idx] = choice.i1
            tan1_arr[idx] = choice.tan1
        if choice.i2 is not None:
            i2_arr[idx] = choice.i2
            tan2_arr[idx] = choice.tan2

    return GridPlan(
        grid=grid,
        constants=constants,
        m=m_arr,
        i1=i1_arr,
        i2=i2_arr,
        tan1=tan1_arr,
        tan2=tan2_arr,
        a_sup=A,
        b_inf=B,
        c_sup=C,
        d_inf=D,
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
