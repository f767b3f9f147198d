"""Assembly of the monotone finite-difference system.

Each splitting term -d_e(gamma d_e u) along a direction e is discretized in
conservative flux form on a three-point arm.  With arm lengths s+ and s- and
the coefficient evaluated at the two arm midpoints,

    center weight   2*(g+/s+ + g-/s-) / (s+ + s-)
    far endpoint   -2*g+ / (s+ * (s+ + s-))
    near endpoint  -2*g- / (s- * (s+ + s-))

which reduces to [-g-, g+ + g-, -g+]/s^2 for equal arms.  Off-diagonal
weights are nonpositive whenever the midpoint coefficients are nonnegative,
so the Z-pattern of the matrix follows directly from the plan.  Weights that
reference boundary nodes or clipped boundary intersections multiply the
Dirichlet data and move to the right-hand side.

Interior nodes are numbered in row-major linear order.  The axis terms are
one array pass per axis; the directional terms are one array pass per sign
part of b over every node planned with a direction of that sign, its arms
clipped at the boundary and weighted by the unequal-arm formula above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import AssemblyError
from .field import DiffusionField
from .grid import Grid
from .splitting import GAMMA_TOLERANCE
from .stencil import GridPlan, clip_arms, direction_offsets


@dataclass(frozen=True)
class Problem:
    """Boundary-value problem data: tensor field, source f, Dirichlet data g.

    ``f``, ``g``, and ``exact_u`` must accept scalars or numpy arrays;
    expression objects qualify.  ``exact_u`` is optional and only used by
    verification studies.
    """

    name: str
    field: DiffusionField
    f: Callable
    g: Callable
    exact_u: Callable | None = None


@dataclass
class SparseSystem:
    """Interior-node linear system in compressed-row form.

    Rows follow the grid's row-major interior numbering.  ``entries`` yields
    duplicate-free coordinate triplets in row-sorted order.
    """

    dimension: int
    matrix: sp.csr_matrix
    rhs: np.ndarray

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        coo = self.matrix.tocoo()
        return coo.row, coo.col, coo.data


@dataclass(frozen=True)
class MatrixAudit:
    """Sign pattern, dominance, and connectivity summary of a system."""

    max_offdiag: float
    min_diag: float
    min_dominance_slack: float
    zpattern_violations: int
    dominance_violations: int
    n_components: int
    connected: bool
    passed: bool


def directional_term_row(gamma_plus, gamma_minus, s_plus, s_minus):
    """Three-point weights (near, center, far) of conservative terms, elementwise.

    Aborts on a negative midpoint coefficient: a negative value here means
    the plan admitted an inadmissible direction and monotonicity is lost.
    """
    low = np.minimum(gamma_plus, gamma_minus)
    if np.any(low < GAMMA_TOLERANCE):
        raise AssemblyError(f"negative splitting coefficient at an arm midpoint: {np.min(low):.3e}")
    total = s_plus + s_minus
    w_center = 2.0 * (gamma_plus / s_plus + gamma_minus / s_minus) / total
    w_plus = -2.0 * gamma_plus / (s_plus * total)
    w_minus = -2.0 * gamma_minus / (s_minus * total)
    return w_minus, w_center, w_plus


class _Accumulator:
    """Collects COO triplets and boundary foldings for the linear system."""

    def __init__(self, dim: int, rhs: np.ndarray):
        self.dim = dim
        self.rhs = rhs
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []

    def add(self, rows, cols, vals):
        self.rows.append(np.asarray(rows, dtype=np.int64).ravel())
        self.cols.append(np.asarray(cols, dtype=np.int64).ravel())
        self.vals.append(np.asarray(vals, dtype=float).ravel())

    def fold(self, rows, weights, g_values):
        # weight * g moves across the equals sign
        np.subtract.at(self.rhs, np.asarray(rows, dtype=np.int64).ravel(),
                       np.asarray(weights, dtype=float).ravel() * np.asarray(g_values, dtype=float).ravel())

    def to_system(self) -> SparseSystem:
        rows = np.concatenate(self.rows)
        cols = np.concatenate(self.cols)
        vals = np.concatenate(self.vals)
        matrix = sp.coo_matrix((vals, (rows, cols)), shape=(self.dim, self.dim)).tocsr()
        matrix.sum_duplicates()
        matrix.sort_indices()
        return SparseSystem(self.dim, matrix, self.rhs)


def _evaluate(fn, xs, ys) -> np.ndarray:
    """``fn`` at the points (xs, ys) as a float array, constants broadcast."""
    return np.broadcast_to(np.asarray(fn(xs, ys), dtype=float), np.shape(xs)).ravel()


def _node_error(grid: Grid, row: int, message: str) -> AssemblyError:
    node = grid.node_from_linear(row)
    return AssemblyError(f"{message} at node (j={node.j}, k={node.k})", node=(node.j, node.k))


def _axis_gammas(field: DiffusionField, grid: Grid, xs, ys, tan1, tan2, which: str):
    """gamma0 (which='x') or gamma2 (which='y') at axis-edge midpoints.

    The plan guarantees a direction exists for each sign of b occurring at
    the flux points; a missing one there is a plan inconsistency.  Points
    with b = 0 reduce to the plain entry, continuously.
    """
    a, b, c = field.tensor_arrays(xs, ys)
    for part, tan, sign, side in ((b > 0.0, tan1, ">", "plus"), (b < 0.0, tan2, "<", "minus")):
        missing = part & np.isnan(tan)
        if missing.any():
            raise _node_error(grid, int(np.argmax(missing)),
                              f"b {sign} 0 at an axis midpoint but the plan has no {side} direction")
    bp = np.maximum(b, 0.0)
    bm = np.minimum(b, 0.0)
    # Placeholders are only reached where the matching part vanishes.
    t1 = np.where(np.isnan(tan1), np.where(np.isnan(tan2), 1.0, tan2), tan1)
    t2 = np.where(np.isnan(tan2), np.where(np.isnan(tan1), -1.0, tan1), tan2)
    if which == "x":
        return a - bp / t1 - bm / t2
    return c - bp * t1 - bm * t2


def _diagonal_gamma(field: DiffusionField, xs, ys, slope, side: str):
    """gamma1 coefficient along the chosen directions; zero off their sign part."""
    b = _evaluate(field.b, xs, ys)
    inv_cos_sin = 1.0 / slope + slope
    if side == "plus":
        return np.maximum(b, 0.0) * inv_cos_sin
    return np.minimum(b, 0.0) * inv_cos_sin


def _check_nonnegative(values: np.ndarray, rows: np.ndarray, grid: Grid, label: str):
    """Abort on a negative coefficient, naming the owning node.

    ``rows`` holds the linear row index of each value (values from several
    flux points of one row may be concatenated, with rows repeated to match).
    """
    worst = float(values.min())
    if worst < GAMMA_TOLERANCE:
        raise _node_error(grid, int(rows[int(np.argmin(values))]),
                          f"negative {label} coefficient ({worst:.3e})")


def assemble(problem: Problem, grid: Grid, plan: GridPlan) -> SparseSystem:
    """Assemble the interior-node system with Dirichlet data folded into the rhs."""
    n = grid.n
    h = grid.h
    ni = n - 1
    dim = ni * ni
    X, Y = grid.interior_coords()
    J, K = grid.interior_nodes()
    lin = np.arange(dim, dtype=np.int64)

    rhs = _evaluate(problem.f, X, Y).copy()
    acc = _Accumulator(dim, rhs)
    field = problem.field
    g = problem.g
    half = 0.5 * h
    inv_h2 = 1.0 / (h * h)

    # Axis terms: gamma0 along x, gamma2 along y.  Arms are single mesh edges,
    # so endpoints are nodes and only the first/last ring folds into the rhs.
    for which, (ox, oy), neighbor_step in (("x", (1, 0), 1), ("y", (0, 1), ni)):
        gm_lo = _axis_gammas(field, grid, X - ox * half, Y - oy * half, plan.tan1, plan.tan2, which)
        gm_hi = _axis_gammas(field, grid, X + ox * half, Y + oy * half, plan.tan1, plan.tan2, which)
        _check_nonnegative(np.concatenate([gm_lo, gm_hi]), np.concatenate([lin, lin]), grid, f"gamma-{which}")
        acc.add(lin, lin, (gm_lo + gm_hi) * inv_h2)
        along = J if which == "x" else K
        lo_interior = along >= 2
        hi_interior = along <= ni - 1
        acc.add(lin[lo_interior], lin[lo_interior] - neighbor_step, -gm_lo[lo_interior] * inv_h2)
        acc.add(lin[hi_interior], lin[hi_interior] + neighbor_step, -gm_hi[hi_interior] * inv_h2)
        lo_bnd = ~lo_interior
        hi_bnd = ~hi_interior
        acc.fold(lin[lo_bnd], -gm_lo[lo_bnd] * inv_h2,
                 _evaluate(g, X[lo_bnd] - ox * h, Y[lo_bnd] - oy * h))
        acc.fold(lin[hi_bnd], -gm_hi[hi_bnd] * inv_h2,
                 _evaluate(g, X[hi_bnd] + ox * h, Y[hi_bnd] + oy * h))

    # Directional terms: gamma1 along the planned direction of each sign part.
    for side, i_arr in (("plus", plan.i1), ("minus", plan.i2)):
        rows = np.flatnonzero(i_arr)
        if rows.size:
            _assemble_direction(acc, problem, grid, rows, J[rows], K[rows], plan.m[rows], i_arr[rows], side)

    return acc.to_system()


def _assemble_direction(acc, problem, grid, rows, j, k, m, i, side):
    """Add the terms of one sign part at nodes ``rows`` = (j, k) planned with (m, i)."""
    n = grid.n
    dx, dy = direction_offsets(m, i)
    slope = dy / dx
    x0, y0 = j / n, k / n
    arms = []  # (gamma, length, column, endpoint x, endpoint y): far arm, then near arm
    for sign in (1, -1):
        ej, ek, length, col = clip_arms(grid, j, k, sign * dx, sign * dy)
        x, y = ej / n, ek / n
        gamma = _diagonal_gamma(problem.field, (x0 + x) / 2.0, (y0 + y) / 2.0, slope, side)
        arms.append((gamma, length, col, x, y))
    (gm_hi, s_hi, *_), (gm_lo, s_lo, *_) = arms
    # Checked here to name the node; directional_term_row only knows values.
    _check_nonnegative(np.concatenate([gm_hi, gm_lo]), np.concatenate([rows, rows]), grid, f"gamma-{side}")
    w_lo, w_center, w_hi = directional_term_row(gm_hi, gm_lo, s_hi, s_lo)
    acc.add(rows, rows, w_center)
    for (_, _, col, x, y), w in zip(arms, (w_hi, w_lo)):
        interior = col >= 0
        acc.add(rows[interior], col[interior], w[interior])
        bnd = ~interior
        acc.fold(rows[bnd], w[bnd], _evaluate(problem.g, x[bnd], y[bnd]))


def audit_m_matrix(system: SparseSystem) -> MatrixAudit:
    """Z-pattern, positive diagonal, weak dominance, and irreducibility checks.

    Dominance slack is diag - sum|offdiag| per row; rows may be exactly
    balanced (interior) and must be strictly dominant where the stencil
    touches the boundary, which shows up as min slack > 0 on those rows.
    """
    matrix = system.matrix.tocoo()
    off = matrix.row != matrix.col
    diag = system.matrix.diagonal()
    off_vals = matrix.data[off]
    max_off = float(off_vals.max()) if off_vals.size else 0.0
    abs_off_sum = np.zeros(system.dimension)
    np.add.at(abs_off_sum, matrix.row[off], np.abs(off_vals))
    slack = diag - abs_off_sum
    scale = np.maximum(np.abs(diag), 1.0)
    zpattern_violations = int((off_vals > 1e-12).sum()) + int((diag <= 0.0).sum())
    dominance_violations = int((slack < -1e-9 * scale).sum())
    pattern = sp.coo_matrix(
        (np.abs(off_vals), (matrix.row[off], matrix.col[off])),
        shape=matrix.shape,
    )
    n_components = int(connected_components(pattern, directed=False)[0]) if system.dimension > 1 else 1
    connected = n_components == 1
    passed = zpattern_violations == 0 and dominance_violations == 0 and connected
    return MatrixAudit(
        max_offdiag=max_off,
        min_diag=float(diag.min()),
        min_dominance_slack=float(slack.min()),
        zpattern_violations=zpattern_violations,
        dominance_violations=dominance_violations,
        n_components=n_components,
        connected=connected,
        passed=passed,
    )


def export_matrix(system: SparseSystem, path) -> None:
    """Plain-text coordinate export: header 'rows cols nnz', 1-based triplets."""
    rows, cols, vals = system.entries()
    with open(path, "w") as fh:
        fh.write(f"{system.dimension} {system.dimension} {len(vals)}\n")
        for r, c, v in zip(rows, cols, vals):
            fh.write(f"{r + 1} {c + 1} {float(v)!r}\n")


def export_rhs(system: SparseSystem, path) -> None:
    with open(path, "w") as fh:
        for v in system.rhs:
            fh.write(f"{float(v)!r}\n")
