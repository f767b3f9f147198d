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

Interior nodes are numbered in row-major linear order.  Each of the four
terms is one array pass of this three-point difference: x and y along the
offsets (1, 0) and (0, 1) at every node, the b>0 and b<0 parts along the
planned direction (m, i1) or (m, i2) where the node has one.  The terms
differ only in where the midpoint coefficient comes from.  Non-finite field
values surface as an undefined coefficient or in the audit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import AssemblyError
from .expressions import Expression, evaluate
from .field import DiffusionField
from .grid import Grid
from .splitting import GAMMA_TOLERANCE, axis_gamma
from .stencil import GridPlan, clip_arms, direction_offsets


@dataclass(frozen=True)
class Problem:
    """Boundary-value problem data: tensor field, source f, Dirichlet data g,
    each an ``Expression``.  ``exact_u`` is optional and only used by
    verification studies.
    """

    name: str
    field: DiffusionField
    f: Expression
    g: Expression
    exact_u: Expression | None = None


@dataclass
class SparseSystem:
    """Interior-node linear system in compressed-row form.

    Rows follow the grid's row-major interior numbering.  ``entries`` yields
    duplicate-free coordinate triplets in row-sorted order.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

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
    nonfinite_values: int  # matrix entries and rhs values that are inf or nan
    n_components: int
    connected: bool
    passed: bool


def directional_term_row(gamma_plus, gamma_minus, s_plus, s_minus):
    """Three-point weights (near, center, far) of conservative terms, elementwise.

    Aborts on a negative or undefined (nan) midpoint coefficient: such a
    value here means the plan admitted an inadmissible direction and
    monotonicity is lost.
    """
    low = np.minimum(gamma_plus, gamma_minus)
    if not np.all(low >= GAMMA_TOLERANCE):
        raise AssemblyError(f"negative splitting coefficient at an arm midpoint: {np.min(low):.3e}")
    total = s_plus + s_minus
    w_center = 2.0 * (gamma_plus / s_plus + gamma_minus / s_minus) / total
    w_plus = -2.0 * gamma_plus / (s_plus * total)
    w_minus = -2.0 * gamma_minus / (s_minus * total)
    return w_minus, w_center, w_plus


def _node_error(grid: Grid, row: int, message: str) -> AssemblyError:
    j, k = grid.node_from_linear(row)
    return AssemblyError(f"{message} at node (j={j}, k={k})", node=(j, k))


def _axis_gamma(field: DiffusionField, tan1, tan2, which: int):
    """gamma0 (which=0) along x or gamma2 (which=1) along y, from one
    ``evaluate`` call over b and the diagonal entry the term uses."""
    diagonal = (field.a, field.c)[which]
    return lambda xs, ys: axis_gamma(*evaluate((diagonal, field.b), xs, ys), tan1, tan2, which)


def _diagonal_gamma(field: DiffusionField, slope, side: str):
    """gamma1 along directions of the given slopes; zero off their sign part."""
    part = np.maximum if side == "plus" else np.minimum
    return lambda xs, ys: part(field.b(xs, ys), 0.0) * (1.0 / slope + slope)


def _check_nonnegative(values: np.ndarray, rows: np.ndarray, grid: Grid, label: str):
    """Abort on a negative or undefined (nan) coefficient, naming the owning node.

    ``rows`` holds the linear row index of each value (values from several
    flux points of one row may be concatenated, with rows repeated to match).
    """
    at = int(np.argmin(values))  # the first nan, if any
    worst = float(values[at])
    if not worst >= GAMMA_TOLERANCE:
        raise _node_error(grid, int(rows[at]), f"negative or undefined {label} coefficient ({worst:.3e})")


def assemble(problem: Problem, plan: GridPlan) -> SparseSystem:
    """Assemble the interior-node system on the plan's grid, with Dirichlet
    data folded into the rhs."""
    field, grid = problem.field, plan.grid
    J, K = grid.interior_nodes()
    every = np.arange(grid.interior_count)
    tan1, tan2 = plan.tan1, plan.tan2
    entries = []  # (rows, cols, values) triplet arrays
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rhs = problem.f(J / grid.n, K / grid.n).copy()
        # gamma0 along x and gamma2 along y at every node; nan where b has a
        # sign the plan has no direction for, which _check_nonnegative reports
        for which, (label, dx, dy) in enumerate((("gamma-x", 1, 0), ("gamma-y", 0, 1))):
            _assemble_direction(entries, rhs, problem, grid, every, J, K, dx, dy,
                                _axis_gamma(field, tan1, tan2, which), label)
        # gamma1 along the planned direction of each sign part
        for side, i_arr, tan in (("plus", plan.i1, tan1), ("minus", plan.i2, tan2)):
            rows = np.flatnonzero(i_arr)
            if rows.size:
                dx, dy = direction_offsets(plan.m[rows], i_arr[rows])
                _assemble_direction(entries, rhs, problem, grid, rows, J[rows], K[rows], dx, dy,
                                    _diagonal_gamma(field, tan[rows], side), f"gamma-{side}")
    rows, cols, vals = map(np.concatenate, zip(*entries))
    # tocsr sums duplicates and sorts indices
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(every.size, every.size)).tocsr()
    return SparseSystem(matrix, rhs)


def _assemble_direction(entries, rhs, problem, grid, rows, j, k, dx, dy, gamma, label):
    """Append one term's triplets at nodes ``rows`` = (j, k) along lattice
    offsets (dx, dy) to ``entries``, and fold its boundary weights into ``rhs``.

    ``gamma(x, y)`` gives the term's coefficient at one point per node; it
    is taken at the two arm midpoints.
    """
    n = grid.n
    x0, y0 = j / n, k / n
    half = 0.5 * grid.h
    arms = []  # (gamma, length, column, endpoint x, endpoint y): far arm, then near arm
    for sign in (1, -1):
        ej, ek, length, col = clip_arms(grid, j, k, sign * dx, sign * dy)
        # x0 + h/2 exactly on the axis arms, the points the planner checked
        mid = gamma(x0 + half * (ej - j), y0 + half * (ek - k))
        arms.append((mid, length, col, ej / n, ek / n))
    (gm_hi, s_hi, *_), (gm_lo, s_lo, *_) = arms
    # Checked here to name the node; directional_term_row only knows values.
    _check_nonnegative(np.concatenate([gm_hi, gm_lo]), np.concatenate([rows, rows]), grid, label)
    w_lo, w_center, w_hi = directional_term_row(gm_hi, gm_lo, s_hi, s_lo)
    entries.append((rows, rows, w_center))
    for (_, _, col, x, y), w in zip(arms, (w_hi, w_lo)):
        interior = col >= 0
        entries.append((rows[interior], col[interior], w[interior]))
        bnd = ~interior
        # weight * g moves across the equals sign
        np.subtract.at(rhs, rows[bnd], w[bnd] * problem.g(x[bnd], y[bnd]))


def audit_m_matrix(system: SparseSystem) -> MatrixAudit:
    """Finite values, Z-pattern, positive diagonal, weak dominance, and
    irreducibility checks.

    A matrix entry or rhs value that is inf or nan fails the audit: the
    sign and dominance comparisons are false on nan and certify nothing.

    Dominance slack is diag - sum|offdiag| per row; rows may be exactly
    balanced (interior) and must be strictly dominant where the stencil
    touches the boundary, which shows up as min slack > 0 on those rows.
    """
    matrix = system.matrix
    rows = np.repeat(np.arange(system.dimension), np.diff(matrix.indptr))
    off = rows != matrix.indices
    diag = matrix.diagonal()
    off_vals = matrix.data[off]
    max_off = float(off_vals.max()) if off_vals.size else 0.0
    abs_off_sum = np.bincount(rows[off], weights=np.abs(off_vals), minlength=system.dimension)
    with np.errstate(invalid="ignore"):  # inf - inf; counted below
        slack = diag - abs_off_sum
    scale = np.maximum(np.abs(diag), 1.0)
    nonfinite_values = int((~np.isfinite(matrix.data)).sum()) + int((~np.isfinite(system.rhs)).sum())
    zpattern_violations = int((off_vals > 1e-12).sum()) + int((diag <= 0.0).sum())
    dominance_violations = int((slack < -1e-9 * scale).sum())
    # The stored entries, zeros included, are the graph's edges; the diagonal adds only loops.
    n_components = int(connected_components(matrix, directed=False)[0])
    connected = n_components == 1
    passed = zpattern_violations == 0 and dominance_violations == 0 and nonfinite_values == 0 and connected
    return MatrixAudit(
        max_offdiag=max_off,
        min_diag=float(diag.min()),
        min_dominance_slack=float(slack.min()),
        zpattern_violations=zpattern_violations,
        dominance_violations=dominance_violations,
        nonfinite_values=nonfinite_values,
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
