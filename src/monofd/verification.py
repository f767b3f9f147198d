"""Verification studies: extrema tables, sign-pattern audits, convergence order.

A ``Prepared`` bundle caches the field constants and probe table so a study
over several grid sizes samples the coefficient field only once.  Individual
cases run plan -> assemble -> audit -> solve and propagate failures per case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import MatrixAudit, Problem, SparseSystem, assemble, audit_m_matrix
from .errors import AuditError, ConfigError, SolverError
from .expressions import Expression, parse_expression
from .field import DiffusionField, ProbeTable, SplittingConstants, compute_constants
from .grid import Grid, build_grid
from .solver import SolveReport, solve
from .stencil import GridPlan, MeshCondition, check_mesh_condition, plan_grid

__all__ = [
    "DmpRow",
    "ConvergenceRow",
    "SignPatternSummary",
    "Prepared",
    "CaseResult",
    "prepare",
    "run_case",
    "dmp_row",
    "dmp_table",
    "manufactured_problem",
    "convergence_study",
    "sign_pattern_summary",
    "solution_on_grid",
    "boundary_extrema",
    "write_dmp_csv",
    "write_convergence_csv",
]


@dataclass(frozen=True)
class DmpRow:
    """Extrema of the Dirichlet data and of the computed interior solution."""

    n: int
    boundary_min: float
    interior_min: float
    boundary_max: float
    interior_max: float

    @property
    def dmp_holds(self) -> bool:
        tol = 1e-12
        return (
            self.boundary_min <= self.interior_min + tol
            and self.interior_max <= self.boundary_max + tol
        )


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    h: float
    max_error: float
    observed_order: float | None


@dataclass(frozen=True)
class SignPatternSummary:
    positive_diagonal: int
    nonpositive_offdiagonal: int
    offdiagonal_total: int
    violations: int
    passed: bool


@dataclass(frozen=True)
class Prepared:
    problem: Problem
    constants: SplittingConstants
    table: ProbeTable


@dataclass(frozen=True)
class CaseResult:
    plan: GridPlan
    mesh_condition: MeshCondition
    system: SparseSystem
    audit: MatrixAudit
    solution: np.ndarray
    report: SolveReport

    @property
    def grid(self) -> Grid:
        return self.plan.grid


def prepare(problem: Problem, probe_step: float = 1e-3) -> Prepared:
    """Validate the field and cache its probe table and planning constants."""
    table = ProbeTable(problem.field, probe_step)
    constants = compute_constants(table)
    return Prepared(problem, constants, table)


def run_case(
    prepared: Prepared,
    n: int,
    tol: float = 1e-10,
    max_iter: int | None = None,
    fixed_m: int | None = None,
    require_audit: bool = True,
    require_convergence: bool = True,
) -> CaseResult:
    """Plan, assemble, audit, and solve one grid size."""
    plan = plan_grid(build_grid(n), prepared.table, prepared.constants, fixed_m=fixed_m)
    mesh = check_mesh_condition(plan)
    system = assemble(prepared.problem, plan)
    audit = audit_m_matrix(system)
    if require_audit and not audit.passed:
        raise AuditError(f"matrix audit failed at N={n}: {audit}")
    solution, report = solve(system, tol=tol, max_iter=max_iter)
    if require_convergence and not report.converged:
        raise SolverError(
            f"solver did not reach tol={tol} at N={n}: residual {report.final_relative_residual}"
        )
    return CaseResult(plan, mesh, system, audit, solution, report)


def _on_boundary(fn, grid: Grid) -> np.ndarray:
    """``fn`` at the boundary nodes, as one float array: the sides y=0, y=1,
    x=0, x=1 in turn, corners included on each side."""
    side = np.arange(grid.n + 1) / grid.n
    zeros, ones = np.zeros_like(side), np.ones_like(side)
    points = ((side, zeros), (side, ones), (zeros, side), (ones, side))
    return np.concatenate([np.broadcast_to(np.asarray(fn(x, y), dtype=float), side.shape) for x, y in points])


def boundary_extrema(problem: Problem, grid: Grid) -> tuple[float, float]:
    """Min and max of the Dirichlet data over boundary nodes."""
    values = _on_boundary(problem.g, grid)
    return float(values.min()), float(values.max())


def _check_zero_source(problem: Problem, grid: Grid) -> None:
    X, Y = grid.interior_coords()
    worst = float(np.abs(np.asarray(problem.f(X, Y), dtype=float)).max())
    if worst > 1e-13:
        raise ConfigError(
            f"extrema table requires a zero source term; max |f| on nodes is {worst:.3e}"
        )


def dmp_row(prepared: Prepared, n: int, solve_case) -> DmpRow:
    """Extrema row for one grid size of a zero-source problem.

    ``solve_case(n)`` runs the case and returns its CaseResult; it is called
    only after the source has been checked to vanish on the grid.
    """
    grid = build_grid(n)
    _check_zero_source(prepared.problem, grid)
    case = solve_case(n)
    bmin, bmax = boundary_extrema(prepared.problem, grid)
    return DmpRow(
        n=n,
        boundary_min=bmin,
        interior_min=float(case.solution.min()),
        boundary_max=bmax,
        interior_max=float(case.solution.max()),
    )


def dmp_table(prepared: Prepared, n_list, **case_kwargs) -> list[DmpRow]:
    """Boundary-vs-interior extrema rows for a zero-source problem."""
    return [dmp_row(prepared, n, lambda n: run_case(prepared, n, **case_kwargs)) for n in n_list]


def manufactured_problem(field: DiffusionField, exact_u, name: str | None = None) -> Problem:
    """Problem whose source is -div(D grad u) for a chosen exact solution u.

    ``exact_u`` is an expression (or grammar string); the source comes from
    symbolic differentiation, so the expression must stay inside the
    differentiable grammar subset (no abs).
    """
    u = parse_expression(exact_u) if isinstance(exact_u, str) else exact_u
    if not isinstance(u, Expression):
        raise ConfigError("manufactured solutions must be grammar expressions")
    ux = u.diff("x")
    uy = u.diff("y")
    flux_x = field.a * ux + field.b * uy
    flux_y = field.b * ux + field.c * uy
    f = -1.0 * (flux_x.diff("x") + flux_y.diff("y"))
    return Problem(
        name=name or f"manufactured-{field.name}",
        field=field,
        f=f,
        g=u,
        exact_u=u,
    )


def _check_boundary_data(problem: Problem, grid: Grid) -> None:
    if np.abs(_on_boundary(problem.g, grid) - _on_boundary(problem.exact_u, grid)).max() > 1e-12:
        raise ConfigError("Dirichlet data disagrees with the exact solution on the boundary")


def convergence_study(prepared: Prepared, n_list, **case_kwargs):
    """Interior max-norm errors against the exact solution, plus a fitted slope.

    The per-row observed order is the error-log ratio normalized by the step
    ratio; the returned slope is a least-squares fit of log(error) against
    log(h) over all rows, which tolerates a pre-asymptotic first row.
    """
    problem = prepared.problem
    if problem.exact_u is None:
        raise ConfigError(f"problem {problem.name!r} has no exact solution to converge to")
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("grid sizes must be strictly increasing")
    rows: list[ConvergenceRow] = []
    for n in n_list:
        grid = build_grid(n)
        _check_boundary_data(problem, grid)
        case = run_case(prepared, n, **case_kwargs)
        X, Y = grid.interior_coords()
        exact = np.asarray(problem.exact_u(X, Y), dtype=float)
        err = float(np.abs(case.solution - exact).max())
        order = None
        if rows:
            prev = rows[-1]
            order = math.log(prev.max_error / err) / math.log(prev.h / grid.h)
        rows.append(ConvergenceRow(n=n, h=grid.h, max_error=err, observed_order=order))
    hs = np.log([r.h for r in rows])
    errs = np.log([r.max_error for r in rows])
    slope = float(np.polyfit(hs, errs, 1)[0]) if len(rows) >= 2 else float("nan")
    return rows, slope


def sign_pattern_summary(system: SparseSystem) -> SignPatternSummary:
    """Entry counts backing the sign-pattern claim: pass iff zero violations."""
    rows, cols, vals = system.entries()
    off = rows != cols
    diag = system.matrix.diagonal()
    positive_diagonal = int((diag > 0.0).sum())
    nonpositive_off = int((vals[off] <= 1e-12).sum())
    total_off = int(off.sum())
    violations = (system.dimension - positive_diagonal) + (total_off - nonpositive_off)
    return SignPatternSummary(
        positive_diagonal=positive_diagonal,
        nonpositive_offdiagonal=nonpositive_off,
        offdiagonal_total=total_off,
        violations=violations,
        passed=violations == 0,
    )


def solution_on_grid(problem: Problem, grid: Grid, interior: np.ndarray) -> np.ndarray:
    """(N+1) x (N+1) array of the solution with Dirichlet data on the boundary.

    Row index is k (y), column index is j (x), both ascending.
    """
    side = np.arange(grid.n + 1) / grid.n
    X, Y = np.meshgrid(side, side)
    full = np.asarray(np.broadcast_to(problem.g(X, Y), X.shape), dtype=float).copy()
    full[1:-1, 1:-1] = interior.reshape(grid.n - 1, grid.n - 1)
    return full


def write_dmp_csv(rows: list[DmpRow], path) -> None:
    with open(path, "w") as fh:
        fh.write("N,boundary_min,interior_min,boundary_max,interior_max\n")
        for r in rows:
            fh.write(
                f"{r.n},{r.boundary_min!r},{r.interior_min!r},{r.boundary_max!r},{r.interior_max!r}\n"
            )


def write_convergence_csv(rows: list[ConvergenceRow], path) -> None:
    with open(path, "w") as fh:
        fh.write("N,h,max_error,observed_order\n")
        for r in rows:
            order = "" if r.observed_order is None else repr(r.observed_order)
            fh.write(f"{r.n},{r.h!r},{r.max_error!r},{order}\n")
