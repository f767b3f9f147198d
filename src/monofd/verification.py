"""Verification studies: extrema tables, sign-pattern audits, convergence order.

A ``Prepared`` bundle caches the probe table, constants included, so a study
over several grid sizes samples the coefficient field only once.  A case
runs plan -> assemble -> audit -> solve (``run_case``) and propagates its
failures.  Both studies, ``dmp_table`` and ``convergence_study``, run their
cases through one runner ``run(prepared, n)``: ``run_case`` unless the caller
passes its own, as the CLI does to report each case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import MatrixAudit, Problem, SparseSystem, assemble, audit_m_matrix
from .errors import AuditError, ConfigError, SolverError
from .field import ProbeTable
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
    "checked_audit",
    "dmp_table",
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
    return Prepared(problem, ProbeTable(problem.field, probe_step))


def run_case(
    prepared: Prepared,
    n: int,
    tol: float = 1e-10,
    fixed_m: int | None = None,
    require_audit: bool = True,
    require_convergence: bool = True,
) -> CaseResult:
    """Plan, assemble, audit, and solve one grid size."""
    plan = plan_grid(build_grid(n), prepared.table, fixed_m=fixed_m)
    mesh = check_mesh_condition(plan)
    system = assemble(prepared.problem, plan)
    audit = checked_audit(system, n, require_audit)
    solution, report = solve(system, tol=tol)
    if require_convergence and not report.converged:
        raise SolverError(
            f"solver did not reach tol={tol} at N={n}: residual {report.final_relative_residual}"
        )
    return CaseResult(plan, mesh, system, audit, solution, report)


def checked_audit(system: SparseSystem, n: int, require_audit: bool = True) -> MatrixAudit:
    """The M-matrix audit of the N=n system; AuditError when it fails and
    ``require_audit`` is set."""
    audit = audit_m_matrix(system)
    if require_audit and not audit.passed:
        raise AuditError(f"matrix audit failed at N={n}: {audit}")
    return audit


def _on_boundary(fn, grid: Grid) -> np.ndarray:
    """``fn`` at the boundary nodes, as one float array: the sides y=0, y=1,
    x=0, x=1 in turn, corners included on each side."""
    side = np.arange(grid.n + 1) / grid.n
    zeros, ones = np.zeros_like(side), np.ones_like(side)
    points = ((side, zeros), (side, ones), (zeros, side), (ones, side))
    return np.concatenate([fn(x, y) for x, y in points])


def boundary_extrema(problem: Problem, grid: Grid) -> tuple[float, float]:
    """Min and max of the Dirichlet data over boundary nodes."""
    values = _on_boundary(problem.g, grid)
    return float(values.min()), float(values.max())


def _check_zero_source(problem: Problem, grid: Grid) -> None:
    X, Y = grid.interior_coords()
    worst = float(np.abs(problem.f(X, Y)).max())
    if not worst <= 1e-13:  # nan (a non-finite source) fails too
        raise ConfigError(
            f"extrema table requires a zero source term; max |f| on nodes is {worst:.3e}"
        )


def dmp_table(prepared: Prepared, n_list, run=None) -> list[DmpRow]:
    """Boundary-vs-interior extrema rows for a zero-source problem.

    ``run(prepared, n)`` runs each case, after the source has been checked
    to vanish on its grid.  The default is the module's ``run_case`` as bound
    at the call, not at import, so a wrapper rebound over it sees the cases.
    """
    rows = []
    for n in n_list:
        grid = build_grid(n)
        _check_zero_source(prepared.problem, grid)
        solution = (run or run_case)(prepared, n).solution
        bmin, bmax = boundary_extrema(prepared.problem, grid)
        rows.append(DmpRow(n, bmin, float(solution.min()), bmax, float(solution.max())))
    return rows


def _check_boundary_data(problem: Problem, grid: Grid) -> None:
    with np.errstate(invalid="ignore"):  # inf - inf where both are inf; the audit reports it
        if np.abs(_on_boundary(problem.g, grid) - _on_boundary(problem.exact_u, grid)).max() > 1e-12:
            raise ConfigError("Dirichlet data disagrees with the exact solution on the boundary")


def convergence_study(prepared: Prepared, n_list, run=None):
    """Interior max-norm errors against the exact solution, plus a fitted slope.

    ``run(prepared, n)`` runs each case, as in ``dmp_table``.  The per-row
    observed order is the error-log ratio normalized by the step ratio, None
    when either error is 0; the returned slope is a least-squares fit of
    log(error) against log(h) over the rows with a positive error (nan if
    fewer than two), which tolerates a pre-asymptotic first row.
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
        case = (run or run_case)(prepared, n)
        X, Y = grid.interior_coords()
        err = float(np.abs(case.solution - problem.exact_u(X, Y)).max())
        order = None
        prev = rows[-1] if rows else None
        if prev is not None and prev.max_error > 0.0 and err > 0.0:
            order = math.log(prev.max_error / err) / math.log(prev.h / grid.h)
        rows.append(ConvergenceRow(n=n, h=grid.h, max_error=err, observed_order=order))
    fitted = [r for r in rows if r.max_error > 0.0]
    hs = np.log([r.h for r in fitted])
    errs = np.log([r.max_error for r in fitted])
    slope = float(np.polyfit(hs, errs, 1)[0]) if len(fitted) >= 2 else float("nan")
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
    full = problem.g(X, Y).copy()
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
