import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from monofd.assembly import SparseSystem, assemble
from monofd.errors import SolverError
from monofd.expressions import parse_expression
from monofd.field import ProbeTable
from monofd.grid import build_grid
from monofd.solver import residual, solve
from monofd.stencil import plan_grid
from monofd.assembly import Problem
from monofd.problems import built_in_problem

from conftest import identity_field


def identity_problem(f, g):
    return Problem("t", identity_field(), parse_expression(f), parse_expression(g))


def small_system():
    matrix = sp.csr_matrix(np.array([[4.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 4.0]]))
    rhs = np.array([1.0, 2.0, 3.0])
    return SparseSystem(matrix, rhs)


def test_single_unknown_solves_in_one_step():
    field = identity_field()
    table = ProbeTable(field, 0.25)
    grid = build_grid(2)
    system = assemble(identity_problem("0", "x"), plan_grid(grid, table))
    u, report = solve(system)
    assert u == pytest.approx([0.5])
    assert report.converged
    assert report.method_name == "float32-lu"


def test_diagonal_system_exact():
    matrix = sp.csr_matrix(np.diag([2.0, 4.0, 8.0]))
    system = SparseSystem(matrix, np.array([2.0, 2.0, 2.0]))
    u, report = solve(system)
    assert u == pytest.approx([1.0, 0.5, 0.25])
    assert report.final_relative_residual <= 1e-15


def test_residual_definitions():
    system = small_system()
    u, report = solve(system, tol=1e-12)
    assert residual(system, u) <= 1e-12
    assert residual(system, np.zeros(3)) == pytest.approx(1.0)
    # Data near either end of the float range: no overflow or underflow in the squares.
    huge = SparseSystem(system.matrix, system.rhs * 2.0**1000)
    assert residual(huge, u * 2.0**1000) == residual(system, u)
    assert solve(huge, tol=1e-12)[1].converged
    assert residual(SparseSystem(system.matrix, np.full(3, 5e-324)), np.zeros(3)) == 1.0


def test_residual_unit_perturbation_is_column_norm():
    system = small_system()
    u, _ = solve(system, tol=1e-14)
    for i in range(3):
        perturbed = u.copy()
        perturbed[i] += 1.0
        column = system.matrix.toarray()[:, i]
        expected = np.linalg.norm(column) / np.linalg.norm(system.rhs)
        assert residual(system, perturbed) == pytest.approx(expected, rel=1e-10)


def test_zero_rhs_uses_absolute_norm():
    matrix = sp.csr_matrix(np.eye(2))
    system = SparseSystem(matrix, np.zeros(2))
    assert residual(system, np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_dimension_mismatch_rejected():
    with pytest.raises(SolverError):
        residual(small_system(), np.zeros(4))


def test_deterministic_repeat():
    system = small_system()
    u1, r1 = solve(system)
    u2, r2 = solve(system)
    assert np.array_equal(u1, u2)
    assert r1 == r2


def test_inverse_positivity_observed():
    # f >= 0 and g >= 0 imply a nonnegative solution for an M-matrix system
    field = built_in_problem("exam1").field
    table = ProbeTable(field, 1e-3)
    grid = build_grid(15)
    plan = plan_grid(grid, table)
    problem = Problem("pos", field, parse_expression("1"), parse_expression("x*y"))
    system = assemble(problem, plan)
    u, report = solve(system)
    assert report.converged
    assert u.min() >= -1e-10 * np.linalg.norm(system.rhs)


@pytest.mark.parametrize("prep", ["prep_exam1", "prep_exam2", "prep_exam3", "prep_exam4"])
def test_solve_agrees_with_pivoting_float64_lu(prep, request):
    # Audited systems take the float32 factor; its refined solution matches
    # a plain partial-pivoting float64 LU solve to near rounding.
    prepared = request.getfixturevalue(prep)
    system = assemble(prepared.problem, plan_grid(build_grid(31), prepared.table))
    u, report = solve(system)
    reference = spla.splu(system.matrix.tocsc()).solve(system.rhs)
    assert report.converged and report.method_name == "float32-lu"
    assert 1 <= report.iterations <= 5
    assert np.max(np.abs(u - reference)) <= 1e-12


def near_singular_system(gap, rhs):
    t = 1.0 - gap
    return SparseSystem(sp.csr_matrix(np.array([[1.0, -t], [-t, 1.0]])), np.array(rhs))


def test_float32_zero_pivot_falls_back_to_float64_lu():
    # A nonsingular M-matrix that float32 rounds to the singular [[1,-1],[-1,1]].
    system = near_singular_system(1e-9, [1.0, 1.0])
    with pytest.raises(RuntimeError, match="singular"):
        spla.splu(system.matrix.astype(np.float32).tocsc(), diag_pivot_thresh=0.0)
    u, report = solve(system)
    assert report.converged and report.method_name == "float64-lu"
    assert residual(system, u) <= 1e-10


def test_float32_refinement_above_tol_falls_back_to_float64_lu():
    # float32 keeps this matrix nonsingular, but cond(A) ~ 2e6 leaves its
    # refinement contracting too slowly to reach 1e-10 within the cap.
    system = near_singular_system(1e-6, [1.0, 1.0])
    spla.splu(system.matrix.astype(np.float32).tocsc(), diag_pivot_thresh=0.0)
    u, report = solve(system)
    assert report.converged and report.method_name == "float64-lu"
    assert residual(system, u) <= 1e-10


@pytest.mark.parametrize("matrix", [[[1.0, -1.0], [-1.0, 1.0]], [[1.0, np.nan], [-1.0, 1.0]]],
                         ids=["singular", "nan"])
def test_factor_failure_in_both_precisions_is_reported(matrix):
    system = SparseSystem(sp.csr_matrix(np.array(matrix)), np.array([1.0, 0.0]))
    u, report = solve(system)
    assert not report.converged
    assert report.iterations == 0
    assert u.shape == (2,)
