import numpy as np
import pytest
import scipy.sparse as sp

from monofd.assembly import SparseSystem, assemble
from monofd.errors import SolverError
from monofd.expressions import parse_expression
from monofd.field import ProbeTable
from monofd.grid import build_grid
from monofd.solver import _solve_direct, _solve_krylov, residual, solve
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
    assert report.method_name == "sparse-lu"


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


def test_default_max_iter_contract():
    system = small_system()
    u, report = solve(system, tol=1e-10, max_iter=None)
    assert report.converged
    assert report.iterations >= 1


def test_krylov_branch_agrees_with_lu(prep_exam3):
    # The ILU-BiCGStab branch runs only past the direct-solve limit in
    # production; called directly here on a small exam3 system.
    grid = build_grid(31)
    plan = plan_grid(grid, prep_exam3.table)
    system = assemble(prep_exam3.problem, plan)
    u_krylov, report = _solve_krylov(system, 1e-10, 10 * system.dimension)
    u_direct, _ = _solve_direct(system, 1e-10)
    assert report.converged and report.method_name == "ilu-bicgstab"
    assert report.final_relative_residual <= 1e-10
    assert np.max(np.abs(u_krylov - u_direct)) <= 1e-8
