import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from monofd.assembly import SparseSystem, assemble
from monofd.errors import SolverError
from monofd.expressions import parse_expression
from monofd.field import ProbeTable
from monofd.grid import build_grid
from monofd import solver
from monofd.solver import _nested_dissection, _reach2_grid, residual, solve
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


def reference_dissection(side, j0, j1, k0, k1, steps, coupled=None, taken=frozenset()):
    """The dissection rule as a recursion over boxes: the box's order, with
    each cut's (low half, high half) appended to ``steps``.  ``coupled`` maps
    an unknown to those a stored entry joins it to; ``taken`` holds the
    unknowns that shallower cuts placed."""
    if j0 >= j1 or k0 >= k1:
        return []

    def members(box):
        a, b, c, d = box
        return [k * side + j for k in range(c, d) for j in range(a, b) if k * side + j not in taken]

    if j1 - j0 >= k1 - k0:
        mid = (j0 + j1) // 2
        low, high, line = (j0, mid, k0, k1), (mid + 1, j1, k0, k1), (mid, mid + 1, k0, k1)
    else:
        mid = (k0 + k1) // 2
        low, high, line = (j0, j1, k0, mid), (j0, j1, mid + 1, k1), (j0, j1, mid, mid + 1)
    # Unknowns of the low half that an entry couples to the high half join the separator.
    above = set(members(high))
    jumped = [u for u in members(low) if coupled is not None and coupled[u] & above]
    taken = taken | set(jumped)
    low = reference_dissection(side, *low, steps, coupled, taken)
    high = reference_dissection(side, *high, steps, coupled, taken)
    steps.append((low, high))
    return low + high + members(line) + jumped


NO_ENTRIES = (np.empty(0, dtype=np.int64),) * 2


@pytest.mark.parametrize("side", range(1, 41))
def test_dissection_order_is_a_permutation(side):
    order = _nested_dissection(side, *NO_ENTRIES)
    assert np.array_equal(np.sort(order), np.arange(side * side))
    assert np.array_equal(order, reference_dissection(side, 0, side, 0, side, []))


def stencil_pattern(side, rng, reach):
    """A random subset of the couplings of a stencil reaching ``reach``
    cells on the side x side grid, diagonal included, as a CSR matrix."""
    k, j = np.divmod(np.arange(side * side), side)
    rows, cols = [np.arange(side * side)], [np.arange(side * side)]
    for dk in range(-reach, reach + 1):
        for dj in range(-reach, reach + 1):
            keep = (0 <= k + dk) & (k + dk < side) & (0 <= j + dj) & (j + dj < side)
            keep &= rng.random(side * side) < 0.7
            rows.append(np.flatnonzero(keep))
            cols.append((k[keep] + dk) * side + j[keep] + dj)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(side * side,) * 2)


@pytest.mark.parametrize("side", [2, 3, 5, 8, 13, 24, 31])
def test_no_entry_couples_the_halves_of_a_dissection_step(side):
    rng = np.random.default_rng(side)
    for reach in (1, 2):
        pattern = stencil_pattern(side, rng, reach)
        grid = _reach2_grid(pattern)
        assert grid is not None and grid[0] == side
        assert (grid[1].size > 0) == (reach == 2 and side >= 3)
        order = _nested_dissection(*grid)
        coupled = {u: set() for u in range(side * side)}
        for r, c in zip(*pattern.nonzero()):
            coupled[r].add(c)
            coupled[c].add(r)
        # A 3x3 stencil moves no unknown: its order is the plain rule's.
        if reach == 1:
            assert np.array_equal(order, reference_dissection(side, 0, side, 0, side, []))
        steps = []
        assert np.array_equal(order, reference_dissection(side, 0, side, 0, side, steps, coupled))
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        permuted = pattern[order][:, order].toarray() != 0
        for low, high in steps:
            # Each half is a block of consecutive positions, the low one first.
            low, high = np.sort(position[low]), np.sort(position[high])
            assert np.array_equal(low, np.arange(low.size) + (low[0] if low.size else 0))
            assert np.array_equal(high, np.arange(high.size) + (high[0] if high.size else 0))
            assert not permuted[np.ix_(low, high)].any() and not permuted[np.ix_(high, low)].any()
    # From side 3 on an entry reaching two cells keeps the grid; from side 4
    # on one reaching three, or wrapping around a grid row, or reaching three
    # grid rows, sends the matrix to minimum degree.
    for (r, c), grid in (((0, 2), side), ((0, 3), None), ((side - 1, side), None), ((0, 3 * side), None)):
        if c < side * side and side >= 3 + (grid is None):
            wider = pattern.tolil()
            wider[r, c] = 1.0
            found = _reach2_grid(wider.tocsr())
            assert (None if found is None else found[0]) == grid


@pytest.mark.parametrize("n", [21, 41])
def test_dissection_solve_matches_minimum_degree_solve(n, request, monkeypatch):
    # exam1 and exam2 plan stencils reaching two cells, exam3 one.
    for prep, reach in (("prep_exam1", 2), ("prep_exam2", 2), ("prep_exam3", 1)):
        prepared = request.getfixturevalue(prep)
        system = assemble(prepared.problem, plan_grid(build_grid(n), prepared.table))
        assert (_reach2_grid(system.matrix)[1].size > 0) == (reach == 2)
        u, report = solve(system)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_reach2_grid", lambda matrix: None)
            reference, mmd = solve(system)
        assert (report.ordering, mmd.ordering) == ("nested-dissection", "mmd")
        assert report.converged and mmd.converged and report.method_name == "float32-lu"
        assert report.factor_nnz > 0 and mmd.factor_nnz > 0
        assert np.max(np.abs(u - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_dissection_zero_pivot_falls_back_to_float64_lu():
    # Two grid rows of a 2x2 grid, each the float32-singular pair of
    # near_singular_system; the dissection order keeps them apart until the
    # line j = 1, whose pivots are 1 - t**2, exactly 0 in float32.
    t = 1.0 - 1e-9
    block = np.array([[1.0, -t], [-t, 1.0]])
    system = SparseSystem(sp.csr_matrix(np.kron(np.eye(2), block)), np.ones(4))
    assert list(_nested_dissection(2, *NO_ENTRIES)) == [0, 2, 1, 3]
    u, report = solve(system)
    assert report.converged and report.method_name == "float64-lu"
    assert report.ordering == "colamd" and report.factor_nnz > 0
    assert residual(system, u) <= 1e-10


def test_reach2_dissection_zero_pivot_falls_back_to_float64_lu():
    # On a 3x3 grid, the float32-singular pair of near_singular_system joins
    # (k, 0) to (k, 2) across the line j = 1 in each grid row; (k, 0) joins
    # the separator after the line, where its pivot is 1 - t**2, 0 in float32.
    t = 1.0 - 1e-9
    pairs = np.array([[1.0, 0.0, -t], [0.0, 1.0, 0.0], [-t, 0.0, 1.0]])
    system = SparseSystem(sp.csr_matrix(np.kron(np.eye(3), pairs)), np.ones(9))
    side, rows, cols = _reach2_grid(system.matrix)
    assert side == 3 and list(_nested_dissection(side, rows, cols)) == [2, 8, 5, 1, 4, 7, 0, 3, 6]
    u, report = solve(system)
    assert report.converged and report.method_name == "float64-lu"
    assert report.ordering == "colamd" and report.factor_nnz > 0
    assert residual(system, u) <= 1e-10
