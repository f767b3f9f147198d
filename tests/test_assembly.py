import sys

import numpy as np
import pytest
import scipy.sparse as sp

from scipy.sparse.csgraph import connected_components

from monofd.assembly import (
    MatrixAudit,
    Problem,
    SparseSystem,
    assemble,
    audit_m_matrix,
    directional_term_row,
    export_matrix,
    export_rhs,
)
from monofd import expressions
from monofd.errors import AssemblyError
from monofd.expressions import parse_expression
from monofd.field import ProbeTable, field_from_expressions
from monofd.grid import build_grid
from monofd.stencil import plan_grid
from monofd.solver import solve

from conftest import identity_field


def make_problem(field, f, g, exact=None, name="test"):
    to_expr = lambda v: parse_expression(v) if isinstance(v, str) else v
    return Problem(name, field, to_expr(f), to_expr(g), to_expr(exact) if exact else None)


def setup_case(field, f, g, n, probe=1e-2):
    problem = make_problem(field, f, g)
    table = ProbeTable(field, probe)
    grid = build_grid(n)
    plan = plan_grid(grid, table)
    return problem, grid, plan


class TestDirectionalTermRow:
    def test_constant_coefficient(self):
        w = directional_term_row(1.0, 1.0, 0.1, 0.1)
        assert w == pytest.approx((-100.0, 200.0, -100.0))

    def test_unequal_coefficients_equal_arms(self):
        w_minus, w_center, w_plus = directional_term_row(4.0, 2.0, 0.1, 0.1)
        assert (w_minus, w_center, w_plus) == pytest.approx((-200.0, 600.0, -400.0))

    def test_clipped_arm(self):
        w_minus, w_center, w_plus = directional_term_row(1.0, 1.0, 0.1, 0.05)
        assert w_center == pytest.approx(400.0)
        assert w_plus == pytest.approx(-133.0 - 1.0 / 3.0, abs=1e-9)
        assert w_minus == pytest.approx(-266.0 - 2.0 / 3.0, abs=1e-9)

    def test_negative_coefficient_aborts(self):
        with pytest.raises(AssemblyError):
            directional_term_row(-0.1, 1.0, 0.1, 0.1)
        with pytest.raises(AssemblyError):  # nan compares false: undefined counts as negative
            directional_term_row(1.0, np.nan, 0.1, 0.1)

    def test_equal_arm_reduction_identity(self):
        # unequal-arm formula with equal arms reproduces [-g-, g+ + g-, -g+]/s^2
        for gp, gm, s in [(1.0, 1.0, 0.1), (3.5, 0.25, 0.03), (0.0, 2.0, 0.7)]:
            got = directional_term_row(gp, gm, s, s)
            want = (-gm / s**2, (gp + gm) / s**2, -gp / s**2)
            assert got == pytest.approx(want, rel=1e-14)


class TestAssembleIdentity:
    def test_single_unknown_mean_value(self):
        problem, grid, plan = setup_case(identity_field(), "0", "x", 2)
        system = assemble(problem, plan)
        assert system.dimension == 1
        assert system.matrix.toarray()[0, 0] == pytest.approx(16.0)
        assert system.rhs == pytest.approx([8.0])  # (0 + 1 + 0.5 + 0.5)/h^2
        u, report = solve(system)
        assert u == pytest.approx([0.5])

    def test_five_point_laplacian_rows(self):
        problem, grid, plan = setup_case(identity_field(), "0", "0", 5)
        system = assemble(problem, plan)
        inv_h2 = 25.0
        dense = system.matrix.toarray()
        center = grid.linear_index(2, 2)
        row = dense[center]
        assert row[center] == pytest.approx(4 * inv_h2)
        for neighbor in [grid.linear_index(1, 2), grid.linear_index(3, 2),
                         grid.linear_index(2, 1), grid.linear_index(2, 3)]:
            assert row[neighbor] == pytest.approx(-inv_h2)
        assert np.count_nonzero(row) == 5

    def test_matches_hand_built_matrix_n3(self):
        # criterion-8-style oracle: the 4-unknown system written out by hand
        problem, grid, plan = setup_case(identity_field(), "0", "x", 3)
        system = assemble(problem, plan)
        inv_h2 = 9.0
        expected = inv_h2 * np.array(
            [
                [4.0, -1.0, -1.0, 0.0],
                [-1.0, 4.0, 0.0, -1.0],
                [-1.0, 0.0, 4.0, -1.0],
                [0.0, -1.0, -1.0, 4.0],
            ]
        )
        assert system.matrix.toarray() == pytest.approx(expected)
        u, _ = solve(system)
        X, Y = grid.interior_coords()
        assert u == pytest.approx(X, abs=1e-10)  # harmonic plane reproduced


class TestRowSumAndLinears:
    def test_row_sum_against_constant_one(self, prep_exam1):
        # with g = 1 and f = 0, A*1 equals the rhs: folding restores the
        # zero row sums of the full stencil
        field = prep_exam1.problem.field
        problem = make_problem(field, "0", "1")
        grid = build_grid(21)
        plan = plan_grid(grid, prep_exam1.table)
        system = assemble(problem, plan)
        ones = np.ones(system.dimension)
        residual = system.matrix @ ones - system.rhs
        scale = system.matrix.diagonal()
        assert np.abs(residual / scale).max() < 1e-9

    def test_exact_on_linears_constant_field(self):
        field = field_from_expressions("c923", "9", "2", "3")
        problem = make_problem(field, "0", "0.5*x + 2*y - 0.25")
        table = ProbeTable(field, 1e-2)
        grid = build_grid(12)
        plan = plan_grid(grid, table)
        system = assemble(problem, plan)
        u, report = solve(system)
        X, Y = grid.interior_coords()
        exact = 0.5 * X + 2 * Y - 0.25
        assert np.abs(u - exact).max() < 1e-9


class TestAudit:
    def test_five_point_dominance_structure(self):
        problem, grid, plan = setup_case(identity_field(), "0", "0", 6)
        system = assemble(problem, plan)
        audit = audit_m_matrix(system)
        assert audit.passed
        assert audit.max_offdiag <= 0.0
        assert audit.min_diag > 0.0
        # interior rows balance exactly; boundary-adjacent rows are strictly dominant
        rows, cols, vals = system.entries()
        off_sum = np.zeros(system.dimension)
        np.add.at(off_sum, rows[rows != cols], np.abs(vals[rows != cols]))
        slack = system.matrix.diagonal() - off_sum
        inner = grid.linear_index(3, 3)
        assert slack[inner] == pytest.approx(0.0, abs=1e-9)
        edge = grid.linear_index(1, 3)
        assert slack[edge] == pytest.approx(36.0, rel=1e-12)  # one folded neighbor, 1/h^2

    def test_exam3_audit_passes(self, prep_exam3):
        grid = build_grid(51)
        plan = plan_grid(grid, prep_exam3.table)
        system = assemble(prep_exam3.problem, plan)
        audit = audit_m_matrix(system)
        assert audit.passed
        assert audit.zpattern_violations == 0

    def test_positive_offdiagonal_counterexample(self):
        matrix = sp.csr_matrix(np.array([[2.0, 0.5], [-1.0, 2.0]]))
        audit = audit_m_matrix(SparseSystem(matrix, np.zeros(2)))
        assert not audit.passed
        assert audit.zpattern_violations == 1
        assert audit.max_offdiag == pytest.approx(0.5)

    @pytest.mark.parametrize("rows, rhs", [
        ([[2.0, np.nan], [-1.0, 2.0]], [0.0, 0.0]),
        ([[np.inf, -1.0], [-1.0, 2.0]], [0.0, 0.0]),
        ([[2.0, -1.0], [-1.0, 2.0]], [np.nan, 0.0]),
    ])
    def test_non_finite_values_fail(self, rows, rhs):
        # nan compares false, so the sign and dominance counts alone pass these
        audit = audit_m_matrix(SparseSystem(sp.csr_matrix(np.array(rows)), np.array(rhs)))
        assert (audit.zpattern_violations, audit.dominance_violations) == (0, 0)
        assert audit.nonfinite_values == 1
        assert not audit.passed

    def test_disconnected_graph_detected(self):
        matrix = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
        audit = audit_m_matrix(SparseSystem(matrix, np.zeros(3)))
        assert not audit.connected
        assert audit.n_components == 3


def coo_audit(system):
    """The audit as it read a COO copy of the matrix, kept as the oracle of
    the CSR reading."""
    matrix = system.matrix.tocoo()
    off = matrix.row != matrix.col
    diag = system.matrix.diagonal()
    off_vals = matrix.data[off]
    max_off = float(off_vals.max()) if off_vals.size else 0.0
    abs_off_sum = np.zeros(system.dimension)
    np.add.at(abs_off_sum, matrix.row[off], np.abs(off_vals))
    with np.errstate(invalid="ignore"):
        slack = diag - abs_off_sum
    scale = np.maximum(np.abs(diag), 1.0)
    nonfinite_values = int((~np.isfinite(matrix.data)).sum()) + int((~np.isfinite(system.rhs)).sum())
    zpattern_violations = int((off_vals > 1e-12).sum()) + int((diag <= 0.0).sum())
    dominance_violations = int((slack < -1e-9 * scale).sum())
    pattern = sp.coo_matrix((np.abs(off_vals), (matrix.row[off], matrix.col[off])), shape=matrix.shape)
    n_components = int(connected_components(pattern, directed=False)[0]) if system.dimension > 1 else 1
    connected = n_components == 1
    passed = zpattern_violations == 0 and dominance_violations == 0 and nonfinite_values == 0 and connected
    return MatrixAudit(max_off, float(diag.min()), float(slack.min()), zpattern_violations,
                       dominance_violations, nonfinite_values, n_components, connected, passed)


class TestAuditOracle:
    @pytest.mark.parametrize("prep", ["prep_exam1", "prep_exam2", "prep_exam3", "prep_exam4", "prep_exam4_k100"])
    def test_built_in_systems(self, prep, request):
        prepared = request.getfixturevalue(prep)
        n = 201 if prep == "prep_exam4_k100" else 31  # the smallest k=100 grid here that plans
        system = assemble(prepared.problem, plan_grid(build_grid(n), prepared.table))
        assert repr(audit_m_matrix(system)) == repr(coo_audit(system))

    @pytest.mark.parametrize("data", [
        [2.0, 0.0, -1.0, 2.0, -1.0, 0.0, 2.0, -1.0, 0.0, -1.0, 2.0],
        [2.0, 0.0, -1.0, 0.0, -1.0, 0.0, 2.0, -1.0, 0.0, -1.0, 2.0],  # a zero diagonal
        [2.0, 0.0, -1.0, 2.0, -1.0, 0.0, np.nan, -1.0, 0.0, -1.0, np.inf],
        [2.0, 0.5, -1.0, 2.0, -1.0, 0.0, 2.0, -3.0, 0.0, -1.0, 2.0],  # sign and dominance fail
    ])
    def test_stored_zeros(self, data):
        # Rows 0-1 and 2-3 are coupled blocks; only stored zeros join them.
        # Row 0 stores its columns out of order.
        indices = [0, 2, 1, 1, 0, 3, 2, 3, 1, 2, 3]
        indptr = [0, 3, 6, 8, 11]
        matrix = sp.csr_matrix((np.array(data), np.array(indices), np.array(indptr)), shape=(4, 4))
        system = SparseSystem(matrix, np.ones(4))
        audit = audit_m_matrix(system)
        assert repr(audit) == repr(coo_audit(system))
        assert audit.n_components == 1


class TestExport:
    def test_coordinate_format_roundtrip(self, prep_exam2, tmp_path):
        grid = build_grid(21)
        plan = plan_grid(grid, prep_exam2.table)
        system = assemble(prep_exam2.problem, plan)
        mpath = tmp_path / "matrix.txt"
        rpath = tmp_path / "rhs.txt"
        export_matrix(system, mpath)
        export_rhs(system, rpath)
        lines = mpath.read_text().splitlines()
        rows_, cols_, nnz = map(int, lines[0].split())
        assert (rows_, cols_) == (400, 400)
        assert nnz == len(lines) - 1 == system.matrix.nnz
        # full round-trip precision, 1-based indices
        triples = [line.split() for line in lines[1:]]
        rebuilt = sp.coo_matrix(
            (
                [float(v) for _, _, v in triples],
                ([int(r) - 1 for r, _, _ in triples], [int(c) - 1 for _, c, _ in triples]),
            ),
            shape=(400, 400),
        ).tocsr()
        assert (rebuilt != system.matrix).nnz == 0
        rhs = np.array([float(v) for v in rpath.read_text().split()])
        assert rhs == pytest.approx(system.rhs, abs=0.0)


class TestPlanInconsistency:
    def test_missing_direction_names_the_node(self, prep_exam1):
        # No plus direction at a node whose four axis midpoints carry b > 0:
        # the axis terms there have no plus slope, and the error names the node.
        grid = build_grid(11)
        field = prep_exam1.problem.field
        plan = plan_grid(grid, prep_exam1.table)
        X, Y = grid.interior_coords()
        half = 0.5 * grid.h
        b = np.stack([field.tensor_arrays(X + ox, Y + oy)[1]
                      for ox, oy in ((-half, 0), (half, 0), (0, -half), (0, half))])
        idx = int(np.flatnonzero((b > 0.0).all(axis=0))[-1])
        plan.i1[idx] = 0
        j, k = grid.node_from_linear(idx)
        with pytest.raises(AssemblyError, match=rf"at node \(j={j}, k={k}\)") as info:
            assemble(prep_exam1.problem, plan)
        assert info.value.node == (j, k)


class TestAxisMidpoints:
    @pytest.mark.parametrize("stage", ["plan_grid", "assemble"])
    def test_axis_terms_read_the_planners_sample_points(self, prep_exam1, monkeypatch, stage):
        # The planner's sign check and assembly's x and y terms take gamma0
        # at X +- h/2 and gamma2 at Y +- h/2.  The x term is the only reader
        # of a and the y term the only reader of c, in both stages; exam1 at
        # N=51 has no fallback node, whose center and midpoints the planner
        # would also sample.
        grid = build_grid(51)
        field = prep_exam1.problem.field
        plan = plan_grid(grid, prep_exam1.table)
        assert plan.fallback_nodes == 0
        seen = {"a": set(), "c": set()}
        original = expressions.evaluate

        def recording(roots, x, y):
            for name in seen:
                if any(root is getattr(field, name) for root in roots):
                    seen[name].update(zip(np.ravel(x), np.ravel(y)))
            return original(roots, x, y)

        # Every evaluation goes through evaluate, under each module's binding of it.
        for name, module in list(sys.modules.items()):
            if name.startswith("monofd") and getattr(module, "evaluate", None) is original:
                monkeypatch.setattr(module, "evaluate", recording)
        if stage == "plan_grid":
            plan_grid(grid, prep_exam1.table)
        else:
            assemble(prep_exam1.problem, plan)
        X, Y = grid.interior_coords()
        half = 0.5 * grid.h
        assert seen["a"] == set(zip(X - half, Y)) | set(zip(X + half, Y))
        assert seen["c"] == set(zip(X, Y - half)) | set(zip(X, Y + half))


class TestBoundaryClipping:
    def test_clipped_arms_keep_monotone_structure(self, prep_exam4):
        # wide stencils near the boundary exercise the unequal-arm path
        grid = build_grid(21)
        plan = plan_grid(grid, prep_exam4.table)
        assert plan.max_m >= 3  # guarantees clipped arms exist at this size
        system = assemble(prep_exam4.problem, plan)
        assert audit_m_matrix(system).passed
