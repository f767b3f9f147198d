import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from monofd.assembly import (
    Problem,
    SparseSystem,
    assemble,
    audit_m_matrix,
    directional_term_row,
    export_matrix,
    export_rhs,
)
from monofd.errors import AssemblyError
from monofd.expressions import parse_expression
from monofd.field import ProbeTable, built_in_field, compute_constants, field_from_expressions
from monofd.grid import build_grid
from monofd.stencil import plan_grid
from monofd.solver import solve


def make_problem(field, f, g, exact=None, name="test"):
    to_expr = lambda v: parse_expression(v) if isinstance(v, str) else v
    return Problem(name, field, to_expr(f), to_expr(g), to_expr(exact) if exact else None)


def setup_case(field, f, g, n, probe=1e-2):
    problem = make_problem(field, f, g)
    table = ProbeTable(field, probe)
    constants = compute_constants(table)
    grid = build_grid(n)
    plan = plan_grid(grid, table, constants)
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
        problem, grid, plan = setup_case(built_in_field("identity"), "0", "x", 2)
        system = assemble(problem, plan)
        assert system.dimension == 1
        assert system.matrix.toarray()[0, 0] == pytest.approx(16.0)
        assert system.rhs == pytest.approx([8.0])  # (0 + 1 + 0.5 + 0.5)/h^2
        u, report = solve(system)
        assert u == pytest.approx([0.5])

    def test_five_point_laplacian_rows(self):
        problem, grid, plan = setup_case(built_in_field("identity"), "0", "0", 5)
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
        problem, grid, plan = setup_case(built_in_field("identity"), "0", "x", 3)
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
        plan = plan_grid(grid, prep_exam1.table, prep_exam1.constants)
        system = assemble(problem, plan)
        ones = np.ones(system.dimension)
        residual = system.matrix @ ones - system.rhs
        scale = system.matrix.diagonal()
        assert np.abs(residual / scale).max() < 1e-9

    def test_exact_on_linears_constant_field(self):
        field = field_from_expressions("c923", 9, 2, 3)
        problem = make_problem(field, "0", "0.5*x + 2*y - 0.25")
        table = ProbeTable(field, 1e-2)
        constants = compute_constants(table)
        grid = build_grid(12)
        plan = plan_grid(grid, table, constants)
        system = assemble(problem, plan)
        u, report = solve(system)
        X, Y = grid.interior_coords()
        exact = 0.5 * X + 2 * Y - 0.25
        assert np.abs(u - exact).max() < 1e-9


class TestAudit:
    def test_five_point_dominance_structure(self):
        problem, grid, plan = setup_case(built_in_field("identity"), "0", "0", 6)
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
        plan = plan_grid(grid, prep_exam3.table, prep_exam3.constants)
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


class TestExport:
    def test_coordinate_format_roundtrip(self, prep_exam2, tmp_path):
        grid = build_grid(21)
        plan = plan_grid(grid, prep_exam2.table, prep_exam2.constants)
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
        plan = plan_grid(grid, prep_exam1.table, prep_exam1.constants)
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
    def test_axis_terms_read_the_planners_sample_points(self, prep_exam1):
        # The planner's sign check takes gamma0 at X +- h/2 and gamma2 at
        # Y +- h/2; the x term, the only one that reads a, and the y term, the
        # only one that reads c, must use the same points.
        grid = build_grid(11)
        field = prep_exam1.problem.field
        plan = plan_grid(grid, prep_exam1.table, prep_exam1.constants)
        seen = {"a": set(), "c": set()}

        def recording(name):
            entry = getattr(field, name)

            def read(x, y):
                seen[name].update(zip(np.ravel(x), np.ravel(y)))
                return entry(x, y)

            return read

        recorded = dataclasses.replace(field, a=recording("a"), c=recording("c"))
        assemble(dataclasses.replace(prep_exam1.problem, field=recorded), plan)
        X, Y = grid.interior_coords()
        half = 0.5 * grid.h
        assert seen["a"] == set(zip(X - half, Y)) | set(zip(X + half, Y))
        assert seen["c"] == set(zip(X, Y - half)) | set(zip(X, Y + half))


class TestBoundaryClipping:
    def test_clipped_arms_keep_monotone_structure(self, prep_exam4):
        # wide stencils near the boundary exercise the unequal-arm path
        grid = build_grid(21)
        plan = plan_grid(grid, prep_exam4.table, prep_exam4.constants)
        assert plan.max_m >= 3  # guarantees clipped arms exist at this size
        system = assemble(prep_exam4.problem, plan)
        assert audit_m_matrix(system).passed
