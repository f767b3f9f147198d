import math

import numpy as np
import pytest

from monofd import verification
from monofd.assembly import Problem, assemble
from monofd.errors import ConfigError
from monofd.expressions import NonDifferentiableError, parse_expression
from monofd.grid import build_grid
from monofd.problems import built_in_problem, manufactured_problem
from monofd.stencil import plan_grid
from monofd.verification import (
    convergence_study,
    dmp_table,
    prepare,
    run_case,
    sign_pattern_summary,
    solution_on_grid,
    write_convergence_csv,
    write_dmp_csv,
)

from conftest import identity_field, tensor_at


class TestManufactured:
    def test_identity_quadratic_source(self):
        problem = manufactured_problem(identity_field(), "x*x + y*y")
        rng = np.random.default_rng(1)
        for x, y in rng.uniform(0, 1, size=(20, 2)):
            assert problem.f(x, y) == pytest.approx(-4.0)
            assert problem.g(x, y) == pytest.approx(x * x + y * y)

    def test_identity_wave_source(self):
        problem = manufactured_problem(identity_field(), "sin(2*pi*x)*sin(3*pi*y)")
        x, y = 0.37, 0.61
        expected = 13 * math.pi**2 * math.sin(2 * math.pi * x) * math.sin(3 * math.pi * y)
        assert problem.f(x, y) == pytest.approx(expected, rel=1e-12)

    def test_matches_numerical_divergence_oracle(self):
        # independent oracle: 4th-order central differencing of D grad u
        field = built_in_problem("exam3").field
        problem = manufactured_problem(field, "sin(2*pi*x)*sin(3*pi*y)")
        u = problem.exact_u
        step = 1e-4
        stencil = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * step)
        offsets = np.array([-2, -1, 0, 1, 2]) * step

        def d4(fn, x, y, axis):
            pts = (
                [(x + o, y) for o in offsets] if axis == 0 else [(x, y + o) for o in offsets]
            )
            return float(sum(w * fn(px, py) for w, (px, py) in zip(stencil, pts)))

        def flux_x(x, y):
            a, b, _ = tensor_at(field, x, y)
            return a * d4(u, x, y, 0) + b * d4(u, x, y, 1)

        def flux_y(x, y):
            _, b, c = tensor_at(field, x, y)
            return b * d4(u, x, y, 0) + c * d4(u, x, y, 1)

        rng = np.random.default_rng(11)
        for x, y in rng.uniform(0.01, 0.99, size=(100, 2)):
            oracle = -(d4(flux_x, x, y, 0) + d4(flux_y, x, y, 1))
            assert problem.f(x, y) == pytest.approx(oracle, abs=1e-6, rel=1e-6)

    def test_rejects_nondifferentiable_expression(self):
        with pytest.raises(NonDifferentiableError):
            manufactured_problem(identity_field(), "abs(x - 0.5)")


class TestDmpTable:
    def test_harmonic_plane(self):
        problem = manufactured_problem(identity_field(), "x")
        # replace the manufactured zero source with literal zero to use dmp path
        prepared = prepare(Problem("plane", problem.field, parse_expression("0"),
                                   problem.g, problem.exact_u), probe_step=1e-2)
        rows = dmp_table(prepared, [5, 9])
        for row in rows:
            assert row.dmp_holds
            assert 0.0 < row.interior_min and row.interior_max < 1.0
            assert row.boundary_min == 0.0 and row.boundary_max == 1.0

    def test_rejects_nonzero_source(self, prep_exam2):
        with pytest.raises(ConfigError):
            dmp_table(prep_exam2, [5])


class TestConvergence:
    def test_exact_on_linears(self):
        prepared = prepare(manufactured_problem(identity_field(), "x + y"), 1e-2)
        rows, slope = convergence_study(prepared, [4, 8])
        assert all(r.max_error < 1e-9 for r in rows)

    def test_rows_and_order_normalization(self, prep_exam2):
        rows, slope = convergence_study(prep_exam2, [11, 21])
        assert rows[0].observed_order is None
        assert rows[1].observed_order == pytest.approx(
            math.log(rows[0].max_error / rows[1].max_error) / math.log(rows[1].n / rows[0].n)
        )

    def test_requires_increasing_sizes(self, prep_exam2):
        with pytest.raises(ConfigError):
            convergence_study(prep_exam2, [21, 21])

    def test_requires_exact_solution(self, prep_exam1):
        with pytest.raises(ConfigError):
            convergence_study(prep_exam1, [5, 9])

    def test_zero_error_rows(self):
        # x is exact; N=2 has one unknown and an error of exactly 0.
        prepared = prepare(manufactured_problem(identity_field(), "x"), 0.05)
        rows, slope = convergence_study(prepared, [2, 4])
        assert [r.n for r in rows] == [2, 4]
        assert rows[0].max_error == 0.0
        assert rows[1].observed_order is None
        assert math.isnan(slope)

    def test_boundary_mismatch_detected(self):
        field = identity_field()
        bad = Problem(
            "bad",
            field,
            parse_expression("0"),
            parse_expression("x + 0.001"),
            parse_expression("x"),
        )
        with pytest.raises(ConfigError):
            convergence_study(prepare(bad, 1e-2), [4, 8])


class TestCaseRunner:
    """Both studies run each case through one runner: ``run_case`` as the
    module binds it at the call, or the one passed in."""

    def test_default_runner_is_looked_up_at_each_call(self, monkeypatch, prep_exam1, prep_exam2):
        calls = []

        def counting(prepared, n):
            calls.append(n)
            return run_case(prepared, n)

        monkeypatch.setattr(verification, "run_case", counting)
        dmp_table(prep_exam1, [5, 9])
        assert calls == [5, 9]
        convergence_study(prep_exam2, [5, 9, 13])
        assert calls == [5, 9, 5, 9, 13]

    def test_runner_passed_in_is_the_one_used(self, monkeypatch, prep_exam1, prep_exam2):
        calls = []

        def run(prepared, n):
            calls.append((prepared.problem.name, n))
            return run_case(prepared, n)

        monkeypatch.setattr(verification, "run_case", None)  # a fall-back to the default fails
        dmp_table(prep_exam1, [5], run)
        convergence_study(prep_exam2, [5, 9], run)
        assert calls == [("exam1", 5), ("exam2", 5), ("exam2", 9)]


class TestSignPattern:
    def test_exam2_no_violations(self, prep_exam2):
        case = run_case(prep_exam2, 81)
        summary = sign_pattern_summary(case.system)
        assert summary.passed
        assert summary.violations == 0
        assert summary.positive_diagonal == case.system.dimension

    def test_negative_control_counts_violations(self, prep_exam3):
        case = run_case(prep_exam3, 11)
        system = case.system
        # corrupt one off-diagonal entry to positive
        matrix = system.matrix.tolil()
        row = 0
        for col in matrix.rows[row]:
            if col != row:
                matrix[row, col] = abs(matrix[row, col])
                break
        system.matrix = matrix.tocsr()
        summary = sign_pattern_summary(system)
        assert not summary.passed
        assert summary.violations >= 1

    def test_mis_set_angle_aborts_assembly(self, prep_exam3):
        # beyond-interval slope must be refused during assembly, not silently
        # emitted: force tan(beta1) = -1 below sup b/a on a sign-changing grid
        from monofd.errors import AssemblyError

        grid = build_grid(11)
        plan = plan_grid(grid, prep_exam3.table)
        plan.i1[:] = -1  # slope -1, outside (sup b/a, inf c/b)
        with pytest.raises(AssemblyError):
            assemble(prep_exam3.problem, plan)


class TestOutputs:
    def test_solution_grid_layout(self, prep_exam1):
        case = run_case(prep_exam1, 5)
        full = solution_on_grid(prep_exam1.problem, case.grid, case.solution)
        assert full.shape == (6, 6)
        g = prep_exam1.problem.g
        assert full[0, 3] == pytest.approx(float(g(3 / 5, 0.0)))  # row 0 is y=0
        assert full[2, 1] == pytest.approx(case.solution[case.grid.linear_index(1, 2)])

    def test_csv_roundtrip(self, tmp_path, prep_exam1):
        rows = dmp_table(prep_exam1, [5])
        path = tmp_path / "dmp.csv"
        write_dmp_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "N,boundary_min,interior_min,boundary_max,interior_max"
        fields = lines[1].split(",")
        assert int(fields[0]) == 5
        assert float(fields[1]) == rows[0].boundary_min  # repr round-trips exactly

    def test_convergence_csv(self, tmp_path, prep_exam2):
        rows, _ = convergence_study(prep_exam2, [5, 9])
        path = tmp_path / "conv.csv"
        write_convergence_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "N,h,max_error,observed_order"
        assert lines[1].endswith(",")  # first row has no order
        assert float(lines[2].rsplit(",", 1)[1]) == rows[1].observed_order
