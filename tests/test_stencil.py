import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monofd.errors import PlanningError
from monofd.field import SplittingConstants, field_from_expressions
from monofd.grid import build_grid
from monofd.splitting import SLOPE_REDUCTIONS, AngleIntervals, slope_bounds, slope_ratios
from monofd.stencil import (
    MAX_HALF_WIDTH,
    check_mesh_condition,
    clip_arm,
    direction_offsets,
    direction_slopes,
    plan_grid,
    select_stencil,
    stencil_upper_bound,
)

from conftest import plan_with_bounds


def intervals(a=-np.inf, b=np.inf, c=-np.inf, d=np.inf):
    return AngleIntervals(a, b, c, d)


class TestPrincipalDirections:
    """The direction table: offsets and slopes of the indices -2m+1..2m."""

    def test_m1_angles(self):
        dx, dy = direction_offsets(1, np.arange(-1, 3))
        assert list(zip(dx, dy)) == [(1, -1), (1, 0), (1, 1), (0, 1)]
        slopes = direction_slopes(1, np.arange(-1, 3))
        assert np.isnan(slopes[1])  # index 0 is no direction
        assert np.arctan(slopes[[0, 2, 3]]) == pytest.approx([-math.pi / 4, math.pi / 4, math.pi / 2])

    def test_m2_second_branch(self):
        assert tuple(direction_offsets(2, 3)) == (1, 2)
        assert direction_slopes(2, 3) == 2.0

    def test_m2_third_branch(self):
        assert tuple(direction_offsets(2, -3)) == (1, -2)
        assert direction_slopes(2, -3) == -2.0

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_counts_and_outer_ring(self, m):
        dx, dy = direction_offsets(m, np.arange(-2 * m + 1, 2 * m + 1))
        assert np.all(np.maximum(np.abs(dx), np.abs(dy)) == m)
        slopes = {math.inf if x == 0 else round(y / x, 12) for x, y in zip(dx, dy)}
        assert len(slopes) == 4 * m  # distinct directions modulo pi

    def test_invalid_m(self, prep_exam1):
        for fixed_m in (0, MAX_HALF_WIDTH + 1):
            with pytest.raises(PlanningError):
                plan_grid(build_grid(5), prep_exam1.table, fixed_m=fixed_m)


class TestUpperBound:
    def test_reference_values(self, exam1_constants):
        assert stencil_upper_bound(exam1_constants) == 13

    def test_equal_constants(self):
        constants = SplittingConstants(2.0, 2.0, 1.0, 0, 0, 0, 1.0)
        assert stencil_upper_bound(constants) == 4

    def test_exam3_bound(self, prep_exam3):
        assert stencil_upper_bound(prep_exam3.table.constants) == 32


class TestSelectStencil:
    def test_diagonal_case(self):
        choice = select_stencil(intervals(a=2 / 9, b=1.5), m_cap=13)
        assert (choice.m, choice.i1, choice.i2) == (1, 1, None)
        assert choice.tan1 == 1.0

    def test_integer_search_below_one(self):
        choice = select_stencil(intervals(a=0.55, b=0.7), m_cap=13)
        assert (choice.m, choice.i1) == (3, 2)
        assert choice.tan1 == pytest.approx(2 / 3)

    def test_steep_interval_uses_complement_index(self):
        # slopes in (2, 3): m=2 gives q in (2/3, 1) -> none; m=3: (1, 1.5) -> none
        # (strict), m=4: q in (4/3, 2) -> none strict? ceil(2)-1 = 1 < floor(4/3)+1=2
        # -> m=5: q in (5/3, 2.5) -> q=2, slope 5/2
        choice = select_stencil(intervals(a=2.0, b=3.0), m_cap=13, safety=0.0)
        assert choice.tan1 == pytest.approx(2.5)
        assert choice.i1 == 2 * choice.m - 2

    def test_minus_side_mirror(self):
        choice = select_stencil(intervals(c=-1.5, d=-2 / 9), m_cap=13)
        assert (choice.m, choice.i1, choice.i2) == (1, None, -1)
        assert choice.tan2 == -1.0

    def test_both_sides_share_m(self):
        choice = select_stencil(intervals(a=0.55, b=0.7, c=-1.5, d=-0.2), m_cap=13)
        assert choice.m == 3
        assert 0.55 < choice.tan1 < 0.7
        assert -1.5 < choice.tan2 < -0.2

    def test_failure_raises(self):
        with pytest.raises(PlanningError):
            select_stencil(intervals(a=0.50, b=0.5001), m_cap=4)

    @pytest.mark.parametrize("fixed_m, tried", [(None, "half-width <= 4 "), (2, "half-width 2 ")])
    def test_failure_names_the_half_widths_tried(self, fixed_m, tried):
        with pytest.raises(PlanningError, match=f"^no admissible stencil with {tried}for intervals"):
            select_stencil(intervals(a=0.50, b=0.5001), m_cap=4, fixed_m=fixed_m)

    @given(st.floats(0.05, 3.0), st.floats(0.05, 0.45), st.data())
    @settings(max_examples=200, deadline=None)
    def test_guaranteed_width_meets_bound(self, a_sup, width_floor, data):
        # Whenever both the interval width and the reciprocal-interval width
        # are at least w (which is what the neighborhood guarantee provides),
        # selection succeeds with m <= floor(1/w) + 1.
        width = data.draw(st.floats(width_floor, 4.0))
        iv = intervals(a=a_sup, b=a_sup + width)
        if 1.0 / iv.a_sup - 1.0 / iv.b_inf < width_floor:
            return
        choice = select_stencil(iv, m_cap=int(1.0 / width_floor) + 1)
        assert choice.m <= int(1.0 / width_floor) + 1
        assert iv.a_sup < choice.tan1 < iv.b_inf

    @given(st.floats(0.05, 0.9), st.floats(0.2, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_chosen_slope_strictly_inside(self, a_sup, width):
        iv = intervals(a=a_sup, b=a_sup + width, c=-(a_sup + width + 0.3), d=-a_sup - 0.1)
        choice = select_stencil(iv, m_cap=40)
        assert iv.a_sup < choice.tan1 < iv.b_inf
        assert iv.c_sup < choice.tan2 < iv.d_inf


class TestClipArm:
    def test_interior_target_is_node(self):
        grid = build_grid(10)
        end = clip_arm(grid, (1, 1), (2, 1))
        assert end.kind == "node" and end.node == (3, 2)
        assert not end.on_boundary
        assert end.distance == pytest.approx(grid.h * math.hypot(2, 1))

    def test_clipped_at_left_edge(self):
        grid = build_grid(10)
        end = clip_arm(grid, (1, 1), (-2, -1))
        assert end.kind == "boundary"
        assert end.point == pytest.approx((0.0, 0.05))
        assert end.distance == pytest.approx(math.hypot(0.1, 0.05))
        assert end.distance == pytest.approx(0.1118, abs=1e-4)

    def test_exit_through_corner_is_node(self):
        grid = build_grid(10)
        end = clip_arm(grid, (1, 1), (-2, -2))
        assert end.kind == "node" and end.node == (0, 0)
        assert end.on_boundary

    def test_endpoint_collinear_with_center(self):
        grid = build_grid(7)
        for offset in [(3, 1), (-5, 2), (1, -4), (4, 3)]:
            end = clip_arm(grid, (2, 3), offset)
            vx = end.point[0] - 2 / grid.n
            vy = end.point[1] - 3 / grid.n
            cross = vx * offset[1] - vy * offset[0]
            assert abs(cross) < 1e-12
            assert end.distance == pytest.approx(math.hypot(vx, vy))


class TestMeshCondition:
    def test_arithmetic_pass(self, identity_table):
        table = identity_table
        grid = build_grid(100)
        plan = plan_grid(grid, table)
        from dataclasses import replace

        fake = replace(table.constants, radius=0.05)
        plan.m[:] = 2
        res = check_mesh_condition(replace(plan, constants=fake))
        assert res.passed and res.lhs == pytest.approx(0.0283, abs=1e-4)

    def test_arithmetic_fail(self, identity_table):
        table = identity_table
        grid = build_grid(4)
        plan = plan_grid(grid, table)
        from dataclasses import replace

        plan.m[:] = 2
        res = check_mesh_condition(replace(plan, constants=replace(table.constants, radius=0.05)))
        assert not res.passed

    def test_constant_field_always_passes(self, identity_table):
        table = identity_table
        for n in (2, 5, 17):
            grid = build_grid(n)
            plan = plan_grid(grid, table)
            assert plan.max_m == 1
            assert check_mesh_condition(plan).passed


class TestPlanGrid:
    def test_exam1_five_by_five_suffices(self, prep_exam1):
        grid = build_grid(101)
        plan = plan_grid(grid, prep_exam1.table)
        assert plan.max_m == 2
        hist = plan.m_histogram()
        assert set(hist) == {1, 2}

    def test_identity_plans_axes_only(self, identity_table):
        table = identity_table
        plan = plan_grid(build_grid(9), table)
        assert plan.max_m == 1
        assert not plan.i1.any() and not plan.i2.any()

    @pytest.mark.parametrize("prep, n, fallback", [("prep_exam1", 20, 4), ("prep_exam4_k100", 201, 200 * 200)])
    def test_fallback_bounds_are_five_point_bounds(self, prep, n, fallback, request):
        # Only the fallback nodes' special-point bounds are formed.  They are
        # the slope bounds over each node's center and 4 axis-edge midpoints,
        # recounted here as one five-point sample, and merge into the ball's.
        table, grid = request.getfixturevalue(prep).table, build_grid(n)
        plan, planned, idx = plan_with_bounds(grid, table)
        assert idx.size == plan.fallback_nodes == fallback
        X, Y = grid.interior_coords()
        x, y, half = X[idx], Y[idx], 0.5 * grid.h
        a, b, c = table.field.tensor_arrays(np.stack([x, x - half, x + half, x, x]),
                                            np.stack([y, y, y, y - half, y + half]))
        g, f = slope_ratios(a, b, c)
        want = slope_bounds(g, f, b > 0.0, b < 0.0, axis=0)
        axis = np.arange(1, n) / n
        ball = table.ball_bounds(axis, axis, table.constants.radius)[0]
        for (ufunc, _), want_k, ball_k, planned_k in zip(SLOPE_REDUCTIONS, want, ball, planned):
            assert np.array_equal(planned_k[idx], ufunc(ball_k[idx], want_k))

    def test_unsafe_replan_names_the_first_fallback_node(self, prep_exam1, request):
        grid = build_grid(20)
        _, _, fallback = plan_with_bounds(grid, prep_exam1.table)
        assert fallback.size == 4
        node = grid.node_from_linear(int(fallback[0]))
        request.getfixturevalue("directionless_replan")
        with pytest.raises(PlanningError) as info:
            plan_grid(grid, prep_exam1.table)
        assert str(info.value) == f"no sign-safe direction pair at node (j={node[0]}, k={node[1]})"
        assert info.value.node == node

    def test_exam3_all_diagonal(self, prep_exam3):
        plan = plan_grid(build_grid(51), prep_exam3.table)
        assert plan.m_histogram() == {1: 2500}
        # where a sign part exists the chosen slope is the diagonal
        assert set(np.unique(plan.tan1[~np.isnan(plan.tan1)])) == {1.0}
        assert set(np.unique(plan.tan2[~np.isnan(plan.tan2)])) == {-1.0}

    def test_strict_diagonal_dominance_implies_m1(self):
        # a > |b| and c > |b| with comfortable margins: 3x3 everywhere
        field = field_from_expressions("dd", "2.0", "sin(2*pi*x*y)", "2.0")
        from monofd.field import ProbeTable

        table = ProbeTable(field, 1e-3)
        plan = plan_grid(build_grid(21), table)
        assert plan.m_histogram() == {1: 400}

    def test_planned_slopes_inside_intervals(self, prep_exam4):
        plan, (a_sup, b_inf, c_sup, d_inf), _ = plan_with_bounds(build_grid(31), prep_exam4.table)
        active1 = plan.i1 != 0
        assert np.all(plan.tan1[active1] > a_sup[active1])
        assert np.all(plan.tan1[active1] < b_inf[active1])
        active2 = plan.i2 != 0
        assert np.all(plan.tan2[active2] > c_sup[active2])
        assert np.all(plan.tan2[active2] < d_inf[active2])

    def test_m1_plans_use_diagonals_when_b_present(self, prep_exam3):
        plan = plan_grid(build_grid(21), prep_exam3.table)
        ones = plan.m == 1
        assert np.all((plan.i1[ones] == 1) | (plan.i1[ones] == 0))
        assert np.all((plan.i2[ones] == -1) | (plan.i2[ones] == 0))

    def test_fixed_m_respected(self, prep_exam1):
        plan = plan_grid(build_grid(15), prep_exam1.table, fixed_m=2)
        assert plan.m_histogram() == {2: 196}

    def test_node_plan_materialization(self, prep_exam1):
        # each dump line restates the node's plan and counts the arms of its
        # planned directions that clip_arm shortens at the boundary
        grid = build_grid(15)
        plan = plan_grid(grid, prep_exam1.table)
        stream = io.StringIO()
        plan.dump(stream)
        rows = [line.split() for line in stream.getvalue().splitlines()[1:]]
        assert len(rows) == grid.interior_count
        for idx, (j, k, m, i1, _, i2, _, clipped) in enumerate(rows):
            node = grid.node_from_linear(idx)
            assert (int(j), int(k)) == node
            assert (int(m), int(i1), int(i2)) == (plan.m[idx], plan.i1[idx], plan.i2[idx])
            ends = [
                clip_arm(grid, node, (sign * int(dx), sign * int(dy)))
                for i in (int(i1), int(i2)) if i
                for dx, dy in [direction_offsets(int(m), i)]
                for sign in (1, -1)
            ]
            assert int(clipped) == sum(end.kind == "boundary" for end in ends)
        assert any(int(row[-1]) > 0 for row in rows)

    def test_dump_format(self, prep_exam3, tmp_path):
        grid = build_grid(5)
        plan = plan_grid(grid, prep_exam3.table)
        path = tmp_path / "plan.txt"
        with open(path, "w") as fh:
            plan.dump(fh)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 1 + grid.interior_count
        first = lines[1].split()
        assert len(first) == 8
        assert first[:4] == ["1", "1", "1", "1"]
