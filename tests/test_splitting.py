import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monofd.assembly import directional_term_row
from monofd.errors import AssemblyError, PlanError
from monofd.field import field_from_expressions
from monofd.problems import built_in_problem
from monofd.splitting import GAMMA_TOLERANCE, AngleIntervals, slope_bounds, split_values

from conftest import identity_field


def region_grid(x0, x1, y0, y1, n=21):
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    X, Y = np.meshgrid(xs, ys)
    return np.column_stack([X.ravel(), Y.ravel()])


def ratios(field, x, y):
    """Tensor samples as the slope_bounds inputs (g, f, plus, minus)."""
    a, b, c = field.tensor_arrays(x, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(b != 0.0, c / b, np.nan)
    return b / a, f, b > 0.0, b < 0.0


def region_intervals(field, region):
    return AngleIntervals(*map(float, slope_bounds(*ratios(field, region[:, 0], region[:, 1]))))


class TestAngleIntervals:
    def test_zero_b_region_both_empty(self):
        field = identity_field()
        iv = region_intervals(field, region_grid(0.2, 0.8, 0.2, 0.8))
        assert (iv.a_sup, iv.b_inf, iv.c_sup, iv.d_inf) == (-np.inf, np.inf, -np.inf, np.inf)
        assert iv.a_sup == -np.inf and iv.d_inf == np.inf

    def test_constant_field_single_values(self):
        field = field_from_expressions("c923", "9", "2", "3")
        iv = region_intervals(field, region_grid(0.1, 0.4, 0.1, 0.4))
        assert (iv.a_sup, iv.b_inf, iv.c_sup, iv.d_inf) == (2 / 9, 1.5, -np.inf, np.inf)
        assert iv.d_inf == np.inf and iv.a_sup != -np.inf

    def test_axis0_matches_column_reductions(self):
        # columns mix both signs of b, one sign only, and b = 0 only
        field = built_in_problem("exam3").field
        x = np.array([[0.7, 0.2, 0.6, 0.0], [0.8, 0.3, 0.9, 0.0], [0.5, 0.1, 0.95, 0.0]])
        y = np.array([[0.7, 0.2, 0.6, 0.4], [0.8, 0.3, 0.9, 0.5], [0.6, 0.1, 0.95, 0.6]])
        g, f, plus, minus = ratios(field, x, y)
        assert plus.any() and minus.any()
        columns = slope_bounds(g, f, plus, minus, axis=0)
        for col in range(x.shape[1]):
            whole = slope_bounds(g[:, col], f[:, col], plus[:, col], minus[:, col])
            assert tuple(v[col] for v in columns) == whole

    def test_sign_changing_region_vs_bruteforce(self):
        # Oracle: dense 1e-4-pitch sampling of the same rectangle.
        field = built_in_problem("exam3").field
        x0, x1, y0, y1 = 0.55, 0.75, 0.6, 0.8  # b changes sign across xy=0.5
        iv = region_intervals(field, region_grid(x0, x1, y0, y1, 64))
        xs = np.arange(x0, x1 + 1e-12, 1e-4)
        ys = np.arange(y0, y1 + 1e-12, 1e-4)
        X, Y = np.meshgrid(xs, ys)
        a, b, c = field.tensor_arrays(X, Y)
        plus, minus = b > 0, b < 0
        assert plus.any() and minus.any()
        assert iv.a_sup == pytest.approx((b[plus] / a[plus]).max(), abs=2e-3)
        assert iv.b_inf == pytest.approx((c[plus] / b[plus]).min(), rel=2e-2)
        assert iv.c_sup == pytest.approx((c[minus] / b[minus]).max(), rel=2e-2)
        assert iv.d_inf == pytest.approx((b[minus] / a[minus]).min(), abs=2e-3)
        # sampled sup/inf can only lie inside the true interval
        assert iv.a_sup <= (b[plus] / a[plus]).max() + 1e-12
        assert iv.b_inf >= (c[plus] / b[plus]).min() - 1e-12

    def test_antitone_in_region_growth(self):
        field = built_in_problem("exam1").field
        small = region_intervals(field, region_grid(0.3, 0.5, 0.3, 0.5))
        large = region_intervals(field, region_grid(0.2, 0.6, 0.2, 0.6))
        assert large.a_sup >= small.a_sup
        assert large.b_inf <= small.b_inf


class TestSplitCoefficients:
    def test_positive_branch_hand_values(self):
        g0, g1p, g1m, g2 = split_values(9.0, 2.0, 3.0, math.tan(math.pi / 4), None)
        assert (g0, g1p, g1m, g2) == pytest.approx((7.0, 4.0, 0.0, 1.0))

    def test_zero_b_any_angle(self):
        g0, g1p, g1m, g2 = split_values(1.0, 0.0, 1.0, math.tan(1.0), math.tan(-1.0))
        assert (g0, g1p, g1m, g2) == (1.0, 0.0, 0.0, 1.0)

    def test_negative_branch_mirror(self):
        g0, g1p, g1m, g2 = split_values(9.0, -2.0, 3.0, None, math.tan(-math.pi / 4))
        assert (g0, g1p, g1m, g2) == pytest.approx((7.0, 0.0, 4.0, 1.0))

    def test_inadmissible_angle_refused(self):
        # tan(beta1) must exceed b/a = 2/9; a smaller slope makes gamma0
        # negative, which assembly refuses
        g0, _, _, _ = split_values(9.0, 2.0, 3.0, 0.1, None)
        assert g0 < GAMMA_TOLERANCE
        with pytest.raises(AssemblyError):
            directional_term_row(g0, g0, 0.1, 0.1)

    def test_missing_direction_is_plan_error(self):
        with pytest.raises(PlanError):
            split_values(9.0, 2.0, 3.0, None, math.tan(-math.pi / 4))


def reconstruct(g0, g1p, g1m, g2, tan1, tan2):
    def cs(t):
        if t is None:
            return 0.0, 0.0
        c = 1.0 / math.sqrt(1.0 + t * t)
        return c, t * c

    c1, s1 = cs(tan1)
    c2, s2 = cs(tan2)
    a = g0 + g1p * c1 * c1 + g1m * c2 * c2
    b = g1p * c1 * s1 + g1m * c2 * s2
    c = g1p * s1 * s1 + g1m * s2 * s2 + g2
    return a, b, c


class TestReconstructionIdentity:
    @given(
        st.floats(0.5, 9.0),
        st.floats(-2.5, 2.5),
        st.floats(0.5, 9.0),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_admissible_angles(self, a, b, c, data):
        if a * c - b * b <= 1e-3:
            return
        # strictly admissible pointwise slopes for either sign of b
        if b > 0:
            tan1 = data.draw(st.floats(b / a + 1e-6, min(c / b - 1e-6, 1e6)))
            tan2 = data.draw(st.floats(-5.0, -1e-3))
        elif b < 0:
            tan1 = data.draw(st.floats(1e-3, 5.0))
            tan2 = data.draw(st.floats(max(c / b + 1e-6, -1e6), b / a - 1e-6))
        else:
            tan1, tan2 = 1.0, -1.0
        values = split_values(a, b, c, tan1, tan2)
        assert min(values) >= -1e-12
        got = reconstruct(*values, tan1, tan2)
        scale = max(abs(a), abs(b), abs(c))
        assert got[0] == pytest.approx(a, rel=1e-12, abs=1e-12 * scale)
        assert got[1] == pytest.approx(b, rel=1e-12, abs=1e-12 * scale)
        assert got[2] == pytest.approx(c, rel=1e-12, abs=1e-12 * scale)

    @given(st.floats(0.5, 9.0), st.floats(0.01, 2.5), st.floats(0.5, 9.0))
    @settings(max_examples=100, deadline=None)
    def test_mirror_symmetry(self, a, b, c):
        if a * c - b * b <= 1e-3:
            return
        tan1 = 0.5 * (b / a + c / b)
        plus = split_values(a, b, c, tan1, None)
        minus = split_values(a, -b, c, None, -tan1)
        assert minus[0] == pytest.approx(plus[0], rel=1e-12)
        assert minus[2] == pytest.approx(plus[1], rel=1e-12)  # gamma1 swaps sides
        assert minus[1] == plus[2] == 0.0
        assert minus[3] == pytest.approx(plus[3], rel=1e-12)


def min_split(field, tan1, tan2, region):
    """Minimum of each splitting coefficient over the region samples."""
    a, b, c = field.tensor_arrays(region[:, 0], region[:, 1])
    values = [split_values(*abc, tan1, tan2) for abc in zip(a, b, c)]
    return np.min(values, axis=0)


class TestVerifyNonnegative:
    def test_identity_any_angle(self):
        field = identity_field()
        mins = min_split(field, math.tan(0.7), math.tan(-0.7), region_grid(0, 1, 0, 1))
        assert mins.min() >= GAMMA_TOLERANCE

    def test_exam1_planner_ball(self, prep_exam1):
        field = prep_exam1.problem.field
        # global admissible pair for this tensor: slopes strictly inside
        # (sup b/a, inf c/b) = (4/9, 3/4) and its mirror image
        mins = min_split(field, 0.6, -0.6, region_grid(0, 1, 0, 1, 51))
        assert mins.min() >= GAMMA_TOLERANCE

    def test_out_of_interval_angle_fails_with_witness(self):
        field = field_from_expressions("c923", "9", "2", "3")
        bad = 1.5 + 0.1  # just beyond inf c/b = 1.5
        mins = min_split(field, bad, None, region_grid(0.2, 0.8, 0.2, 0.8))
        assert mins[3] < 0
