import math

import numpy as np
import pytest

from monofd.errors import ConfigError, FieldValidationError
from monofd.field import (
    ProbeTable,
    built_in_field,
    compute_constants,
    field_from_expressions,
)

SQRT2 = math.sqrt(2.0)


def constant_field(a, b, c, name="const"):
    return field_from_expressions(name, a, b, c)


class TestTensorEvaluation:
    def test_exam1_point_value(self):
        field = built_in_field("exam1")
        a, b, c = field.tensor(0.25, 0.5)
        assert (a, c) == (9.0, 3.0)
        assert b == pytest.approx(4.0 * math.sin(math.pi / 4))
        assert b == pytest.approx(2.828427, abs=1e-6)

    def test_identity_everywhere(self):
        field = built_in_field("identity")
        assert field.tensor(0.3, 0.7) == (1.0, 0.0, 1.0)

    def test_exam4_origin(self):
        # theta = pi*sin(0)*cos(0) = 0, so the tensor is diag(k, 1)
        field = built_in_field("exam4", k=10)
        a, b, c = field.tensor(0.0, 0.0)
        assert a == pytest.approx(10.0)
        assert b == pytest.approx(0.0, abs=1e-15)
        assert c == pytest.approx(1.0)

    def test_domain_error(self):
        field = built_in_field("exam1")
        with pytest.raises(ConfigError):
            field.tensor(1.2, 0.5)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            built_in_field("exam2")


class TestValidateSpd:
    """Positive-definiteness validation, done by compute_constants."""

    def test_exam1_minimum_determinant(self):
        # 27 - 16 sin^2 attains its minimum 11 exactly on the probe lattice
        constants = compute_constants(ProbeTable(built_in_field("exam1"), 1e-2))
        assert constants.alpha_bar == pytest.approx(11.0, abs=1e-12)

    def test_indefinite_rejected(self):
        # det = 1 > 0, but a and c are negative: negative definite
        with pytest.raises(FieldValidationError):
            compute_constants(ProbeTable(constant_field(-1, 0, -1), 0.25))

    def test_exam4_determinant_is_k(self):
        constants = compute_constants(ProbeTable(built_in_field("exam4", k=100), 1e-2))
        assert constants.alpha_bar == pytest.approx(100.0, rel=1e-12)


class TestRatioFunctions:
    """The sampled slope ratios F = c/b and G = b/a of the probe table."""

    def test_zero_b_point(self):
        table = ProbeTable(built_in_field("exam1"), 0.25)  # b = 0 on the x-axis
        assert np.isnan(table.ratio_f[0]).all()
        assert (table.ratio_g[0] == 0.0).all()

    def test_positive_b_branch(self):
        table = ProbeTable(constant_field(9, 2, 3), 0.25)
        assert table.ratio_f == pytest.approx(np.full((5, 5), 1.5))
        assert table.ratio_g == pytest.approx(np.full((5, 5), 2.0 / 9.0))

    def test_negative_b_branch(self):
        table = ProbeTable(constant_field(9, -2, 3), 0.25)
        assert table.ratio_f == pytest.approx(np.full((5, 5), -1.5))
        assert table.ratio_g == pytest.approx(np.full((5, 5), -2.0 / 9.0))


class TestComputeConstants:
    def test_exam1_reference_values(self, prep_exam1):
        constants = prep_exam1.constants
        assert constants.alpha_bar == pytest.approx(11.0, abs=1e-12)
        assert constants.alpha == pytest.approx(45.0, abs=1e-12)
        assert constants.lip_fplus == 0.0  # cut-off saturates; see cap level
        assert constants.lip_fminus == 0.0
        assert constants.radius > 0.0

    def test_identity_constant_field(self, identity_setup):
        _, constants = identity_setup
        assert constants.alpha_bar == pytest.approx(1.0)
        assert constants.alpha == pytest.approx(1.0)
        assert constants.lip_g == 0.0
        assert constants.radius == pytest.approx(SQRT2)

    def test_exam3_extremes(self, prep_exam3):
        constants = prep_exam3.constants
        # a*c - b^2 = 1.21 - sin^2 and a(|b|+1) = 1.1(1+|sin|), extremized
        # where sin(2*pi*x*y) hits +-1; confirmed against the dense lattice.
        assert constants.alpha_bar == pytest.approx(0.21, abs=1e-9)
        assert constants.alpha == pytest.approx(2.2, abs=1e-9)

    def test_rejects_indefinite_field(self):
        with pytest.raises(FieldValidationError):
            compute_constants(ProbeTable(constant_field(1, 2, 1), 0.05))
        # 0/0 gives NaN and 1/0 gives inf at x = 0
        for a in ("x/x + 1", "1/x"):
            with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(FieldValidationError):
                compute_constants(ProbeTable(field_from_expressions("nonfinite", a, "0", "1"), 1e-2))

    def test_refinement_monotonicity(self):
        field = built_in_field("exam3")
        coarse = compute_constants(ProbeTable(field, 1 / 100))
        fine = compute_constants(ProbeTable(field, 1 / 200))
        assert fine.alpha_bar <= coarse.alpha_bar + 1e-15
        assert fine.alpha >= coarse.alpha - 1e-15

    def test_cutoff_inequalities_on_probes(self, prep_exam4):
        # F+ >= G + alpha_bar/alpha and F- <= G - alpha_bar/alpha everywhere,
        # with the cut-offs F+ = c/b capped at cap_m where b > 0 (cap_m
        # elsewhere) and F- = c/b floored at -cap_m where b < 0.
        constants = prep_exam4.constants
        field = prep_exam4.problem.field
        gap = constants.alpha_bar / constants.alpha
        cap = constants.cap_m
        x, y = np.random.default_rng(3).uniform(0, 1, size=(2, 500))
        a, b, c = field.tensor_arrays(x, y)
        g, f = b / a, c / b
        f_plus = np.where((b > 0) & (f < cap), f, cap)
        f_minus = np.where((b < 0) & (f > -cap), f, -cap)
        assert np.all(f_plus >= g + gap - 1e-9)
        assert np.all(f_minus <= g - gap + 1e-9)
        assert np.all(f_plus[b > 0] <= f[b > 0] + 1e-12)
        assert np.all(f_minus[b < 0] >= f[b < 0] - 1e-12)


class TestProbeTable:
    def test_window_matches_bruteforce(self, prep_exam3):
        table = prep_exam3.table
        field = prep_exam3.problem.field
        x0, y0, r = 0.62, 0.81, 0.05
        got = table.window_intervals(x0, y0, r)
        xs = table.xs
        X, Y = np.meshgrid(xs, xs)
        inside = (X - x0) ** 2 + (Y - y0) ** 2 < r * r
        a, b, c = field.tensor_arrays(X[inside], Y[inside])
        plus = b > 0
        minus = b < 0
        assert got[0] == pytest.approx((b[plus] / a[plus]).max())
        assert got[1] == pytest.approx((c[plus] / b[plus]).min())
        assert got[2] == pytest.approx((c[minus] / b[minus]).max())
        assert got[3] == pytest.approx((b[minus] / a[minus]).min())

    def test_empty_window(self, prep_exam1):
        out = prep_exam1.table.window_intervals(0.5, 0.5, 1e-9)
        # ball smaller than the lattice pitch may catch no probe at off-lattice centers
        table = ProbeTable(built_in_field("exam1"), 0.25)
        a_sup, b_inf, c_sup, d_inf = table.window_intervals(0.13, 0.13, 0.01)
        assert a_sup == -np.inf and d_inf == np.inf
