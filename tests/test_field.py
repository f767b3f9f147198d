import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monofd.errors import ConfigError, FieldValidationError
from monofd.field import ProbeTable, field_from_expressions
from monofd.problems import built_in_problem

from conftest import identity_field, tensor_at
from test_properties import spd_tensor

SQRT2 = math.sqrt(2.0)


def constant_field(a, b, c, name="const"):
    return field_from_expressions(name, a, b, c)


class TestTensorEvaluation:
    def test_exam1_point_value(self):
        field = built_in_problem("exam1").field
        a, b, c = tensor_at(field, 0.25, 0.5)
        assert (a, c) == (9.0, 3.0)
        assert b == pytest.approx(4.0 * math.sin(math.pi / 4))
        assert b == pytest.approx(2.828427, abs=1e-6)

    def test_identity_everywhere(self):
        field = identity_field()
        assert tensor_at(field, 0.3, 0.7) == (1.0, 0.0, 1.0)

    def test_exam4_origin(self):
        # theta = pi*sin(0)*cos(0) = 0, so the tensor is diag(k, 1)
        field = built_in_problem("exam4", k=10).field
        a, b, c = tensor_at(field, 0.0, 0.0)
        assert a == pytest.approx(10.0)
        assert b == pytest.approx(0.0, abs=1e-15)
        assert c == pytest.approx(1.0)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            built_in_problem("exam5")


class TestValidateSpd:
    """Positive-definiteness validation, done as ProbeTable computes its constants."""

    def test_exam1_minimum_determinant(self):
        # 27 - 16 sin^2 attains its minimum 11 exactly on the probe lattice
        constants = ProbeTable(built_in_problem("exam1").field, 1e-2).constants
        assert constants.alpha_bar == pytest.approx(11.0, abs=1e-12)

    def test_indefinite_rejected(self):
        # det = 1 > 0, but a and c are negative: negative definite
        with pytest.raises(FieldValidationError):
            ProbeTable(constant_field("-1", "0", "-1"), 0.25)

    def test_exam4_determinant_is_k(self):
        constants = ProbeTable(built_in_problem("exam4", k=100).field, 1e-2).constants
        assert constants.alpha_bar == pytest.approx(100.0, rel=1e-12)


class TestRatioFunctions:
    """The sampled slope ratios G = b/a and F = c/b of the probe table, F
    split into f_plus and f_minus by the sign of G."""

    def test_zero_b_point(self):
        table = ProbeTable(built_in_problem("exam1").field, 0.25)  # b = 0 on the x-axis
        assert (table.f_plus[0] == np.inf).all() and (table.f_minus[0] == -np.inf).all()
        assert (table.ratio_g[0] == 0.0).all()
        assert not table.row_parts[:, 0].any()

    def test_positive_b_branch(self):
        table = ProbeTable(constant_field("9", "2", "3"), 0.25)
        assert table.f_plus == pytest.approx(np.full((5, 5), 1.5))
        assert (table.f_minus == -np.inf).all()
        assert table.ratio_g == pytest.approx(np.full((5, 5), 2.0 / 9.0))

    def test_negative_b_branch(self):
        table = ProbeTable(constant_field("9", "-2", "3"), 0.25)
        assert table.f_minus == pytest.approx(np.full((5, 5), -1.5))
        assert (table.f_plus == np.inf).all()
        assert table.ratio_g == pytest.approx(np.full((5, 5), -2.0 / 9.0))


def constants_oracle(table) -> tuple:
    """The planning constants by the formulas the table replaced: c/b masked
    by the sign of b itself, from fresh samples of the field on its lattice."""
    a, b, c = table.field.tensor_arrays(table.xs[None, :], table.xs[:, None])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g, f = b / a, np.where(b != 0.0, c / b, np.nan)
    alpha_bar = float((a * c - b**2).min())
    weight = np.abs(b) + 1.0
    alpha = float(max((a * weight).max(), (c * weight).max()))
    cap_m = float(np.abs(g).max() + alpha_bar / alpha)
    f_plus = np.where((b > 0.0) & (f < cap_m), f, cap_m)
    f_minus = np.where((b < 0.0) & (f > -cap_m), f, -cap_m)
    lips = [float(sum(np.abs(np.diff(v, axis=axis)).max() for axis in (0, 1)) / table.step)
            for v in (f_plus, f_minus, g)]
    top = max(lips)
    radius = SQRT2 if top == 0.0 else min(alpha_bar / (3.0 * alpha * top), SQRT2)
    return (alpha_bar, alpha, cap_m, *lips, radius)


def assert_constants_match_oracle(table):
    got = np.array(dataclasses.astuple(table.constants))
    assert got.tobytes() == np.array(constants_oracle(table)).tobytes(), table.constants


class TestComputeConstants:
    @pytest.mark.parametrize("prep", ["prep_exam1", "prep_exam2", "prep_exam3", "prep_exam4", "prep_exam4_k100"])
    def test_constants_match_the_sign_of_b_formulas(self, request, prep):
        assert_constants_match_oracle(request.getfixturevalue(prep).table)

    @given(abc=spd_tensor(), probe_step=st.sampled_from([0.01, 0.02, 0.05]))
    @settings(max_examples=30, deadline=None)
    def test_constants_match_the_sign_of_b_formulas_on_random_fields(self, abc, probe_step):
        assert_constants_match_oracle(ProbeTable(field_from_expressions("random", *abc), probe_step))

    def test_exam1_reference_values(self, prep_exam1):
        constants = prep_exam1.table.constants
        assert constants.alpha_bar == pytest.approx(11.0, abs=1e-12)
        assert constants.alpha == pytest.approx(45.0, abs=1e-12)
        assert constants.lip_fplus == 0.0  # cut-off saturates; see cap level
        assert constants.lip_fminus == 0.0
        assert constants.radius > 0.0

    def test_identity_constant_field(self, identity_table):
        constants = identity_table.constants
        assert constants.alpha_bar == pytest.approx(1.0)
        assert constants.alpha == pytest.approx(1.0)
        assert constants.lip_g == 0.0
        assert constants.radius == pytest.approx(SQRT2)

    def test_exam3_extremes(self, prep_exam3):
        constants = prep_exam3.table.constants
        # a*c - b^2 = 1.21 - sin^2 and a(|b|+1) = 1.1(1+|sin|), extremized
        # where sin(2*pi*x*y) hits +-1; confirmed against the dense lattice.
        assert constants.alpha_bar == pytest.approx(0.21, abs=1e-9)
        assert constants.alpha == pytest.approx(2.2, abs=1e-9)

    def test_rejects_indefinite_field(self):
        with pytest.raises(FieldValidationError):
            ProbeTable(constant_field("1", "2", "1"), 0.05)
        # 0/0 gives NaN and 1/0 gives inf at x = 0
        for a in ("x/x + 1", "1/x"):
            with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(FieldValidationError):
                ProbeTable(field_from_expressions("nonfinite", a, "0", "1"), 1e-2)

    def test_refinement_monotonicity(self):
        field = built_in_problem("exam3").field
        coarse = ProbeTable(field, 1 / 100).constants
        fine = ProbeTable(field, 1 / 200).constants
        assert fine.alpha_bar <= coarse.alpha_bar + 1e-15
        assert fine.alpha >= coarse.alpha - 1e-15

    def test_cutoff_inequalities_on_probes(self, prep_exam4):
        # F+ >= G + alpha_bar/alpha and F- <= G - alpha_bar/alpha everywhere,
        # with the cut-offs F+ = c/b capped at cap_m where b > 0 (cap_m
        # elsewhere) and F- = c/b floored at -cap_m where b < 0.
        constants = prep_exam4.table.constants
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
        table = ProbeTable(built_in_problem("exam1").field, 0.25)
        a_sup, b_inf, c_sup, d_inf = table.window_intervals(0.13, 0.13, 0.01)
        assert a_sup == -np.inf and d_inf == np.inf
