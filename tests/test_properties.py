"""End-to-end properties over random SPD tensor fields given as grammar text.

a = 1 + p**2 and c = 1 + q**2 for small trigonometric sums p and q, and
b = t*sqrt(a*c)*sin(r) with |t| <= 0.95, so a*c - b**2 >= (1 - t**2)*a*c > 0
everywhere.  With f = 0 the discrete maximum principle bounds the solution
by the extrema of the Dirichlet data g.  A strictly diagonally dominant
tensor, |b| < min(a, c), admits the 3x3 stencil at every node.  For a
constant tensor the three-point conservative difference is exact on linear
functions, on arms clipped at the boundary too, so a linear solution is
reproduced to rounding, or refused by the solver where its values lie below
float64's normal range.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monofd.assembly import assemble, audit_m_matrix
from monofd.errors import PlanningError, SolverError
from monofd.grid import build_grid
from monofd.problems import problem_from_expressions
from monofd.solver import residual
from monofd.stencil import plan_grid
from monofd.verification import boundary_extrema, prepare, run_case

from conftest import plan_with_bounds


@st.composite
def trig_sum(draw, terms=2):
    """Grammar text of a sum of ``terms`` terms amp*sin(pi*(kx*x + ky*y) + phase)."""
    parts = []
    for _ in range(terms):
        amp = draw(st.floats(-2.0, 2.0))
        kx, ky = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        phase = draw(st.floats(0.0, 2.0 * math.pi))
        parts.append(f"{amp!r}*sin(pi*({kx}*x + {ky}*y) + {phase!r})")
    return " + ".join(parts)


@st.composite
def spd_tensor(draw):
    """Grammar text (a, b, c) of a uniformly positive definite tensor field."""
    a = f"1 + ({draw(trig_sum())})**2"
    c = f"1 + ({draw(trig_sum())})**2"
    t = draw(st.floats(-0.95, 0.95))
    b = f"{t!r}*(({a})*({c}))**0.5*sin({draw(trig_sum(terms=1))})"
    return a, b, c


@given(abc=spd_tensor(), g=trig_sum(), n=st.integers(4, 21))
@settings(max_examples=40, deadline=None)
def test_random_spd_field_plans_audits_and_keeps_the_maximum_principle(abc, g, n):
    problem = problem_from_expressions("random", abc, f="0", g=g)
    try:
        case = run_case(prepare(problem, probe_step=0.01), n, require_audit=False)
    except PlanningError as exc:
        assert exc.node is not None, exc
        return
    assert case.audit.passed and case.audit.nonfinite_values == 0, case.audit
    # the solver's post-condition, recomputed from the returned solution
    assert case.report.method_name in ("float32-lu", "float64-lu")
    assert residual(case.system, case.solution) == case.report.final_relative_residual <= 1e-10
    low, high = boundary_extrema(problem, case.grid)
    # the maximum principle up to the rounding of the direct solve
    assert low - 1e-10 <= case.solution.min() and case.solution.max() <= high + 1e-10


@st.composite
def dominant_tensor(draw):
    """Grammar text (a, b, c) with |b| < min(a, c) everywhere: a = 1 + p**2,
    c = 1 + q**2 and b = t*sin(s) with |t| <= 0.99."""
    a = f"1 + ({draw(trig_sum())})**2"
    c = f"1 + ({draw(trig_sum())})**2"
    b = f"{draw(st.floats(-0.99, 0.99))!r}*sin({draw(trig_sum(terms=1))})"
    return a, b, c


@given(abc=dominant_tensor(), n=st.integers(4, 41))
@settings(max_examples=40, deadline=None)
def test_diagonally_dominant_tensor_plans_a_3x3_stencil(abc, n):
    # The paper's exception: b/a < 1 < c/b where b > 0 and c/b < -1 < b/a
    # where b < 0, so slopes +-1 lie strictly inside every node's intervals
    # and the 3x3 stencil alone plans every node into an M-matrix.
    problem = problem_from_expressions("dominant", abc, f="0", g="0")
    table, grid = prepare(problem, probe_step=0.01).table, build_grid(n)
    plan, (a_sup, b_inf, c_sup, d_inf), _ = plan_with_bounds(grid, table)
    plus, minus = a_sup > -np.inf, d_inf < np.inf
    assert (a_sup[plus] < 1.0).all() and (b_inf[plus] > 1.0).all()
    assert (c_sup[minus] < -1.0).all() and (d_inf[minus] > -1.0).all()
    assert audit_m_matrix(assemble(problem, plan)).passed
    plan = plan_grid(grid, table, fixed_m=1)
    assert plan.max_m == 1 and audit_m_matrix(assemble(problem, plan)).passed


@pytest.mark.xfail(strict=True, reason="DEFAULT_SAFETY shrinks the interval (0.97, 3.09) to (1.02, 3.04), "
                   "so the margin pass takes m = 2 (slope 2) before the pass without it tries m = 1")
def test_diagonally_dominant_tensor_auto_plan_is_3x3():
    problem = problem_from_expressions("dominant", ("1", "0.97", "3"), f="0", g="0")
    assert plan_grid(build_grid(11), prepare(problem, probe_step=0.01).table).max_m == 1


@st.composite
def constant_spd_tensor(draw):
    """Grammar text (a, b, c) of a constant SPD tensor: b = t*sqrt(a*c), |t| <= 0.95."""
    a, c = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
    return repr(a), repr(draw(st.floats(-0.95, 0.95)) * math.sqrt(a * c)), repr(c)


@given(abc=constant_spd_tensor(), coefficients=st.tuples(*[st.floats(-5.0, 5.0)] * 3), n=st.integers(4, 41))
@example(abc=("1.0", "0.0", "1.0"), coefficients=(0.0, 0.0, 5e-324), n=4)
@settings(max_examples=40, deadline=None)
def test_linear_solution_is_reproduced_to_rounding(abc, coefficients, n):
    p, q, r = coefficients
    problem = problem_from_expressions("linear", abc, exact_u=f"{p!r} + {q!r}*x + {r!r}*y")
    X, Y = build_grid(n).interior_coords()
    exact = problem.exact_u(X, Y)
    try:
        case = run_case(prepare(problem, probe_step=0.01), n)
    except SolverError:
        # The solver's documented refusal, here only where float64 cannot
        # hold the discrete solution: nonzero exact values all below the
        # normal range, so a few bits or none resolve them (5e-324 * y above).
        assert 0.0 < np.abs(exact).max() < np.finfo(float).tiny
        return
    assert np.abs(case.solution - exact).max() <= 1e-10 * np.abs(exact).max()
