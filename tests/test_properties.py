"""End-to-end properties over random SPD tensor fields given as grammar text.

a = 1 + p**2 and c = 1 + q**2 for small trigonometric sums p and q, and
b = t*sqrt(a*c)*sin(r) with |t| <= 0.95, so a*c - b**2 >= (1 - t**2)*a*c > 0
everywhere.  With f = 0 the discrete maximum principle bounds the solution
by the extrema of the Dirichlet data g.  Where the paper's mesh condition
holds, the ball plan alone is safe: no node falls back, no ball is empty
and the audit passes.  A strictly diagonally dominant tensor,
|b| < min(a, c), admits the 3x3 stencil at every node.  For a
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
from monofd.stencil import check_mesh_condition, plan_grid
from monofd.verification import boundary_extrema, prepare, run_case

from conftest import plan_with_bounds


@st.composite
def trig_sum(draw, terms=2, scale=2.0):
    """Grammar text of a sum of ``terms`` terms amp*sin(pi*(kx*x + ky*y) + phase), |amp| <= scale."""
    parts = []
    for _ in range(terms):
        amp = draw(st.floats(-scale, scale))
        kx, ky = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        phase = draw(st.floats(0.0, 2.0 * math.pi))
        parts.append(f"{amp!r}*sin(pi*({kx}*x + {ky}*y) + {phase!r})")
    return " + ".join(parts)


@st.composite
def spd_tensor(draw, scale=2.0, t_max=0.95):
    """Grammar text (a, b, c) of a uniformly positive definite tensor field."""
    a = f"1 + ({draw(trig_sum(scale=scale))})**2"
    c = f"1 + ({draw(trig_sum(scale=scale))})**2"
    t = draw(st.floats(-t_max, t_max))
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
def rotated_tensor(draw):
    """Grammar text (a, b, c) of diag(k, 1), 1 <= k <= 20, rotated by the
    smooth angle theta0 + p for a small trigonometric sum p, as exam4 is by
    pi*sin(x)*cos(y): determinant k everywhere, planned half-widths up to
    about 10."""
    k = draw(st.floats(1.0, 20.0))
    theta = f"({draw(st.floats(0.0, math.pi))!r} + {draw(trig_sum(terms=1, scale=0.3))})"
    return (f"{k!r}*cos({theta})**2 + sin({theta})**2", f"{k - 1.0!r}*sin({theta})*cos({theta})",
            f"{k!r}*sin({theta})**2 + cos({theta})**2")


@given(abc=st.one_of(rotated_tensor(), spd_tensor(scale=0.5, t_max=0.99)))
@settings(max_examples=25, deadline=None)
def test_mesh_condition_plans_every_node_on_its_ball(abc):
    # The paper's sufficient condition: where every stencil fits inside its
    # planning ball, sqrt(2)*h*max_m <= radius, and the ball is no smaller
    # than the probe step, the ball intervals alone plan each node into an
    # M-matrix, with no node falling back to its midpoints.  The drawn radii
    # straddle sqrt(2)*h*max_m at these N, so the condition is met with
    # little slack in some examples and missed in others.
    problem = problem_from_expressions("smooth", abc, f="0", g="0")
    table = prepare(problem, probe_step=0.01).table
    for n in (21, 61, 121):
        plan = plan_grid(build_grid(n), table)
        if check_mesh_condition(plan).passed and table.constants.radius >= table.step:
            assert (plan.fallback_nodes, plan.empty_balls) == (0, 0), (n, table.constants)
            assert audit_m_matrix(assemble(problem, plan)).passed, n


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
