"""End-to-end properties over random SPD tensor fields given as grammar text.

a = 1 + p**2 and c = 1 + q**2 for small trigonometric sums p and q, and
b = t*sqrt(a*c)*sin(r) with |t| <= 0.95, so a*c - b**2 >= (1 - t**2)*a*c > 0
everywhere.  With f = 0 the discrete maximum principle bounds the solution
by the extrema of the Dirichlet data g.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from monofd.errors import PlanningError
from monofd.problems import problem_from_expressions
from monofd.verification import boundary_extrema, prepare, run_case


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
    low, high = boundary_extrema(problem, case.grid)
    # the maximum principle up to the rounding of the direct solve
    assert low - 1e-10 <= case.solution.min() and case.solution.max() <= high + 1e-10
