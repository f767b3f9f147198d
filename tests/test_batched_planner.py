"""The batched planner against the per-node planner it replaced.

``plan_digests.json`` was written by the per-node planner: for exam1, exam3
and exam4 (k=10, 100) at N in {21, 51, 101, 161, 201} (and exam4 k=100 at
N=41) it holds a sha256 of the planned arrays, the fallback and empty-ball
counts, or the node at which planning raised.  The scalar selection rules
below are that planner's, kept as the oracle for the array kernels.
"""

import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monofd.errors import PlanningError
from monofd.grid import build_grid
from monofd.splitting import AngleIntervals
from monofd.stencil import StencilChoice, _pick_integer, _select, direction_slopes, plan_grid, select_stencil

from conftest import plan_with_bounds

PINNED = json.loads((Path(__file__).parent / "plan_digests.json").read_text())
PREPARED = {"exam1": "prep_exam1", "exam3": "prep_exam3", "exam4-k10": "prep_exam4",
            "exam4-k100": "prep_exam4_k100"}


def plan_digest(plan, bounds) -> str:
    """sha256 of the planned arrays and the slope bounds the plan was made on."""
    h = hashlib.sha256()
    for values in (plan.m, plan.i1, plan.i2, plan.tan1, plan.tan2, *bounds):
        h.update(np.ascontiguousarray(values).tobytes())
    return h.hexdigest()


def plan_case(request, case):
    problem, n = case.rsplit("-N", 1)
    prep = request.getfixturevalue(PREPARED[problem])
    return lambda: plan_with_bounds(build_grid(int(n)), prep.table)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_plan_matches_per_node_planner(request, case):
    pinned = PINNED[case]
    plan = plan_case(request, case)
    if "node" in pinned:
        with pytest.raises(PlanningError) as info:
            plan()
        assert info.value.node == tuple(pinned["node"])
        return
    result, bounds, _ = plan()
    assert plan_digest(result, bounds) == pinned["digest"]
    assert (result.fallback_nodes, result.empty_balls) == (pinned["fallback_nodes"], pinned["empty_balls"])


def test_plan_counters_match_seed_figures(prep_exam2, prep_exam4_k100):
    # exam4 k=100: the planning radius is below the probe step, so every
    # ball is empty and every node is planned on its edge midpoints.
    for prep, n, expected in ((prep_exam4_k100, 201, (40_000, 40_000)), (prep_exam2, 161, (0, 0))):
        plan = plan_grid(build_grid(n), prep.table)
        assert (plan.fallback_nodes, plan.empty_balls) == expected


@pytest.mark.parametrize("case", ["exam1-N41", "exam3-N41", "exam4-k10-N41", "exam4-k100-N201",
                                  "exam4-k100-N41"])
def test_planner_emits_no_warnings(request, case):
    plan = plan_case(request, case)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            plan()
        except PlanningError:
            assert case == "exam4-k100-N41"


# -- scalar oracle: the per-node selection rules -------------------------------


def pick_reference(lo, hi, lo_clamp=None, hi_clamp=None):
    low = int(math.floor(lo)) + 1
    high = int(math.ceil(hi)) - 1
    if lo_clamp is not None:
        low = max(low, lo_clamp)
    if hi_clamp is not None:
        high = min(high, hi_clamp)
    if low > high:
        return None
    mid = 0.5 * (lo + hi)
    return sorted(range(low, high + 1), key=lambda i: (abs(i - mid), abs(i)))[0]


def shrunk_reference(lo, hi, safety):
    delta = safety * min(hi - lo, 1.0)
    return lo + delta, hi - delta


def plus_reference(m, iv, safety):
    lo, hi = shrunk_reference(iv.a_sup, iv.b_inf, safety)
    if not lo < hi:
        return None
    if lo < 1.0 < hi:
        return m, 1.0
    if hi <= 1.0:
        i = pick_reference(m * lo, m * hi, lo_clamp=1)
        return (i, i / m) if i is not None else None
    q = pick_reference(m / hi, m / lo, lo_clamp=1, hi_clamp=m - 1)
    return (2 * m - q, m / q) if q is not None else None


def minus_reference(m, iv, safety):
    lo, hi = shrunk_reference(iv.c_sup, iv.d_inf, safety)
    if not lo < hi:
        return None
    if lo < -1.0 < hi:
        return -m, -1.0
    if lo >= -1.0:
        i = pick_reference(m * lo, m * hi, hi_clamp=-1)
        return (i, i / m) if i is not None else None
    q = pick_reference(m / hi, m / lo, lo_clamp=-(m - 1), hi_clamp=-1)
    return (-2 * m - q, m / q) if q is not None else None


def select_reference(iv, m_cap, safety, fixed_m):
    m_values = [fixed_m] if fixed_m is not None else range(1, m_cap + 1)
    for margin in (safety, 0.0) if safety > 0.0 else (0.0,):
        for m in m_values:
            plus_empty, minus_empty = iv.a_sup == -np.inf, iv.d_inf == np.inf
            plus = None if plus_empty else plus_reference(m, iv, margin)
            if plus is None and not plus_empty:
                continue
            minus = None if minus_empty else minus_reference(m, iv, margin)
            if minus is None and not minus_empty:
                continue
            i1, tan1 = plus if plus is not None else (None, None)
            i2, tan2 = minus if minus is not None else (None, None)
            return StencilChoice(m, i1, i2, tan1, tan2)
    return None


def slope_reference(m, i):
    """The slope the array selection stored beside index i before plans held
    only indices: 1.0, flat/m or m/q for the plus part, negated for the minus part."""
    p = abs(i)
    slope = 1.0 if p == m else p / m if p < m else m / (2 * m - p)
    return slope if i > 0 else -slope


def test_derived_slopes_match_stored_slopes():
    # The selection picks 1..2m-1 for the plus part and their negatives for
    # the minus part; the pinned digests reach only small half-widths.
    for m in range(1, 101):
        picks = [sign * p for p in range(1, 2 * m) for sign in (1, -1)]
        expected = np.array([slope_reference(m, i) for i in picks])
        got = direction_slopes(np.full(len(picks) + 1, m), np.array(picks + [0]))
        assert got[:-1].tobytes() == expected.tobytes(), m
        assert np.isnan(got[-1])


# Quarter-integers put many midpoints exactly on a half-integer (a tie).
ENDPOINT = st.one_of(st.floats(-40.0, 40.0), st.integers(-160, 160).map(lambda k: k / 4))
CLAMP = st.none() | st.integers(-30, 30)


@given(st.lists(st.tuples(ENDPOINT, ENDPOINT), min_size=1, max_size=30), CLAMP, CLAMP)
@settings(max_examples=300, deadline=None)
def test_pick_integer_matches_sorted_rule(pairs, lo_clamp, hi_clamp):
    # Unordered pairs give empty ranges as often as nonempty ones.
    lo, hi = np.array(pairs).T
    got = _pick_integer(lo, hi, lo_clamp, hi_clamp)
    for k, (a, b) in enumerate(pairs):
        expected = pick_reference(a, b, lo_clamp, hi_clamp)
        assert got[k] == (0 if expected is None else expected), (a, b)


def sign_part(sign):
    """Bounds of one sign part: empty (-inf, inf), finite, or open-ended."""
    finite = st.tuples(st.floats(-4.0, 4.0), st.floats(-0.5, 3.0)).map(lambda t: (t[0], t[0] + t[1]))
    open_ended = st.floats(0.05, 4.0).map(lambda v: (v, np.inf) if sign > 0 else (-np.inf, -v))
    return st.one_of(st.just((-np.inf, np.inf)), finite.map(lambda t: tuple(sign * abs(v) for v in t)),
                     finite, open_ended)


@given(sign_part(1), sign_part(-1), st.integers(1, 30), st.sampled_from([0.0, 0.05, 0.2]),
       st.none() | st.integers(1, 12))
@settings(max_examples=400, deadline=None)
def test_select_stencil_matches_scalar_rule(plus, minus, m_cap, safety, fixed_m):
    iv = AngleIntervals(plus[0], plus[1], minus[0], minus[1])
    expected = select_reference(iv, m_cap, safety, fixed_m)
    if expected is None:
        with pytest.raises(PlanningError):
            select_stencil(iv, m_cap, safety=safety, fixed_m=fixed_m)
    else:
        assert select_stencil(iv, m_cap, safety=safety, fixed_m=fixed_m) == expected


@given(st.lists(st.tuples(sign_part(1), sign_part(-1)), min_size=1, max_size=40), st.integers(1, 30),
       st.sampled_from([0.0, 0.05, 0.2]), st.none() | st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_select_reads_no_bound_of_an_empty_part(parts, m_cap, safety, fixed_m):
    # B and C of an empty sign part (A = -inf, D = inf) are never read: the
    # selection does not change when they are nan.
    a_sup, b_inf, c_sup, d_inf = (np.array(v) for v in zip(*[(*p, *q) for p, q in parts]))
    want = _select((a_sup, b_inf, c_sup, d_inf), m_cap, safety, fixed_m)
    hidden = np.where(a_sup == -np.inf, np.nan, b_inf), np.where(d_inf == np.inf, np.nan, c_sup)
    got = _select((a_sup, hidden[0], hidden[1], d_inf), m_cap, safety, fixed_m)
    for w, g in zip(want, got):
        assert w.tobytes() == g.tobytes()
