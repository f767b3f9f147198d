"""The array assembly against per-node scalar forms of its parts.

The scalar forms below are the direction table built case by case, the
ray-box clip of one arm, and the per-node assembly of all four splitting
terms with ``split_values`` on ``field.tensor`` at each arm midpoint and
``directional_term_row`` on one node's values.  They are the oracles for
``direction_offsets``/``direction_slopes``, ``clip_arms`` and ``assemble``.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monofd.assembly import assemble, directional_term_row
from monofd.grid import build_grid
from monofd.splitting import split_values
from monofd.stencil import ArmEndpoint, clip_arm, clip_arms, direction_offsets, direction_slopes, plan_grid


def table_reference(m):
    angles, offsets = {}, {}
    for i in range(-m, m + 1):
        angles[i] = math.atan(i / m)
        offsets[i] = (m, i)
    for i in range(m + 1, 2 * m + 1):
        dx = 2 * m - i
        angles[i] = math.pi / 2 if dx == 0 else math.atan(m / dx)
        offsets[i] = (dx, m)
    for i in range(-2 * m + 1, -m):
        angles[i] = math.atan(m / (-2 * m - i))
        offsets[i] = (2 * m + i, -m)
    return angles, offsets


def clip_reference(grid, node, offset):
    j, k = node
    dx, dy = offset
    tj, tk = j + dx, k + dy
    n = grid.n
    full = grid.h * math.hypot(dx, dy)
    if 0 <= tj <= n and 0 <= tk <= n:
        return ArmEndpoint("node", (tj / n, tk / n), full, (tj, tk), tj in (0, n) or tk in (0, n))
    t = 1.0
    if tj < 0:
        t = min(t, (0 - j) / dx)
    elif tj > n:
        t = min(t, (n - j) / dx)
    if tk < 0:
        t = min(t, (0 - k) / dy)
    elif tk > n:
        t = min(t, (n - k) / dy)
    cj, ck = j + t * dx, k + t * dy
    rj, rk = round(cj), round(ck)
    if abs(cj - rj) < 1e-9 and abs(ck - rk) < 1e-9:
        return ArmEndpoint("node", (rj / n, rk / n), t * full, (int(rj), int(rk)), True)
    return ArmEndpoint("boundary", (cj / n, ck / n), t * full, None, True)


def assemble_reference(problem, grid, plan):
    """``assemble`` node by node: the source, then the x, y, b>0 and b<0 terms.

    Each term's coefficient at an arm midpoint is its entry of
    ``split_values``; the b>0 and b<0 terms take only their own part of b.
    """
    n = grid.n
    rows, cols, vals = [], [], []
    rhs = np.zeros(grid.interior_count)
    for row in range(grid.interior_count):
        node = grid.node_from_linear(row)
        x0, y0 = node[0] / n, node[1] / n
        rhs[row] = float(problem.f(x0, y0))
        m = int(plan.m[row])
        _, offsets = table_reference(m)
        i1, i2 = int(plan.i1[row]), int(plan.i2[row])
        tan1, tan2 = ((offsets[i][1] / offsets[i][0]) if i else None for i in (i1, i2))

        def gamma_x(a, b, c):
            return split_values(a, b, c, tan1, tan2)[0]

        def gamma_y(a, b, c):
            return split_values(a, b, c, tan1, tan2)[3]

        def gamma_plus(a, b, c):
            return split_values(a, max(b, 0.0), c, tan1, None)[1]

        def gamma_minus(a, b, c):
            return split_values(a, min(b, 0.0), c, None, tan2)[2]

        terms = [((1, 0), gamma_x), ((0, 1), gamma_y)]
        terms += [(offsets[i], gamma) for i, gamma in ((i1, gamma_plus), (i2, gamma_minus)) if i]
        for (dx, dy), gamma in terms:
            ends = [clip_reference(grid, node, off) for off in ((dx, dy), (-dx, -dy))]
            gammas = [gamma(*problem.field.tensor((x0 + end.point[0]) / 2.0, (y0 + end.point[1]) / 2.0))
                      for end in ends]
            w_lo, w_center, w_hi = directional_term_row(*gammas, ends[0].distance, ends[1].distance)
            rows.append(row), cols.append(row), vals.append(w_center)
            for end, w in zip(ends, (w_hi, w_lo)):
                if end.kind == "node" and not end.on_boundary:
                    rows.append(row), cols.append(grid.linear_index(*end.node)), vals.append(w)
                else:
                    rhs[row] -= w * float(problem.g(*end.point))
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(grid.interior_count,) * 2).tocsr()
    matrix.sum_duplicates()
    matrix.sort_indices()
    return matrix, rhs


def test_direction_table_matches_case_by_case_table():
    for m in range(1, 41):
        angles, offsets = table_reference(m)
        index = np.arange(-2 * m + 1, 2 * m + 1)
        dx, dy = direction_offsets(m, index)
        assert {int(i): (int(x), int(y)) for i, x, y in zip(index, dx, dy)} == offsets, m
        slopes = direction_slopes(m, index)
        assert np.isnan(slopes[index == 0]).all()
        assert {int(i): math.atan(t) for i, t in zip(index, slopes) if i} == \
            {i: angle for i, angle in angles.items() if i}, m


@st.composite
def arms(draw):
    """(n, node, offset) with offsets of half-width <= 6 in both signs."""
    n = draw(st.integers(2, 12))
    j, k = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
    offset = draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(lambda o: o != (0, 0)))
    return n, (j, k), offset


@st.composite
def corner_exits(draw):
    """Arms on the ray from a node through a corner of the square."""
    n = draw(st.integers(2, 12))
    j, k = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
    step = math.gcd(j, k)
    unit = (j // step, k // step)  # (j, k) = step * unit: the ray along -unit meets (0, 0)
    scale = draw(st.integers(1, 6))
    assume(scale * max(unit) <= 6)  # past the corner when scale > step
    dx, dy = -scale * unit[0], -scale * unit[1]
    # mirror the picture onto the other three corners
    if draw(st.booleans()):
        j, dx = n - j, -dx
    if draw(st.booleans()):
        k, dy = n - k, -dy
    return n, (j, k), (dx, dy)


@given(st.one_of(arms(), corner_exits()))
@example((10, (1, 1), (-2, -2)))
@example((7, (2, 4), (-3, -6)))
@example((12, (9, 4), (6, -6)))
@settings(max_examples=500, deadline=None)
def test_clip_arms_matches_scalar_clip(case):
    n, node, offset = case
    grid = build_grid(n)
    expected = clip_reference(grid, node, offset)
    got = clip_arm(grid, node, offset)
    assert (got.kind, got.point, got.node, got.on_boundary) == (
        expected.kind, expected.point, expected.node, expected.on_boundary)
    # np.sqrt and math.hypot may round apart, so one unit in the last place
    assert abs(got.distance - expected.distance) <= np.spacing(expected.distance)
    col = clip_arms(grid, *(np.array([v]) for v in (*node, *offset)))[3][0]
    interior = expected.kind == "node" and not expected.on_boundary
    assert col == (grid.linear_index(*expected.node) if interior else -1)


def test_clip_arms_lengths_at_large_half_width():
    # A plan stores m and its indices as int32; at m = 100000 the squared
    # offsets (about 2e10) must not wrap.
    m = 100000
    i = np.array([5, m, m + 1, 2 * m - 1, -5, -m, -(2 * m - 1)], dtype=np.int32)
    dx, dy = direction_offsets(np.full(i.size, m, dtype=np.int32), i)
    grid = build_grid(8)
    length = clip_arms(grid, 1, 1, dx, dy)[2]
    for got, offset in zip(length, zip(dx.tolist(), dy.tolist())):
        expected = clip_reference(grid, (1, 1), offset).distance
        assert abs(got - expected) <= np.spacing(expected)


@pytest.mark.parametrize("prepared, n", [("prep_exam1", 21), ("prep_exam4", 31), ("prep_exam4_k100", 201)])
def test_assemble_matches_per_node_assembly(request, prepared, n):
    prep = request.getfixturevalue(prepared)
    grid = build_grid(n)
    plan = plan_grid(grid, prep.table, prep.constants)
    system = assemble(prep.problem, plan)
    matrix, rhs = assemble_reference(prep.problem, grid, plan)
    got = system.matrix
    assert np.array_equal(got.indptr, matrix.indptr) and np.array_equal(got.indices, matrix.indices)
    assert np.abs(got.data - matrix.data).max() <= 1e-14 * np.abs(matrix.data).max()
    assert np.abs(system.rhs - rhs).max() <= 1e-14 * np.abs(rhs).max()
