"""The array path for the directional terms against the per-node loop it replaced.

The scalar forms below are that loop's: the direction table built case by
case, the ray-box clip of one arm, and the per-node assembly of every
directional term with ``directional_term_row`` on one node's values and
``field.tensor`` at each arm midpoint.  They are the oracles for
``direction_offsets``, ``clip_arms`` and ``assemble``.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monofd.assembly import assemble, directional_term_row
from monofd.grid import build_grid
from monofd.stencil import ArmEndpoint, clip_arm, clip_arms, plan_grid, principal_directions


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
    """``assemble`` with the directional terms added node by node.

    The axis terms and the source come from ``assemble`` on the plan with
    its directions removed; they do not go through the directional path.
    """
    no_directions = dataclasses.replace(plan, i1=np.zeros_like(plan.i1), i2=np.zeros_like(plan.i2))
    axis = assemble(problem, grid, no_directions)
    coo = axis.matrix.tocoo()
    triplets = list(zip(coo.row, coo.col, coo.data))
    rhs = axis.rhs.copy()
    n = grid.n
    for side, i_arr in (("plus", plan.i1), ("minus", plan.i2)):
        for row in np.flatnonzero(i_arr):
            node = grid.node_from_linear(int(row))
            dx, dy = principal_directions(int(plan.m[row])).offsets[int(i_arr[row])]
            slope = dy / dx
            ends = [clip_reference(grid, (node.j, node.k), off) for off in ((dx, dy), (-dx, -dy))]
            gammas = []
            for end in ends:
                _, b, _ = problem.field.tensor((node.j / n + end.point[0]) / 2.0,
                                               (node.k / n + end.point[1]) / 2.0)
                part = max(b, 0.0) if side == "plus" else min(b, 0.0)
                gammas.append(part * (1.0 / slope + slope))
            w_lo, w_center, w_hi = directional_term_row(*gammas, ends[0].distance, ends[1].distance)
            triplets.append((row, row, w_center))
            for end, w in zip(ends, (w_hi, w_lo)):
                if end.kind == "node" and not end.on_boundary:
                    triplets.append((row, grid.linear_index(*end.node), w))
                else:
                    rhs[row] -= w * float(problem.g(*end.point))
    rows, cols, vals = zip(*triplets)
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=axis.matrix.shape).tocsr()
    matrix.sum_duplicates()
    matrix.sort_indices()
    return matrix, rhs


def test_direction_table_matches_case_by_case_table():
    for m in range(1, 41):
        table = principal_directions(m)
        assert (table.angles, table.offsets) == table_reference(m), m


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


@pytest.mark.parametrize("prepared, n", [("prep_exam1", 21), ("prep_exam4", 31), ("prep_exam4_k100", 201)])
def test_assemble_matches_per_node_assembly(request, prepared, n):
    prep = request.getfixturevalue(prepared)
    grid = build_grid(n)
    plan = plan_grid(grid, prep.problem.field, prep.constants, prep.table)
    system = assemble(prep.problem, grid, plan)
    matrix, rhs = assemble_reference(prep.problem, grid, plan)
    got = system.matrix
    assert np.array_equal(got.indptr, matrix.indptr) and np.array_equal(got.indices, matrix.indices)
    assert np.abs(got.data - matrix.data).max() <= 1e-14 * np.abs(matrix.data).max()
    assert np.abs(system.rhs - rhs).max() <= 1e-14 * np.abs(rhs).max()
