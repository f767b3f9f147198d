"""The row-segment ball kernel against the sliding-window gather it replaced.

``window_gather`` is the former body of ``ProbeTable.ball_bounds``: it takes
one center per node, gathers a fixed window of each sign-masked ratio around
it and reduces it under the node's disk mask.  It samples the field and
masks the ratios itself, by the sign of b/a as the table does, so it reads
none of the table's ratio arrays.  ``ProbeTable.ball_bounds`` must give the
same four bounds and empty-ball flags, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from monofd import field
from monofd.field import ProbeTable, field_from_expressions
from monofd.problems import problem_from_expressions
from monofd.splitting import SLOPE_REDUCTIONS, slope_ratios
from monofd.verification import prepare, run_case
from test_batched_planner import PINNED, PREPARED
from test_properties import spd_tensor

# Cap on each window array the gather builds per node chunk.
_WINDOW_BYTES = 1 << 20


def window_gather(table, x0, y0, radius):
    """(A, B, C, D) and empty-ball flags for the centers (x0[i], y0[i])."""
    xs, step, last = table.xs, table.step, table.xs.size - 1
    ilo = np.maximum(0, np.ceil((x0 - radius) / step)).astype(np.intp)
    ihi = np.minimum(last, np.floor((x0 + radius) / step)).astype(np.intp)
    jlo = np.maximum(0, np.ceil((y0 - radius) / step)).astype(np.intp)
    jhi = np.minimum(last, np.floor((y0 + radius) / step)).astype(np.intp)
    bounds = [np.full(x0.shape, fill) for _, fill in SLOPE_REDUCTIONS]
    empty = np.ones(x0.shape, dtype=bool)
    live = np.flatnonzero((ilo <= ihi) & (jlo <= jhi))
    if live.size == 0:
        return tuple(bounds), empty
    i0, i1 = int(ilo[live].min()), int(ihi[live].max())
    j0, j1 = int(jlo[live].min()), int(jhi[live].max())
    box = np.s_[j0 : j1 + 1, i0 : i1 + 1]
    g, f = slope_ratios(*table.field.tensor_arrays(xs[None, i0 : i1 + 1], xs[j0 : j1 + 1, None]))
    plus, minus = g > 0.0, g < 0.0
    parts = [np.where(part, ratio, fill) for (_, fill), part, ratio
             in zip(SLOPE_REDUCTIONS, (plus, plus, minus, minus), (g, f, f, g))]
    wx = int((ihi - ilo)[live].max()) + 1
    wy = int((jhi - jlo)[live].max()) + 1
    views = [sliding_window_view(part, (wy, wx)) for part in parts]
    # Window origins inside the box: at the node's own box unless that
    # would run past the box's far edge.
    si = np.minimum(ilo - i0, i1 - i0 + 1 - wx)
    sj = np.minimum(jlo - j0, j1 - j0 + 1 - wy)

    def squared_offsets(centers, lo, hi, origin, width):
        values, first, row = np.unique(centers, return_index=True, return_inverse=True)
        idx = origin[first, None] + np.arange(width)
        inside = (idx >= lo[first, None]) & (idx <= hi[first, None])
        return np.where(inside, xs[idx] - values[:, None], np.inf) ** 2, row

    dx2, x_of = squared_offsets(x0[live], ilo[live], ihi[live], i0 + si[live], wx)
    dy2, y_of = squared_offsets(y0[live], jlo[live], jhi[live], j0 + sj[live], wy)
    r2 = radius**2
    chunk = max(1, _WINDOW_BYTES // (8 * wx * wy))
    for start in range(0, live.size, chunk):
        span = slice(start, start + chunk)
        nodes = live[span]
        # The scalar test dx**2 + dy**2 < radius**2, negated.
        outside = dx2[x_of[span], None, :] + dy2[y_of[span], :, None] >= r2
        empty[nodes] = outside.all(axis=(1, 2))
        for out, view, (ufunc, fill) in zip(bounds, views, SLOPE_REDUCTIONS):
            window = view[sj[nodes], si[nodes]]
            np.copyto(window, fill, where=outside)
            out[nodes] = ufunc.reduce(window, axis=(1, 2))
    return tuple(bounds), empty


def assert_kernel_matches_gather(table, xc, yc, radius):
    X, Y = np.meshgrid(xc, yc)
    want, want_empty = window_gather(table, X.reshape(-1), Y.reshape(-1), radius)
    got, got_empty = table.ball_bounds(xc, yc, radius)
    for name, w, g in zip("ABCD", want, got):
        assert np.array_equal(w, g), name
    assert np.array_equal(want_empty, got_empty)


def grid_axis(n):
    """Interior node coordinates of the N=n grid along either axis."""
    return np.arange(1, n) / n


@pytest.mark.parametrize("case", sorted(PINNED) + ["exam2-N81", "exam2-N161", "exam2-N321"])
def test_kernel_matches_gather_on_planned_grids(request, case):
    problem, n = case.rsplit("-N", 1)
    table = request.getfixturevalue({**PREPARED, "exam2": "prep_exam2"}[problem]).table
    assert_kernel_matches_gather(table, grid_axis(int(n)), grid_axis(int(n)), table.constants.radius)


def edge_table():
    """A probe table on the 1/16 lattice, whose points and midpoints are
    exact in binary, so chosen centers and radii put samples on ball edges."""
    return ProbeTable(field_from_expressions("edge", "2 + sin(x)", "x - y", "2 + cos(y)"), 1 / 16)


@pytest.mark.parametrize("pitches", [0.5, 1, 1.5, 2, 2.5, 3, 5])
def test_kernel_matches_gather_with_samples_on_the_ball_edge(pitches):
    # On a 1/16 lattice, centers at lattice points and radii of whole pitches
    # put samples exactly on the circle (5**2 = 3**2 + 4**2), where the
    # strict test dx2 + dy2 < radius**2 decides.  Centers half a pitch off
    # the lattice lie midway between lattice rows c and c + 1, whose dy2 are
    # equal, and radii of half pitches put such pairs on the circle too
    # (2.5**2 = 1.5**2 + 2**2): both rows are in a ball or neither is.
    axis = np.arange(33) / 32
    assert_kernel_matches_gather(edge_table(), axis, axis, pitches / 16)


# exam2 N=81 takes 10 chunks at the default chunk size, so both patched sizes
# move its seams; the edge table fits in one chunk by default, so only one
# center row per chunk changes anything there.
@pytest.mark.parametrize("case, chunk_bytes", [
    ("exam2-N81", 1), ("exam2-N81", 1 << 30), ("edge", 1),
], ids=["exam2-N81-row-per-chunk", "exam2-N81-one-chunk", "edge-row-per-chunk"])
def test_kernel_does_not_depend_on_the_chunk_size(monkeypatch, prep_exam2, case, chunk_bytes):
    if case == "edge":
        table, axis, radius = edge_table(), np.arange(33) / 32, 3 / 16
    else:
        table, axis, radius = prep_exam2.table, grid_axis(81), prep_exam2.table.constants.radius
    want_bounds, want_empty = table.ball_bounds(axis, axis, radius)
    monkeypatch.setattr(field, "_CHUNK_BYTES", chunk_bytes)
    got_bounds, got_empty = table.ball_bounds(axis, axis, radius)
    for name, w, g in zip("ABCD", want_bounds, got_bounds):
        assert w.tobytes() == g.tobytes(), name
    assert np.array_equal(want_empty, got_empty)


# Centers anywhere in the square, and on a 1/200 lattice: the points of every
# probe lattice drawn below whose cell count divides 200, and their midpoints.
center = st.one_of(st.floats(0.0, 1.0), st.integers(0, 200).map(lambda i: i / 200))
centers = st.lists(center, min_size=1, max_size=60).map(sorted).map(np.array)


# b/a of the constant field a = 2, b = 5e-324 underflows to 0: the table
# counts every sample as b = 0, and so must the oracle.
@example(abc=("2", "5e-324", "1"), xc=np.array([0.5]), yc=np.array([0.25, 0.5]), probe_step=0.1,
         reach=1.0)
@given(abc=spd_tensor(), xc=centers, yc=centers, probe_step=st.floats(0.01, 0.25), reach=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_gather_on_random_tensor_grids(abc, xc, yc, probe_step, reach):
    table = ProbeTable(field_from_expressions("random", *abc), probe_step)
    # Radii from a quarter of the pitch, where most balls hold no sample, up
    # to 0.06, or to the pitch on the coarsest lattices.
    low, high = table.step / 4, max(0.06, table.step)
    assert_kernel_matches_gather(table, xc, yc, low + reach * (high - low))


@pytest.mark.parametrize("case", ["one-signed", "exam2"])
def test_kernel_skips_absent_sign_parts(monkeypatch, prep_exam2, case):
    # One center row per chunk, so each chunk reads a few lattice rows and
    # skips every sign part they lack: the b = x*y field has no b < 0 part
    # and no b > 0 part on its row y = 0; exam2's b < 0 rows begin mid-lattice.
    if case == "one-signed":
        table = ProbeTable(field_from_expressions("one-signed", "2 + x", "x*y", "2 + y"), 1e-2)
        axis, radius = grid_axis(41), 0.03
        assert not table.row_parts[1].any() and not table.row_parts[0, 0]
    else:
        table, axis, radius = prep_exam2.table, grid_axis(81), prep_exam2.table.constants.radius
        assert not table.row_parts[1, : table.xs.size // 2].any() and table.row_parts[1, -1]
    monkeypatch.setattr(field, "_CHUNK_BYTES", 1)
    assert_kernel_matches_gather(table, axis, axis, radius)


def test_underflowed_b_over_a_counts_as_zero_b_in_the_balls_only():
    # b > 0 everywhere, but b/a underflows to 0: every ball bound takes its
    # empty-part value, so no node has a plus direction after the ball
    # selection and all 49 fall back.  The fallback reads b > 0 at the
    # centers and midpoints and plans the diagonal, as with the b > 0 mask.
    problem = problem_from_expressions("underflow", ("2", "5e-324", "1"), f="0", g="x + y")
    prepared = prepare(problem)
    axis = grid_axis(8)
    bounds, empty = prepared.table.ball_bounds(axis, axis, prepared.table.constants.radius)
    assert [np.unique(v).tolist() for v in bounds] == [[-np.inf], [np.inf], [-np.inf], [np.inf]]
    assert not empty.any()
    case = run_case(prepared, 8)
    assert case.plan.fallback_nodes == 49
    assert [np.unique(v).tolist() for v in (case.plan.m, case.plan.i1, case.plan.i2)] == [[1], [1], [0]]
    assert case.audit.passed
