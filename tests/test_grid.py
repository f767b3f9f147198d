import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monofd.errors import GridError
from monofd.grid import build_grid


def test_smallest_grid():
    grid = build_grid(2)
    assert grid.h == 0.5
    assert grid.interior_count == 1
    assert grid.node_from_linear(0) == (1, 1)
    X, Y = grid.interior_coords()
    assert (X.tolist(), Y.tolist()) == ([0.5], [0.5])


def test_spacing_identity_and_interior_count():
    grid = build_grid(21)
    assert abs(grid.h * grid.n - 1.0) < 1e-14
    assert grid.interior_count == 400


def test_hand_indexing_example():
    grid = build_grid(4)
    assert grid.linear_index(2, 3) == 2 * 3 + 1 == 7
    X, Y = grid.interior_coords()
    assert (X[7], Y[7]) == (0.5, 0.75)


def test_rejects_degenerate_grid():
    with pytest.raises(GridError):
        build_grid(1)
    with pytest.raises(GridError):
        build_grid(0)


def test_boundary_nodes_have_no_linear_index():
    grid = build_grid(5)
    with pytest.raises(GridError):
        grid.linear_index(0, 3)


@given(st.integers(2, 60), st.data())
@settings(max_examples=60, deadline=None)
def test_linear_roundtrip(n, data):
    grid = build_grid(n)
    j = data.draw(st.integers(1, n - 1))
    k = data.draw(st.integers(1, n - 1))
    assert grid.node_from_linear(grid.linear_index(j, k)) == (j, k)


def test_interior_coords_ordering():
    grid = build_grid(4)
    X, Y = grid.interior_coords()
    # row-major: j varies fastest
    assert X[:3] == pytest.approx([0.25, 0.5, 0.75])
    assert Y[:3] == pytest.approx([0.25, 0.25, 0.25])
    idx = grid.linear_index(2, 3)
    assert (X[idx], Y[idx]) == (0.5, 0.75)
