"""Uniform mesh on the unit square and interior-node index bookkeeping.

Interior unknowns are numbered row-major: linear = (k-1)*(N-1) + (j-1) for a
node at column j, row k with 1 <= j,k <= N-1.  The matrix export, audit, and
solution layout all rely on this ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError

__all__ = ["Grid", "build_grid"]


@dataclass(frozen=True)
class Grid:
    """Uniform (N+1) x (N+1) node lattice on [0,1]^2 with spacing h = 1/N."""

    n: int

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def interior_count(self) -> int:
        return (self.n - 1) ** 2

    def is_interior(self, j: int, k: int) -> bool:
        return 1 <= j <= self.n - 1 and 1 <= k <= self.n - 1

    def linear_index(self, j: int, k: int) -> int:
        if not self.is_interior(j, k):
            raise GridError(f"({j}, {k}) is not interior; boundary nodes carry no unknown")
        return (k - 1) * (self.n - 1) + (j - 1)

    def node_from_linear(self, linear: int) -> tuple[int, int]:
        """Column and row (j, k) of the interior node with this linear index."""
        if not 0 <= linear < self.interior_count:
            raise GridError(f"linear index {linear} out of range for N={self.n}")
        k, j = divmod(linear, self.n - 1)
        return j + 1, k + 1

    def interior_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Column and row indices (j, k) of interior nodes in linear order."""
        linear = np.arange(self.interior_count)
        return linear % (self.n - 1) + 1, linear // (self.n - 1) + 1

    def interior_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened x and y coordinates of interior nodes in linear order."""
        J, K = self.interior_nodes()
        return J / self.n, K / self.n


def build_grid(n: int) -> Grid:
    """Build the uniform grid with ``n`` intervals per side (h = 1/n)."""
    if int(n) != n or n < 2:
        raise GridError(f"grid needs at least 2 intervals per side, got {n!r}")
    return Grid(int(n))
