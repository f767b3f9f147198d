"""Deterministic sparse solves to a prescribed relative residual.

The systems are audited nonsingular M-matrices.  Such a matrix factors without
pivoting, with positive pivots (Fiedler & Ptak 1962) and, its rows being
diagonally dominant, growth at most 2; so a pivot-free LU of a float32 copy
serves as the base of iterative refinement in float64 (Carson & Higham,
SIAM J. Sci. Comput. 40(2), 2018) in less memory than a float64 LU.
Correctness rests on the checked post-condition ||A u - rhs|| <= tol * ||rhs||,
not on that argument: when the float32 factor fails or its refinement ends
above tol (say, on a matrix that failed the audit), the same refinement runs
on a pivoting float64 LU, and a failure of both is reported as
non-convergence.  L and U are never extracted: that copies the whole factor.

Ordering rule, read from the matrix alone: when the unknowns fill a square
grid of isqrt(dim) sides in row-major order and every stored entry joins grid
neighbours (|dj| <= 1 and |dk| <= 1, a 3x3 stencil), every grid line is a
separator, and the float32 factor takes a geometric nested-dissection order
(George, SIAM J. Numer. Anal. 10(2), 1973) with one-line separators.  Every
other system takes SuperLU's minimum degree order on the pattern of A + A^T;
wider separators lose to it.  The float64 fallback keeps SuperLU's default
column order (COLAMD).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError
from .assembly import SparseSystem

__all__ = ["SolveReport", "solve", "residual"]

_MAX_REFINEMENTS = 4


@dataclass(frozen=True)
class SolveReport:
    """``iterations`` counts the solves with the factor ``method_name`` names;
    ``ordering`` is that factor's fill-reducing order and ``factor_nnz`` its
    entry count (0 when it could not be built)."""

    iterations: int
    final_relative_residual: float
    converged: bool
    method_name: str
    ordering: str
    factor_nnz: int


def residual(system: SparseSystem, candidate: np.ndarray) -> float:
    """Relative Euclidean residual; absolute when the rhs vanishes."""
    candidate = np.asarray(candidate, dtype=float)
    if candidate.shape != (system.dimension,):
        raise SolverError(
            f"candidate has shape {candidate.shape}, system dimension is {system.dimension}"
        )
    r = system.rhs - system.matrix @ candidate
    # Both norms of the vectors times one power of two (<= 2**1023): exact, and no square over- or underflows.
    scale = math.ldexp(1.0, min(-math.frexp(float(np.max(np.abs(system.rhs), initial=0.0)))[1], 1023))
    rhs_norm = float(np.linalg.norm(system.rhs * scale))
    return float(np.linalg.norm(r * scale)) / (rhs_norm if rhs_norm > 0.0 else 1.0)


def solve(system: SparseSystem, tol: float = 1e-10):
    """Solve the assembled system; returns (solution, SolveReport).

    Identical inputs give identical outputs on one platform.  Non-convergence
    is reported, not raised; callers decide whether it is fatal.
    """
    side = _grid_side(system.matrix)
    order = None if side is None else _nested_dissection(side)
    # Each factor's ordering, and the unknowns in the order it factors them.
    float32 = ("mmd", slice(None)) if order is None else ("nested-dissection", order)
    for method, dtype, (ordering, perm), factor in (
        ("float32-lu", np.float32, float32, lambda: _float32_lu(system.matrix, order)),
        ("float64-lu", np.float64, ("colamd", slice(None)), lambda: spla.splu(system.matrix.tocsc())),
    ):
        try:
            lu = factor()
        except RuntimeError:  # a zero pivot: "Factor is exactly singular"
            x, solves, entries = np.zeros(system.dimension), 0, 0
        else:
            x, solves = _refine(system, lu, dtype, perm)
            entries = lu.nnz
            del lu  # free it before the float64 factor is built
        rel = residual(system, x)
        if rel <= tol:
            break
    return x, SolveReport(solves, rel, rel <= tol, method, ordering, entries)


def _grid_side(matrix: sp.csr_matrix) -> int | None:
    """The side s when the unknowns are an s x s grid in row-major order and
    every stored entry joins grid neighbours; else None."""
    n = matrix.shape[0]
    side = math.isqrt(n)
    if side * side != n:
        return None
    k, j = np.divmod(matrix.indices, side)
    row_k, row_j = np.divmod(np.arange(n, dtype=matrix.indices.dtype), side)
    lengths = np.diff(matrix.indptr)
    near = (np.abs(k - np.repeat(row_k, lengths)) <= 1) & (np.abs(j - np.repeat(row_j, lengths)) <= 1)
    return side if near.all() else None


def _nested_dissection(side: int) -> np.ndarray:
    """Nested-dissection order of the side x side grid: ``order[p]`` is the
    row-major number of the unknown in position p.

    Each box is cut by the grid line through the middle of its longer side
    (across j on a tie); the box below the line (smaller j or k) comes first,
    then the one above, then the line, so a stencil reaching one cell couples
    the two halves only through the line.  All boxes of a level are cut at
    once."""
    # Boxes [j0, j1) x [k0, k1) still to order, and the first position of each.
    j0, j1, k0, k1, first = (np.array([v]) for v in (0, side, 0, side, 0))
    lines = []
    while j0.size:
        wide = j1 - j0 >= k1 - k0
        jm, km = (j0 + j1) // 2, (k0 + k1) // 2
        low = (j0, np.where(wide, jm, j1), k0, np.where(wide, k1, km))
        high = (np.where(wide, jm + 1, j0), j1, np.where(wide, k0, km + 1), k1)
        low_size = (low[1] - low[0]) * (low[3] - low[2])
        high_size = (high[1] - high[0]) * (high[3] - high[2])
        lines.append((np.where(wide, jm, j0), np.where(wide, jm + 1, j1),
                      np.where(wide, k0, km), np.where(wide, k1, km + 1),
                      first + low_size + high_size))
        keep = np.concatenate([low_size, high_size]) > 0
        j0, j1, k0, k1 = (np.concatenate(halves)[keep] for halves in zip(low, high))
        first = np.concatenate([first, first + low_size])[keep]
    # Number each line's unknowns row-major from its first position.
    j0, j1, k0, k1, first = (np.concatenate(column) for column in zip(*lines))
    width = j1 - j0
    size = width * (k1 - k0)
    local = np.arange(side * side) - np.repeat(np.cumsum(size) - size, size)
    k, j = np.divmod(local, np.repeat(width, size))
    order = np.empty(side * side, dtype=np.int64)
    order[np.repeat(first, size) + local] = (np.repeat(k0, size) + k) * side + np.repeat(j0, size) + j
    return order


def _float32_lu(matrix: sp.csr_matrix, order: np.ndarray | None):
    """Pivot-free SuperLU factor of a float32 copy of the matrix: in minimum
    degree order on A + A^T, or of P A P^T, its rows and columns taken in
    ``order``, as it stands."""
    if order is None:
        copy, spec = matrix.astype(np.float32).tocsc(), "MMD_AT_PLUS_A"
    else:
        copy, spec = _permuted_float32(matrix, order), "NATURAL"
    return spla.splu(copy, permc_spec=spec, diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def _permuted_float32(matrix: sp.csr_matrix, order: np.ndarray) -> sp.csc_matrix:
    """P A P^T in float32 CSC, its rows and columns taken in ``order``; the
    temporaries are freed before the factor is built."""
    position = np.empty_like(matrix.indices, shape=order.size)
    position[order] = np.arange(order.size)
    rows = matrix[order]
    # Converting to CSC sorts each column's row numbers, whatever their order in a row.
    return sp.csr_matrix((rows.data.astype(np.float32), position[rows.indices], rows.indptr),
                         shape=matrix.shape).tocsc()


def _refine(system: SparseSystem, lu, dtype, perm) -> tuple[np.ndarray, int]:
    """Solve from x = 0 with ``lu``, of precision ``dtype``, which factors the
    matrix with rows and columns taken in the order ``perm``, then correct x
    in float64 while the correction shrinks, in at most 1 + _MAX_REFINEMENTS
    solves.  A power of two scales each residual to a max-norm in [0.5, 1)
    first, so late residuals do not underflow in float32."""
    x, r = np.zeros(system.dimension), system.rhs
    d = np.empty(system.dimension)
    last, solves = math.inf, 0
    while solves <= _MAX_REFINEMENTS:
        peak = float(np.max(np.abs(r), initial=0.0))
        if not 0.0 < peak < math.inf:
            break
        scale = math.ldexp(1.0, math.frexp(peak)[1])
        d[perm] = lu.solve((r[perm] / scale).astype(dtype))
        d *= scale
        solves += 1
        x += d
        r = system.rhs - system.matrix @ x
        size = float(np.max(np.abs(d)))
        if not size < last:
            break
        last = size
    return x, solves
