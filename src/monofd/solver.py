"""Deterministic sparse solves to a prescribed relative residual.

The systems are audited nonsingular M-matrices.  Such a matrix factors without
pivoting, with positive pivots (Fiedler & Ptak 1962) and, its rows being
diagonally dominant, growth at most 2; so a pivot-free LU of a float32 copy
serves as the base of iterative refinement in float64 (Carson & Higham,
SIAM J. Sci. Comput. 40(2), 2018) in less memory than a float64 LU.
Refinement stops, as there, when the next correction predicted at the observed
contraction cannot move x in float64, when it stops shrinking, or at a cap.
Correctness rests on the checked post-condition ||A u - rhs|| <= tol * ||rhs||,
not on that argument: when the float32 factor fails or its refinement ends
above tol (say, on a matrix that failed the audit), the same refinement runs
on a pivoting float64 LU, and a failure of both is reported as
non-convergence.  L and U are never extracted: that copies the whole factor.

Ordering rule, read from the matrix alone: when the unknowns fill a square
grid of isqrt(dim) sides in row-major order and every stored entry joins
unknowns at most two cells apart (|dj| <= 2 and |dk| <= 2, as the stencils of
half-width m <= 2 give), the float32 factor takes a geometric
nested-dissection order (George, SIAM J. Numer. Anal. 10(2), 1973).  Its
separators are grid lines; an entry two cells apart that jumps a line puts
its low end in that line's separator, so a 3x3 stencil has one-line
separators.  On a 2-core host this factor took 0.25 s for exam2 N=321 against
minimum degree's 0.33 s (L+U 12.3M against 11.2M entries), and 1.25 s for exam1
N=601 against 1.57 s (50.6M against 45.7M).  Systems reaching further take
SuperLU's minimum degree order on the pattern of A + A^T: with separators
widened to their reach, exam4 k=10 N=321 (reach 4) factored in 0.38 s against
0.35 s, exam4 k=100 N=201 (reach 96) in 5.2 s against 0.52 s.  The float64
fallback keeps SuperLU's default column order (COLAMD).
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
    """``iterations`` counts the solves with the factor ``method_name`` names,
    3 or 4 on the built-in problems; ``ordering`` is its fill-reducing order
    and ``factor_nnz`` its entry count (0 when it could not be built)."""

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
    return _relative_norm(system, system.rhs - system.matrix @ candidate)


def _relative_norm(system: SparseSystem, r: np.ndarray) -> float:
    """||r|| / ||rhs||, or ||r|| when the rhs vanishes."""
    # Both norms of the vectors times one power of two (<= 2**1023): exact, and no square over- or underflows.
    scale = math.ldexp(1.0, min(-math.frexp(float(np.max(np.abs(system.rhs), initial=0.0)))[1], 1023))
    rhs_norm = float(np.linalg.norm(system.rhs * scale))
    return float(np.linalg.norm(r * scale)) / (rhs_norm if rhs_norm > 0.0 else 1.0)


def solve(system: SparseSystem, tol: float = 1e-10):
    """Solve the assembled system; returns (solution, SolveReport).

    Identical inputs give identical outputs on one platform.  Non-convergence
    is reported, not raised; callers decide whether it is fatal.
    """
    grid = _reach2_grid(system.matrix)
    order = None if grid is None else _nested_dissection(*grid)
    # Each factor's ordering, and the unknowns in the order it factors them.
    float32 = ("mmd", slice(None)) if order is None else ("nested-dissection", order)
    for method, dtype, (ordering, perm), factor in (
        ("float32-lu", np.float32, float32, lambda: _float32_lu(system.matrix, order)),
        ("float64-lu", np.float64, ("colamd", slice(None)), lambda: spla.splu(system.matrix.tocsc())),
    ):
        try:
            lu = factor()
        except RuntimeError:  # a zero pivot: "Factor is exactly singular"
            x, r, solves, entries = np.zeros(system.dimension), None, 0, 0
        else:
            x, r, solves = _refine(system, lu, dtype, perm)
            entries = lu.nnz
            del lu  # free it before the float64 factor is built
        # After a solve, r is the residual of x that residual() would form.
        rel = _relative_norm(system, r) if solves else residual(system, x)
        if rel <= tol:
            break
    return x, SolveReport(solves, rel, rel <= tol, method, ordering, entries)


def _reach2_grid(matrix: sp.csr_matrix) -> tuple[int, np.ndarray, np.ndarray] | None:
    """(s, rows, cols) when the unknowns are an s x s grid in row-major order
    and every stored entry joins unknowns at most two cells apart in j and in
    k; ``rows[i]``, ``cols[i]`` are the entries two cells apart.  Else None."""
    n = matrix.shape[0]
    side = math.isqrt(n)
    if side * side != n:
        return None
    indices, indptr = matrix.indices, matrix.indptr
    lengths = np.diff(indptr)
    rows = np.arange(n, dtype=indices.dtype)
    # A stored column more than 2 side + 2 from its row is out of reach.  The
    # first and last of each row (when every row stores one), its extremes in
    # a canonical matrix, refuse most wider systems in one pass over the rows.
    if lengths.all() and max((rows - indices[indptr[:-1]]).max(initial=0),
                             (indices[indptr[1:] - 1] - rows).max(initial=0)) > 2 * side + 2:
        return None
    dk = indices // side
    dj = indices - dk * side
    dk -= np.repeat(rows // side, lengths)
    dj -= np.repeat(rows % side, lengths)
    reach = np.abs(dk)
    np.maximum(reach, np.abs(dj), out=reach)
    if reach.max(initial=0) > 2:
        return None
    far = np.flatnonzero(reach == 2)
    cols = indices[far]
    return side, cols - dk[far] * side - dj[far], cols


def _nested_dissection(side: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Nested-dissection order of the side x side grid: ``order[p]`` is the
    row-major number of the unknown in position p.

    Each box is cut by the grid line through the middle of its longer side
    (across j on a tie); the box below the line (smaller j or k) comes first,
    then the one above, then the separator, so a stencil reaching one cell
    couples the two halves only through the line.  All boxes of a level are
    cut at once.  The separator is the line, then, in row-major order, the
    unknowns of the low half that an entry ``rows[i]``, ``cols[i]`` two cells
    apart couples to the high half.  Cuts take these unknowns shallowest
    first, and skip an entry with an end that a shallower cut took."""
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
        # The line, its first position, and the first positions of its box and high half.
        lines.append((np.where(wide, jm, j0), np.where(wide, jm + 1, j1),
                      np.where(wide, k0, km), np.where(wide, k1, km + 1),
                      first + low_size + high_size, first, first + low_size))
        keep = np.concatenate([low_size, high_size]) > 0
        j0, j1, k0, k1 = (np.concatenate(halves)[keep] for halves in zip(low, high))
        first = np.concatenate([first, first + low_size])[keep]
    # Number each line's unknowns row-major from its first position.
    columns = list(zip(*lines))
    j0, j1, k0, k1, first = (np.concatenate(column) for column in columns[:5])
    width = j1 - j0
    size = width * (k1 - k0)
    local = np.arange(side * side) - np.repeat(np.cumsum(size) - size, size)
    k, j = np.divmod(local, np.repeat(width, size))
    unknowns = (np.repeat(k0, size) + k) * side + np.repeat(j0, size) + j
    order = np.empty(side * side, dtype=np.int64)
    order[np.repeat(first, size) + local] = unknowns
    if not rows.size:
        return order
    # Only the line through the cell midway between an entry's ends (rounded
    # down) can part them; it does when they lie in its two halves.
    line_of = np.empty_like(order)
    line_of[unknowns] = np.repeat(np.arange(size.size), size)
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    (row_k, row_j), (col_k, col_j) = np.divmod(rows, side), np.divmod(cols, side)
    cut = line_of[(row_k + col_k) // 2 * side + (row_j + col_j) // 2]
    depth = np.repeat(np.arange(len(lines)), [line.size for line in columns[0]])[cut]
    box, middle = (np.concatenate(column) for column in columns[5:])
    ends = position[rows], position[cols]
    low_at, high_at = np.minimum(*ends), np.maximum(*ends)
    parted = np.flatnonzero((box[cut] <= low_at) & (low_at < middle[cut])
                            & (middle[cut] <= high_at) & (high_at < first[cut]))
    parted = parted[np.argsort(depth[parted], kind="stable")]
    cut, low, high = cut[parted], order[low_at[parted]], order[high_at[parted]]
    # Cut by cut, shallowest first, the low end joins the separator unless a
    # shallower cut took either end.
    taken_by = np.full(order.size, -1)
    for level in np.split(np.arange(cut.size), np.flatnonzero(np.diff(depth[parted])) + 1):
        free = (taken_by[low[level]] < 0) & (taken_by[high[level]] < 0)
        taken_by[low[level][free]] = cut[level][free]
    moved = np.flatnonzero(taken_by >= 0)
    after = (first + size)[taken_by[moved]]  # the position after the cut's line
    by_cut = np.argsort(after, kind="stable")
    kept = taken_by[order] < 0
    return np.insert(order[kept], np.cumsum(kept)[after[by_cut] - 1], moved[by_cut])


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


def _refine(system: SparseSystem, lu, dtype, perm) -> tuple[np.ndarray, np.ndarray, int]:
    """Solve from x = 0 with ``lu``, of precision ``dtype``, which factors the
    matrix with rows and columns taken in the order ``perm``, then correct x
    in float64; returns x, its residual rhs - A x and the number of solves.

    Refinement stops when the correction stops shrinking, after
    1 + _MAX_REFINEMENTS solves, or from solve k = 2 on when the next
    correction predicted at the observed contraction, |d_k| |d_k| / |d_k-1|
    in max-norms, is at most 2**-52 |x_k|, too small to move x (Carson &
    Higham 2018).  A power of two scales each residual to a max-norm in
    [0.5, 1) first, so late residuals do not underflow in float32."""
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
        if not size < last or solves > 1 and size * (size / last) <= 2.0**-52 * float(np.max(np.abs(x))):
            break
        last = size
    return x, r, solves
