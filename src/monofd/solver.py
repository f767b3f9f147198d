"""Deterministic sparse solves to a prescribed relative residual.

The systems are audited nonsingular M-matrices.  Such a matrix factors without
pivoting, with positive pivots (Fiedler & Ptak 1962) and, its rows being
diagonally dominant, growth at most 2; so a pivot-free LU of a float32 copy,
in an ordering for the pattern of A + A^T, serves as the base of iterative
refinement in float64 (Carson & Higham, SIAM J. Sci. Comput. 40(2), 2018) in
less memory than a float64 LU.  Correctness rests on the checked
post-condition ||A u - rhs|| <= tol * ||rhs||, not on that argument: when the
float32 factor fails or its refinement ends above tol (say, on a matrix that
failed the audit), the same refinement runs on a pivoting float64 LU, and a
failure of both is reported as non-convergence.  L and U are never extracted:
that copies the whole factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .errors import SolverError
from .assembly import SparseSystem

__all__ = ["SolveReport", "solve", "residual"]

_MAX_REFINEMENTS = 4


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_relative_residual: float
    converged: bool
    method_name: str


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

    ``iterations`` counts the solves with the factor ``method_name`` names.
    Identical inputs give identical outputs on one platform.  Non-convergence
    is reported, not raised; callers decide whether it is fatal.
    """
    for method, dtype, factor in (
        ("float32-lu", np.float32, lambda: spla.splu(
            system.matrix.astype(np.float32).tocsc(), permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0, options={"SymmetricMode": True})),
        ("float64-lu", np.float64, lambda: spla.splu(system.matrix.tocsc())),
    ):
        try:
            lu = factor()
        except RuntimeError:  # a zero pivot: "Factor is exactly singular"
            x, solves = np.zeros(system.dimension), 0
        else:
            x, solves = _refine(system, lu, dtype)
            del lu  # free it before the float64 factor is built
        rel = residual(system, x)
        if rel <= tol:
            break
    return x, SolveReport(solves, rel, rel <= tol, method)


def _refine(system: SparseSystem, lu, dtype) -> tuple[np.ndarray, int]:
    """Solve from x = 0 with ``lu``, of precision ``dtype``, then correct x in
    float64 while the correction shrinks, in at most 1 + _MAX_REFINEMENTS
    solves.  A power of two scales each residual to a max-norm in [0.5, 1)
    first, so late residuals do not underflow in float32."""
    x, r = np.zeros(system.dimension), system.rhs
    last, solves = math.inf, 0
    while solves <= _MAX_REFINEMENTS:
        peak = float(np.max(np.abs(r), initial=0.0))
        if not 0.0 < peak < math.inf:
            break
        scale = math.ldexp(1.0, math.frexp(peak)[1])
        d = lu.solve((r / scale).astype(dtype)).astype(float) * scale
        solves += 1
        x += d
        r = system.rhs - system.matrix @ x
        size = float(np.max(np.abs(d)))
        if not size < last:
            break
        last = size
    return x, solves
