"""Dense linear-algebra kernels for p < n problems.

Symmetric positive-definite solves, which accept stacked operands (leading
batch axes) so that a batch of systems is one call, and the design's rank
rule, which takes the Gram matrix X'X (not the design) and returns its
triangular factor.  All arithmetic is 64-bit floating point.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .exceptions import DimensionMismatch, NotPositiveDefinite, RankDeficient

Vector = NDArray[np.float64]
Matrix = NDArray[np.float64]

# Relative rank tolerance for pivots and innovation norms.
RANK_TOL = 1e-10
# Smallest accepted distance of a design column from the span of the others,
# relative to the largest column norm.  It bounds every pivot of every
# principal block of X'X from below, in any entry order, so no active block of
# an accepted design trips RANK_TOL.  X'X resolves it only to about 1.5e-8.
GRAM_RANK_TOL = RANK_TOL**0.5


def cholesky_spd(gram: Matrix) -> Matrix:
    """Lower-triangular Cholesky factor with an explicit pivot check.

    Accepts one matrix or a stack of them (leading batch axes).  Raises
    NotPositiveDefinite when LAPACK finds a matrix not positive definite, or
    when a squared pivot L_ii^2 falls at or below RANK_TOL times the largest
    diagonal entry of its matrix, which signals collinear active columns;
    LAPACK accepts such pivots.  No block of a Gram matrix that
    ``gram_factor`` accepts has one.  The message names the system of a stack.
    """
    G = np.asarray(gram, dtype=np.float64)
    if G.ndim < 2 or G.shape[-1] != G.shape[-2]:
        raise DimensionMismatch(f"expected square matrix, got shape {G.shape}")
    k = G.shape[-1]
    systems = G.reshape(-1, k, k)
    scale = np.abs(np.diagonal(systems, axis1=1, axis2=2)).max(axis=1, initial=0.0)
    if np.any(scale <= 0.0):
        raise NotPositiveDefinite("matrix has no positive diagonal entry")

    def system(i) -> str:
        return "" if G.ndim == 2 else f" of system {i}"

    try:
        L = np.linalg.cholesky(systems)
    except np.linalg.LinAlgError:
        # LAPACK does not say which system failed: name the most nearly
        # singular one relative to its scale
        first = int((np.linalg.eigvalsh(systems)[:, 0] / scale).argmin())
        raise NotPositiveDefinite(f"matrix{system(first)} is not positive definite") from None
    pivots = np.diagonal(L, axis1=1, axis2=2) ** 2
    bad = pivots <= RANK_TOL * scale[:, None]
    if bad.any():
        first, i = np.argwhere(bad)[0]
        raise NotPositiveDefinite(
            f"pivot {pivots[first, i]:.3e} at index {i}{system(first)} below tolerance"
        )
    return L.reshape(G.shape)


def solve_spd(gram: Matrix, rhs: Vector) -> Vector:
    """Solve gram @ w = rhs for a symmetric positive-definite gram matrix.

    ``gram`` may be a stack (..., k, k) with ``rhs`` of shape (..., k); each
    system is solved on its own.
    """
    G = np.asarray(gram, dtype=np.float64)
    b = np.asarray(rhs, dtype=np.float64)
    if G.ndim < 2 or G.shape[-1] != G.shape[-2]:
        raise DimensionMismatch(f"expected square matrix, got shape {G.shape}")
    if b.shape != G.shape[:-1]:
        raise DimensionMismatch(f"rhs shape {b.shape} != matrix rows {G.shape[:-1]}")
    L = cholesky_spd(G)
    z = np.linalg.solve(L, b[..., None])
    return np.linalg.solve(np.swapaxes(L, -1, -2), z)[..., 0]


def gram_factor(G: Matrix) -> Matrix:
    """Upper-triangular factor R with R'R = G of the Gram matrix G = X'X.

    The design's rank rule, which needs only X'X.  Raises RankDeficient when
    the Cholesky factorization fails, or when some column j of X lies within
    GRAM_RANK_TOL times the largest column norm of the span of the other
    columns; the message names the last such column.  That distance is
    1/|row j of R^-1|; where it cannot be computed finitely it counts as zero.
    """
    try:
        R = np.ascontiguousarray(np.linalg.cholesky(G).T)
    except np.linalg.LinAlgError:
        raise RankDeficient("design is rank deficient: X'X is not positive definite") from None
    limit = GRAM_RANK_TOL * np.sqrt(np.max(np.diag(G)))
    with np.errstate(all="ignore"):  # a tiny pivot can overflow R^-1
        distances = 1.0 / np.linalg.norm(np.linalg.inv(R), axis=1)
    distances[np.isnan(distances)] = 0.0
    bad = np.flatnonzero(distances <= limit)
    if bad.size:
        j = int(bad[-1])
        raise RankDeficient(
            f"design is rank deficient: column {j} lies within {distances[j]:.3e} "
            f"<= {limit:.1e} of the span of the other columns"
        )
    return R
