"""Dense linear-algebra kernels for p < n problems.

Symmetric positive-definite solves, the Gram matrix of the design with its
triangular factor, and sequential innovation vectors.  Innovations use
classical Gram-Schmidt with one reorthogonalization pass.  The path engine
applies it in p-space, to the columns of the factor R with R'R = X'X, for a
whole batch of responses at once; ``solve_spd`` and ``orthogonal_component``
therefore accept stacked operands (leading batch axes).  The n-space basis
that the tests use as a reference lives in ``larinfer.identities``.  All
arithmetic is 64-bit floating point.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .exceptions import DimensionMismatch, NotPositiveDefinite, RankDeficient

Vector = NDArray[np.float64]
Matrix = NDArray[np.float64]

# Relative rank tolerance for pivots and innovation norms.
RANK_TOL = 1e-10
# Smallest accepted pivot |R_jj| of the factor of X'X, relative to the largest
# column norm.  Forming X'X resolves R_jj only to about sqrt(eps) ~ 1.5e-8, so
# an exactly collinear column can leave a pivot of that size; the tolerance
# sits well above it.
GRAM_RANK_TOL = 1e-6


def cholesky_spd(gram: Matrix) -> Matrix:
    """Lower-triangular Cholesky factor with an explicit pivot check.

    Accepts one matrix or a stack of them (leading batch axes).  Raises
    NotPositiveDefinite when LAPACK finds a matrix not positive definite, or
    when a squared pivot L_ii^2 falls at or below RANK_TOL times the largest
    diagonal entry of its matrix, which signals collinear active columns;
    LAPACK accepts such pivots.  The message names the system of a stack.
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


def gram_factor(X: Matrix) -> tuple[Matrix, Matrix]:
    """Gram matrix G = X'X and its upper-triangular factor R with R'R = G.

    Raises RankDeficient when the Cholesky factorization fails or a pivot
    |R_jj| falls at or below GRAM_RANK_TOL times the largest column norm.
    """
    X = np.asarray(X, dtype=np.float64)
    G = X.T @ X
    try:
        R = np.ascontiguousarray(np.linalg.cholesky(G).T)
    except np.linalg.LinAlgError:
        raise RankDeficient("design is rank deficient: X'X is not positive definite") from None
    pivots = np.abs(np.diag(R))
    limit = GRAM_RANK_TOL * np.sqrt(np.max(np.diag(G)))
    if np.any(pivots <= limit):
        j = int(np.argmin(pivots))
        raise RankDeficient(
            f"design is rank deficient: column {j} has pivot {pivots[j]:.3e} "
            f"<= {limit:.1e} in the factor of X'X"
        )
    return G, R


def orthogonal_component(Q: Matrix, x: Vector) -> tuple[Vector, Vector, Vector]:
    """Coordinates Q'x, the component e of x orthogonal to span(Q), and |e|.

    ``Q`` (..., m, k) has orthonormal columns and ``x`` is (..., m); leading
    axes are a batch.  One reorthogonalization pass (classical Gram-Schmidt
    applied twice) keeps e orthogonal to the span.  No rank check; see
    ``rank_failures``.
    """
    Qt = np.swapaxes(Q, -1, -2)
    head = (Qt @ x[..., None])[..., 0]
    e = x - (Q @ head[..., None])[..., 0]
    e = e - (Q @ (Qt @ e[..., None]))[..., 0]
    return head, e, np.sqrt((e * e).sum(axis=-1))


def rank_failures(norm: Vector, x_norm: Vector) -> NDArray[np.bool_]:
    """Where the innovation norm |e| is at or below RANK_TOL * max(1, |x|)."""
    return norm <= RANK_TOL * np.maximum(1.0, x_norm)
