"""Dense linear-algebra kernels for p < n problems.

Symmetric positive-definite solves, the Gram matrix of the design with its
triangular factor, orthogonal projections onto a growing column space, and
sequential innovation vectors.  Innovations use classical Gram-Schmidt with
one reorthogonalization pass.  The path engine applies it in p-space, to the
columns of the factor R with R'R = X'X; the n-space ``ProjectionBasis`` serves
the full-column residuals.  All arithmetic is 64-bit floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    Raises NotPositiveDefinite when a pivot falls at or below RANK_TOL times
    the largest diagonal entry, which signals collinear active columns.
    """
    G = np.asarray(gram, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {G.shape}")
    k = G.shape[0]
    scale = float(np.max(np.abs(np.diag(G)))) if k else 0.0
    if scale <= 0.0:
        raise NotPositiveDefinite("matrix has no positive diagonal entry")
    L = np.zeros_like(G)
    for i in range(k):
        pivot = G[i, i] - L[i, :i] @ L[i, :i]
        if pivot <= RANK_TOL * scale:
            raise NotPositiveDefinite(f"pivot {pivot:.3e} at index {i} below tolerance")
        L[i, i] = np.sqrt(pivot)
        if i + 1 < k:
            L[i + 1 :, i] = (G[i + 1 :, i] - L[i + 1 :, :i] @ L[i, :i]) / L[i, i]
    return L


def solve_spd(gram: Matrix, rhs: Vector) -> Vector:
    """Solve gram @ w = rhs for a symmetric positive-definite gram matrix."""
    G = np.asarray(gram, dtype=np.float64)
    b = np.asarray(rhs, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {G.shape}")
    if b.shape[0] != G.shape[0]:
        raise DimensionMismatch(f"rhs length {b.shape[0]} != matrix size {G.shape[0]}")
    L = cholesky_spd(G)
    z = np.linalg.solve(L, b) if L.shape[0] > 1 else b / L[0, 0]
    w = np.linalg.solve(L.T, z) if L.shape[0] > 1 else z / L[0, 0]
    return w


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


@dataclass(frozen=True)
class ProjectionBasis:
    """Orthonormal columns spanning the current active space.

    ``vectors`` is n x k with orthonormal columns; ``indices`` records which
    original design column produced each basis vector, in entry order.
    """

    vectors: Matrix
    indices: tuple[int, ...] = field(default_factory=tuple)

    @property
    def size(self) -> int:
        return self.vectors.shape[1]

    @staticmethod
    def empty(n: int) -> "ProjectionBasis":
        return ProjectionBasis(np.zeros((n, 0)), ())


def project(basis: ProjectionBasis, v: Vector) -> Vector:
    """Orthogonal projection of v onto the span of the basis."""
    Q = basis.vectors
    x = np.asarray(v, dtype=np.float64)
    if x.shape[0] != Q.shape[0]:
        raise DimensionMismatch(f"vector length {x.shape[0]} != basis rows {Q.shape[0]}")
    if Q.shape[1] == 0:
        return np.zeros_like(x)
    return Q @ (Q.T @ x)


def innovation(Q: Matrix, x: Vector) -> tuple[Vector, Vector, float]:
    """Coordinates Q'x, the component e of x orthogonal to span(Q), and |e|.

    ``Q`` has orthonormal columns.  One reorthogonalization pass (classical
    Gram-Schmidt applied twice) keeps e orthogonal to the span.  Raises
    RankDeficient when |e| falls below RANK_TOL relative to max(1, |x|).
    """
    head = Q.T @ x
    e = x - Q @ head
    e = e - Q @ (Q.T @ e)
    norm = float(np.linalg.norm(e))
    if norm <= RANK_TOL * max(1.0, float(np.linalg.norm(x))):
        raise RankDeficient(f"innovation norm {norm:.3e} below rank tolerance")
    return head, e, norm


def append_innovation(
    basis: ProjectionBasis, x_new: Vector, index: int = -1
) -> tuple[ProjectionBasis, Vector]:
    """Extend the basis with a new column and return its innovation.

    The innovation is the component of ``x_new`` orthogonal to the current
    span, before normalization.
    """
    Q = basis.vectors
    x = np.asarray(x_new, dtype=np.float64)
    if x.shape[0] != Q.shape[0]:
        raise DimensionMismatch(f"vector length {x.shape[0]} != basis rows {Q.shape[0]}")
    _, e, norm = innovation(Q, x)
    extended = ProjectionBasis(
        np.column_stack([Q, e / norm]), basis.indices + (int(index),)
    )
    return extended, e
