"""Dense linear-algebra kernels for p < n problems.

Symmetric positive-definite solves, the Gram matrix of the design with its
triangular factor, orthogonal projections onto a growing column space, and
sequential innovation vectors.  Innovations use classical Gram-Schmidt with
one reorthogonalization pass.  The path engine applies it in p-space, to the
columns of the factor R with R'R = X'X, for a whole batch of responses at
once; ``solve_spd`` and ``orthogonal_component`` therefore accept stacked
operands (leading batch axes).  The n-space ``ProjectionBasis`` is kept for
the identity checks and as a test reference.  All arithmetic is 64-bit
floating point.
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

    Accepts one matrix or a stack of them (leading batch axes).  Raises
    NotPositiveDefinite when a pivot falls at or below RANK_TOL times the
    largest diagonal entry of its matrix, which signals collinear active
    columns.
    """
    G = np.asarray(gram, dtype=np.float64)
    if G.ndim < 2 or G.shape[-1] != G.shape[-2]:
        raise DimensionMismatch(f"expected square matrix, got shape {G.shape}")
    k = G.shape[-1]
    scale = np.max(np.abs(np.diagonal(G, axis1=-2, axis2=-1)), axis=-1) if k else 0.0
    if np.any(scale <= 0.0):
        raise NotPositiveDefinite("matrix has no positive diagonal entry")
    L = np.zeros_like(G)
    for i in range(k):
        pivot = G[..., i, i] - np.sum(L[..., i, :i] * L[..., i, :i], axis=-1)
        bad = np.ravel(pivot <= RANK_TOL * scale)
        if bad.any():
            first = int(bad.argmax())
            system = "" if G.ndim == 2 else f" of system {first}"
            raise NotPositiveDefinite(
                f"pivot {np.ravel(pivot)[first]:.3e} at index {i}{system} below tolerance"
            )
        L[..., i, i] = np.sqrt(pivot)
        if i + 1 < k:
            L[..., i + 1 :, i] = (
                G[..., i + 1 :, i] - (L[..., i + 1 :, :i] @ L[..., i, :i, None])[..., 0]
            ) / L[..., i, i, None]
    return L


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


def innovation(Q: Matrix, x: Vector) -> tuple[Vector, Vector, float]:
    """``orthogonal_component`` for one vector, with the rank check.

    Raises RankDeficient when |e| falls below RANK_TOL relative to
    max(1, |x|).
    """
    head, e, norm = orthogonal_component(Q, x)
    if rank_failures(norm, np.linalg.norm(x)):
        raise RankDeficient(f"innovation norm {norm:.3e} below rank tolerance")
    return head, e, float(norm)


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
