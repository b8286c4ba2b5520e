"""The design's rank rule.

``gram_factor`` takes the Gram matrix X'X (not the design) and returns its
triangular factor.  ``GRAM_RANK_TOL`` is the rule's tolerance, and
``RANK_TOL`` that of the path engine's innovation check.  All arithmetic is
64-bit floating point.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .exceptions import RankDeficient

Matrix = NDArray[np.float64]

# Relative rank tolerance for pivots and innovation norms.
RANK_TOL = 1e-10
# Smallest accepted distance of a design column from the span of the others,
# relative to the largest column norm.  It bounds every pivot of every
# principal block of X'X from below, in any entry order, so no active block of
# an accepted design trips RANK_TOL.  X'X resolves it only to about 1.5e-8.
GRAM_RANK_TOL = RANK_TOL**0.5


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
