"""Studentized step-correlation statistics and the termination estimate.

Variance estimation from the full least-squares fit, chi-squared tail
thresholds, tail-sum statistics over path steps, and the stopping rule that
estimates how many steps carry signal.  The full-fit residual is taken in
p-space from the factor of X'X; the n-space basis that the tests compare it
with lives in ``larinfer.identities``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
from numpy.typing import NDArray

from .exceptions import DegenerateResponse, InvalidTail
from .path import LarBatch, LarPath, StandardizedData

Vector = NDArray[np.float64]

_EPS = 1e-16  # relative stopping size of a series term or fraction factor
_TINY = 1e-300  # floor that keeps the Lentz recurrence off zero


def full_fit(data: StandardizedData, y: Vector) -> Vector:
    """Least-squares coefficients of y on every column of the design.

    Solved from X'y with the design's triangular factor R of X'X, so the only
    n-space work is the product X'y.  A stack of responses (R x n) gives one
    row of coefficients per response.
    """
    R = data.gram_factor
    return np.linalg.solve(R, np.linalg.solve(R.T, data.X.T @ y.T)).T


def sigma_hat(data: StandardizedData, y_raw: Vector) -> float | Vector:
    """Residual-scale estimate sqrt(RSS / (n - p)) of the full fit.

    ``y_raw`` is the response in original units with the same centering as
    ``data.y`` (i.e. ``data.y * data.response_scale``).  The projection onto
    the column space is invariant to column scaling, so the standardized
    design is used directly.  The fit comes from ``full_fit``.  A stack of
    responses (R x n) gives an array of R estimates, each equal to the
    estimate of its row up to the rounding of the stacked products.
    """
    y = np.asarray(y_raw, dtype=np.float64)
    resid = y - (data.X @ full_fit(data, y).T).T
    rss = (resid[..., None, :] @ resid[..., :, None])[..., 0, 0]
    sigma = np.sqrt(rss / (data.n - data.p))
    return float(sigma) if sigma.ndim == 0 else sigma


def _log_upper_gamma(a: float, x: float) -> tuple[float, float]:
    """log Q(a, x) and the log Gamma(a, 1) density at x, for x > 0.

    Q is the regularized upper incomplete gamma function: from the series for
    P = 1 - Q when x < a + 1, else from the Lentz continued fraction for Q
    (Press et al., Numerical Recipes, section 6.2).
    """
    log_pdf = (a - 1.0) * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        denom = a
        while term > total * _EPS:
            denom += 1.0
            term *= x / denom
            total += term
        return math.log1p(-total * math.exp(log_pdf + math.log(x))), log_pdf
    b = x + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / b
    h, i, delta = d, 0, 0.0
    while abs(delta - 1.0) > _EPS:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) > _TINY else _TINY
        delta = d * c
        h *= delta
    return log_pdf + math.log(x * h), log_pdf


def chi2_upper_quantile(df: int, tail: float) -> float:
    """Value q with upper chi-squared tail probability equal to ``tail``.

    The inverse of the regularized upper incomplete gamma function: Newton
    steps on log Q(df/2, q/2) = log(tail), started from the Wilson-Hilferty
    (1931) approximation.  Agrees with ``scipy.special.chdtri`` to about
    1e-14 relative.
    """
    if not 0.0 < tail < 1.0:
        raise InvalidTail(f"tail must be in (0, 1), got {tail}")
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    a = 0.5 * df
    v = 2.0 / (9.0 * df)
    x = a * (1.0 - v - NormalDist().inv_cdf(tail) * math.sqrt(v)) ** 3
    if x <= 0.0:  # far in the lower tail, where P(a, x) ~ x^a / Gamma(a + 1)
        x = math.exp((math.log1p(-tail) + math.lgamma(a + 1.0)) / a)
    target = math.log(tail)
    last = math.inf
    for _ in range(100):
        log_q, log_pdf = _log_upper_gamma(a, x)
        new = x + (log_q - target) * math.exp(log_q - log_pdf)
        new = new if new > 0.0 else 0.5 * x
        step, x = abs(new - x), new
        # converged, or rounding noise in log Q has stopped the steps shrinking
        if step <= 1e-15 * x or last <= step <= 1e-12 * x:
            break
        last = step
    return 2.0 * x


@functools.lru_cache
def chi2_thresholds(p: int, n: int) -> Vector:
    """Upper 1/n chi-squared quantiles with p-k+1 degrees of freedom, k=1..p.

    Computed once per (p, n): later calls return the same read-only array.
    """
    thresholds = np.array([chi2_upper_quantile(p - k + 1, 1.0 / n) for k in range(1, p + 1)])
    thresholds.setflags(write=False)
    return thresholds


def tail_sums(path: LarPath | LarBatch, sigma: float | Vector, n: int) -> Vector:
    """Tail sums S_k = W_k + ... + W_p over a full sample path of the per-step
    statistics W_k = n (1/A_k^2 - 1/A_{k-1}^2) C_k^2 / sigma^2.

    For a LarBatch, ``sigma`` is a column with one estimate per row, and S has
    one row per path (0 past the row's last step).
    """
    W = n * path.inv_angle_sq_increments * path.correlations**2 / sigma**2
    return W[..., ::-1].cumsum(axis=-1)[..., ::-1]


def estimate_m(S: Vector, thresholds: Vector) -> int | NDArray[np.int64]:
    """Largest prefix length over which tail sums strictly exceed thresholds.

    Returns 0 when the first tail sum does not exceed its threshold; equality
    counts as failure.  A matrix of tail sums gives one estimate per row.
    """
    S = np.asarray(S, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if S.shape[-1:] != thresholds.shape:
        raise ValueError("S and thresholds must have equal length")
    exceeds = S > thresholds
    m = np.where(exceeds.all(axis=-1), S.shape[-1], exceeds.argmin(axis=-1))
    return int(m) if m.ndim == 0 else m


@dataclass(frozen=True)
class InferenceReport:  # one entry (or row) per response of a stack
    sigma_hat: float | Vector
    S: Vector
    thresholds: Vector
    m_bar: int | NDArray[np.int64]


def build_inference_report(data: StandardizedData, paths: LarPath | LarBatch, Y=None,
                           row_name=None) -> InferenceReport:
    """σ̂, the tail sums, their thresholds and m̄ of the sample path of ``data.y``,
    or of each response row of Y (R x n, on the scale of ``data.y``) with its
    row of the LarBatch ``paths``.

    The stopping rule needs the tail sums of all p steps, so a path that
    stops before step p raises DegenerateResponse, and so does σ̂ = 0 (a
    design that fits the response exactly), since the tail sums divide by σ̂².
    For a stack the message starts with ``row_name`` of the first such row.
    """
    def fail(bad, message: str) -> DegenerateResponse:
        name = "" if row_name is None else f"{row_name(bad[0])}: "
        return DegenerateResponse(name + message)

    stops = np.atleast_1d(paths.terminated_at)
    if (short := np.flatnonzero(stops < data.p)).size:
        raise fail(short, f"the sample path stops at step {stops[short[0]]} of {data.p}; "
                          "the stopping rule needs the tail sums of all p steps")
    sigma = sigma_hat(data, (data.y if Y is None else Y) * data.response_scale)
    if (exact := np.flatnonzero(np.atleast_1d(sigma) == 0.0)).size:
        raise fail(exact, "sigma_hat = 0: the design fits the response exactly, "
                          "and the tail sums divide by sigma_hat")
    S = tail_sums(paths, sigma if Y is None else sigma[:, None], data.n)
    thresholds = chi2_thresholds(data.p, data.n)
    return InferenceReport(sigma, S, thresholds, estimate_m(S, thresholds))
