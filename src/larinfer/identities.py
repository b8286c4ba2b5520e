"""Reference formulas of the paper's identities, kept apart from the engine.

Every routine here restates a quantity that the production code computes
another way: alternative step-length and equiangular formulas, an n-space
Gram-Schmidt basis and a replay of a recorded path through it, the entrance
criteria, a closed form of the step correlation, the per-step and
studentized step statistics of one path, the one-column quantile, a design
with a new response, the single-response residual pool and terminal refit and
single-draw forms of the bootstrap, and the asymptotic covariance of the
step-coefficient errors.  The tests check the engine against them.  The
standard residual bootstrap, the paper's counterexample, is here as well.  No
module of the package imports this one, the package root included; import
it as ``larinfer.identities``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.typing import NDArray

from .bootstrap import (
    BootstrapSetup,
    _residual_pools,
    _residual_scale,
    bootstrap_setup,
)
from .exceptions import DimensionMismatch, NoPositiveCandidate, NonPositiveScale, RankDeficient
from .inference import full_fit, sigma_hat
from .linalg import RANK_TOL, solve_spd
from .path import ZERO_SIGN_TOL, LarPath, StandardizedData, _crossings, lar_path

Vector = NDArray[np.float64]
Matrix = NDArray[np.float64]


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


def append_innovation(
    basis: ProjectionBasis, x_new: Vector, index: int = -1
) -> tuple[ProjectionBasis, Vector]:
    """Extend the basis with a new column and return its innovation.

    The innovation is the component of ``x_new`` orthogonal to the current
    span, before normalization.  Raises RankDeficient when its norm falls
    below RANK_TOL relative to max(1, |x_new|).
    """
    Q = basis.vectors
    x = np.asarray(x_new, dtype=np.float64)
    if x.shape[0] != Q.shape[0]:
        raise DimensionMismatch(f"vector length {x.shape[0]} != basis rows {Q.shape[0]}")
    # classical Gram-Schmidt with one reorthogonalization pass
    e = x - (Q @ (Q.T @ x[:, None]))[:, 0]
    e = e - (Q @ (Q.T @ e[:, None]))[:, 0]
    norm = np.sqrt((e * e).sum())
    if norm <= RANK_TOL * max(1.0, np.linalg.norm(x)):
        raise RankDeficient(f"innovation norm {norm:.3e} below rank tolerance")
    extended = ProjectionBasis(
        np.column_stack([Q, e / norm]), basis.indices + (int(index),)
    )
    return extended, e


def full_column_basis(data: StandardizedData) -> ProjectionBasis:
    """Orthonormal n-space basis of the full column space of the design."""
    basis = ProjectionBasis.empty(data.n)
    for j in range(data.p):
        basis, _ = append_innovation(basis, data.X[:, j], j)
    return basis


@dataclass(frozen=True)
class StepState:
    """Quantities in hand when the step length is chosen at one step.

    ``correlations_all`` is c_k = X'(response - fit), ``correlation`` its
    maximum absolute entry C_k, ``angle`` the common cosine A_k,
    ``equiangular_dots`` is w_k = X'a_k, and ``active_mask`` marks the active
    set including the step-k entrant.
    """

    correlations_all: Vector
    correlation: float
    angle: float
    equiangular_dots: Vector
    active_mask: NDArray[np.bool_]


def step_state(path: LarPath, k: int) -> StepState:
    """The StepState of step k (1-based) of a recorded path."""
    mask = np.zeros(path.coefficients.shape[1], dtype=bool)
    mask[path.entrants[:k]] = True
    return StepState(
        path.correlations_all[k - 1], float(path.correlations[k - 1]),
        float(path.angles[k - 1]), path.equiangular_dots[k - 1], mask,
    )


def gamma_crossings(state: StepState) -> tuple[float, Vector, Vector]:
    """Step length via the sign-resolved single-fraction formula.

    Returns (gamma, per-index values over all p entries, per-index signs
    r_{k,j}).  Active entries of the per-index vector are +inf.  When the
    sign is exactly zero the value C_k/A_k is used.
    """
    gamma, per, r = _crossings(
        state.correlations_all[None], np.array([state.correlation]),
        np.array([state.angle]), state.equiangular_dots[None],
        state.active_mask[None],
    )
    if not np.any(~state.active_mask):
        raise NoPositiveCandidate("no non-active index remains")
    return float(gamma[0]), per[0], r[0]


def gamma_min_plus(state: StepState) -> float:
    """Step length via the min over positive two-candidate fractions.

    Retained solely for differential testing against gamma_crossings.  Falls
    back to C_k/A_k when every variable is active.
    """
    c = state.correlations_all
    C, A = state.correlation, state.angle
    w = state.equiangular_dots
    mask = ~state.active_mask
    if not np.any(mask):
        return C / A
    with np.errstate(divide="ignore", invalid="ignore"):
        plus = (C - c[mask]) / (A - w[mask])
        minus = (C + c[mask]) / (A + w[mask])
    cand = np.concatenate([plus, minus])
    # Exact zeros arise only from the degenerate r = 0 geometry; treat the
    # corresponding index as contributing C/A, mirroring gamma_crossings.
    degenerate = np.abs(c[mask] - (C / A) * w[mask]) <= ZERO_SIGN_TOL
    cand = np.concatenate([cand, np.full(int(degenerate.sum()), C / A)])
    positive = cand[cand > 0.0]
    if positive.size == 0:
        raise NoPositiveCandidate("all step-length fractions are non-positive")
    return float(np.min(positive))


def equiangular(active_signed_columns: Matrix) -> tuple[Vector, float]:
    """Direct equiangular vector and angle from the signed active columns."""
    S = np.asarray(active_signed_columns, dtype=np.float64)
    gram = S.T @ S
    u = solve_spd(gram, np.ones(S.shape[1]))
    A = 1.0 / math.sqrt(float(np.sum(u)))
    a = A * (S @ u)
    return a, A


def equiangular_recursive(
    prev_a: Vector,
    prev_A: float,
    x_new: Vector,
    innovation: Vector,
    sign: float,
) -> tuple[Vector, float]:
    """Equiangular update from the previous step and the new innovation.

    The first step is encoded by the sentinel prev_A = +inf with prev_a = 0;
    all 1/A_0 terms then contribute literal zeros.
    """
    direction_prev, inv_a2_prev = _sentinel_direction(prev_a, prev_A)
    direction, inv_a2 = _advance_direction(
        direction_prev, inv_a2_prev, x_new, innovation, sign
    )
    A = 1.0 / math.sqrt(inv_a2)
    return direction * A, A


def _sentinel_direction(prev_a: Vector, prev_A: float) -> tuple[Vector, float]:
    if math.isinf(prev_A):
        return np.zeros_like(np.asarray(prev_a, dtype=np.float64)), 0.0
    return np.asarray(prev_a, dtype=np.float64) / prev_A, 1.0 / prev_A**2


def _advance_direction(
    direction_prev: Vector,
    inv_a2_prev: float,
    x_new: Vector,
    innovation: Vector,
    sign: float,
) -> tuple[Vector, float]:
    """One step of the a_k/A_k and 1/A_k^2 recursions."""
    ee = (innovation * innovation).sum()
    u = (1.0 - sign * (x_new * direction_prev).sum()) / ee
    if u <= 0.0:
        raise NonPositiveScale(f"recursion scale u = {u:.3e} is not positive")
    return direction_prev + (u * sign) * innovation, float(inv_a2_prev + u * u * ee)


@dataclass(frozen=True)
class ReplayState:
    """Internal quantities of one recorded step, recomputed by replay."""

    k: int  # 1-based step number
    entrant: int
    sign: float
    basis_prev: ProjectionBasis
    direction_prev: Vector  # a_{k-1} / A_{k-1}
    inv_a2_prev: float
    innovation: Vector
    direction: Vector  # a_k / A_k
    inv_a2: float
    active_mask_prev: NDArray[np.bool_]


def replay_states(data: StandardizedData, path: LarPath):
    """Yield ReplayState for each recorded step, rebuilt deterministically."""
    X = data.X
    basis = ProjectionBasis.empty(data.n)
    direction = np.zeros(data.n)
    inv_a2 = 0.0
    active_mask = np.zeros(data.p, dtype=bool)
    for k, (j, s) in enumerate(zip(path.entrants, path.signs.tolist()), start=1):
        xj = X[:, j]
        basis_prev, direction_prev, inv_a2_prev = basis, direction, inv_a2
        mask_prev = active_mask.copy()
        basis, innovation = append_innovation(basis, xj, j)
        direction, inv_a2 = _advance_direction(direction, inv_a2, xj, innovation, s)
        active_mask[j] = True
        yield ReplayState(
            k, j, s, basis_prev, direction_prev, inv_a2_prev,
            innovation, direction, inv_a2, mask_prev,
        )


@dataclass(frozen=True)
class EntranceCriteria:
    values: Vector  # C_{k,j} over non-active j, nan at active entries
    penalized_ss: Vector  # SS-form of C_{k,j}^2, nan at active entries
    argmax: int


def entrance_criteria(
    data: StandardizedData, response: Vector, state: ReplayState
) -> EntranceCriteria:
    """Entrance criterion values for every non-active column at one step.

    ``values[j]`` is the would-be step correlation if column j entered at
    this step; the argmax over non-active j must be the actual entrant.
    ``penalized_ss`` is the sequential-sum-of-squares form of values**2,
    computed through the candidate angle recursion as an independent route.
    """
    X = data.X
    mu = np.asarray(response, dtype=np.float64)
    resid_mu = mu - project(state.basis_prev, mu)
    resid_X = X - state.basis_prev.vectors @ (state.basis_prev.vectors.T @ X)
    num = X.T @ resid_mu
    r = np.sign(num)
    denom = 1.0 - r * (X.T @ state.direction_prev)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.abs(num) / denom
    # independent route: per-column SS penalized by the candidate angle drop
    d = np.einsum("ij,ij->j", X, resid_X)  # x_j' (I - P_{k-1}) x_j
    with np.errstate(divide="ignore", invalid="ignore"):
        ss = num**2 / d
        u = denom / d  # candidate recursion scale for column j with sign r
        inv_a2_drop = u**2 * d  # 1/A_{j,k}^2 - 1/A_{k-1}^2
        penalized = ss / inv_a2_drop
    values = np.where(state.active_mask_prev, np.nan, values)
    penalized = np.where(state.active_mask_prev, np.nan, penalized)
    masked = np.where(state.active_mask_prev, -np.inf, values)
    return EntranceCriteria(values, penalized, int(np.argmax(masked)))


def population_correlation_closed_form(
    data: StandardizedData, mu: Vector, state: ReplayState
) -> float:
    """Step correlation from the innovation closed form."""
    mu = np.asarray(mu, dtype=np.float64)
    num = state.sign * float(state.innovation @ mu)
    xj = data.X[:, state.entrant]
    denom = 1.0 - state.sign * float(xj @ state.direction_prev)
    return num / denom


def step_statistics(path: LarPath, sigma: float, n: int) -> Vector:
    """Per-step statistics W_k = n (1/A_k^2 - 1/A_{k-1}^2) C_k^2 / sigma^2,
    whose tail sums ``tail_sums`` returns, by the same expression."""
    return n * path.inv_angle_sq_increments * path.correlations**2 / sigma**2


def studentized_T(path: LarPath, centers: Vector, sigma: float, n: int) -> Vector:
    """Studentized step-correlation statistics relative to given centers;
    the bootstrap computes them for its replicas in ``_replicas``."""
    centers = np.asarray(centers, dtype=np.float64)
    k = path.terminated_at
    if centers.shape[0] != k:
        raise ValueError(f"need {k} centers, got {centers.shape[0]}")
    scale = np.sqrt(path.inv_angle_sq_increments)
    return path.signs * scale * math.sqrt(n) * (path.correlations - centers) / sigma


def nearest_rank_quantile(values: Vector, level: float) -> float:
    """Nearest-rank (type-1) empirical quantile of a replica multiset."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    draws = ordered.shape[0]
    rank = min(draws, max(1, math.ceil(draws * level)))
    return float(ordered[rank - 1])


def with_response(data: StandardizedData, y_raw: Vector) -> StandardizedData:
    """Same design, new raw-scale response (centered if the data was)."""
    y = np.asarray(y_raw, dtype=np.float64)
    if y.shape[0] != data.n:
        raise DimensionMismatch(f"response length {y.shape[0]} != n = {data.n}")
    if data.centered:
        y = y - y.mean()
    return replace(data, y=y / data.response_scale)


def residual_pool(data: StandardizedData) -> Vector:
    """Centered, scaled full-fit residuals of ``data.y`` to resample from."""
    Y = data.y[None]
    return _residual_pools(data, Y, full_fit(data, Y))[0]


def bootstrap_errors(data: StandardizedData, y: Vector, rng: np.random.Generator) -> Vector:
    """Draw n errors i.i.d. from the centered/scaled residual multiset of y."""
    y_raw = np.asarray(y, dtype=np.float64) * data.response_scale
    pool = residual_pool(with_response(data, y_raw))
    return pool[rng.integers(0, data.n, data.n)]


def ols_on_active(data: StandardizedData, order: list[int], y: Vector) -> Vector:
    """Least-squares coefficients of y on the given active columns, solved
    directly from their Gram block, the reference for the engine's refits.

    Returns a full p-vector supported on ``order``.
    """
    order = np.asarray(order, dtype=np.int64)
    b = np.zeros(data.p)
    if order.size:
        xty = data.X.T @ np.asarray(y, dtype=np.float64)
        b[order] = solve_spd(data.gram[np.ix_(order, order)], xty[order])
    return b


def terminal_coefficients(
    data: StandardizedData, path: LarPath, m_bar: int
) -> tuple[Vector, Vector]:
    """Least-squares refit (b_bar, raw_b_bar) of the path's response on its
    first m_bar entrants, from X'y of ``data.y`` instead of the path's start
    correlations; raw_b_bar is b_bar in the original units."""
    b_bar = ols_on_active(data, path.entrants[:m_bar], data.y)
    return b_bar, b_bar * data.response_scale / data.column_scales


def bootstrap_path_draw(
    data: StandardizedData,
    path: LarPath,
    m_bar: int,
    rng: np.random.Generator,
) -> tuple[LarPath, float]:
    """One replica path and its residual-scale estimate."""
    Y = data.y[None]
    setup = bootstrap_setup(data, Y, [path], [m_bar], sigma_hat(data, Y * data.response_scale))
    eps = setup.pools[0][rng.integers(0, data.n, data.n)]
    y_star = data.X @ setup.b_bars[0] + eps
    path_star = lar_path(data.X.T @ y_star, data.gram, zero_tol=0.0)
    sigma_star = _residual_scale(data, (data.X.T @ eps)[None], np.array([eps @ eps]))
    return path_star, float(sigma_star[0])


def naive_setup(
    data: StandardizedData, Y: Matrix, paths: list[LarPath], m_bars, sigmas
) -> BootstrapSetup:
    """``bootstrap_setup`` of the standard residual bootstrap, which can fail
    for LAR: the replicas resample around the full least-squares fit, whose
    path correlations equal the sample ones at every step, so the replica
    statistics are centered at each path's whole correlation sequence.

    Substituted for ``larinfer.bootstrap.bootstrap_setup``, it runs the
    production chain on the standard bootstrap; the production set-up it
    starts from is the one bound when this module was imported.
    """
    setup = bootstrap_setup(data, Y, paths, m_bars, sigmas)
    centers = np.zeros_like(setup.centers)
    for r, path in enumerate(paths):
        centers[r, : path.terminated_at] = path.correlations
    return replace(setup, starts=(data.gram @ full_fit(data, Y).T).T, centers=centers)


@dataclass(frozen=True)
class AsymptoticCoefCov:
    blocks: dict[tuple[int, int], Matrix]  # (k, k') -> k x k' block, k <= k'
    lambdas: Vector
    R: Matrix
    signs: Vector
    sigma: float
    matrix: Matrix  # assembled m(m+1)/2-dimensional covariance


def asymptotic_coef_cov(
    R: Matrix, order: list[int], signs: Vector, sigma: float
) -> AsymptoticCoefCov:
    """Limiting covariance blocks of the scaled step-coefficient errors.

    Block (k, k') is the covariance between the active-set restrictions of
    the step-k and step-k' coefficient deviations, in entry order.  The
    terminal step has lambda = 0, so its variance block is the plain
    least-squares covariance on the final active set.
    """
    R = np.asarray(R, dtype=np.float64)
    s = np.asarray(signs, dtype=np.float64)
    m = len(order)
    actives = [list(order[:k]) for k in range(1, m + 1)]
    grams = [R[np.ix_(a, a)] for a in actives]
    lambdas = np.zeros(m)
    for k in range(1, m):
        j_next = order[k]
        row = R[j_next, actives[k - 1]]
        denom = 1.0 - s[k] * float(row @ np.linalg.solve(grams[k - 1], s[:k]))
        lambdas[k - 1] = s[k] / denom

    blocks: dict[tuple[int, int], Matrix] = {}
    for k in range(1, m + 1):
        Gk = grams[k - 1]
        sk = s[:k]
        if k < m:
            j_next = order[k]
            row = R[j_next, actives[k - 1]]
            cond_var = float(R[j_next, j_next] - row @ np.linalg.solve(Gk, row))
            inner = Gk + lambdas[k - 1] ** 2 * cond_var * np.outer(sk, sk)
        else:
            inner = Gk
        half = np.linalg.solve(Gk, inner)
        blocks[(k, k)] = sigma**2 * np.linalg.solve(Gk, half.T).T
        for kp in range(k + 1, m + 1):
            Gkp = grams[kp - 1]
            cross = R[np.ix_(actives[k - 1], actives[kp - 1])]
            j_next = order[k]
            row_kp = R[j_next, actives[kp - 1]]
            row_k = R[j_next, actives[k - 1]]
            cond_row = row_kp - row_k @ np.linalg.solve(Gk, cross)
            inner_c = cross - lambdas[k - 1] * np.outer(sk, cond_row)
            half_c = np.linalg.solve(Gk, inner_c)
            blocks[(k, kp)] = sigma**2 * np.linalg.solve(Gkp, half_c.T).T

    dim = m * (m + 1) // 2
    offsets = np.concatenate([[0], np.cumsum(np.arange(1, m + 1))])
    full = np.zeros((dim, dim))
    for k in range(1, m + 1):
        for kp in range(k, m + 1):
            block = blocks[(k, kp)]
            full[offsets[k - 1] : offsets[k], offsets[kp - 1] : offsets[kp]] = block
            if kp != k:
                full[offsets[kp - 1] : offsets[kp], offsets[k - 1] : offsets[k]] = block.T
    return AsymptoticCoefCov(blocks, lambdas, R, s, sigma, full)
