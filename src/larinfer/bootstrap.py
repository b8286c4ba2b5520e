"""Modified residual bootstrap for step correlations and step coefficients.

Replicas resample centered, scaled residuals around the projection of the
response onto the estimated active set (not the full least-squares fit), so
steps beyond the estimated termination point mimic zero population
correlations.  Intervals invert empirical quantiles of studentized replica
statistics.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .inference import full_column_basis, sigma_hat
from .linalg import ProjectionBasis, append_innovation, project, solve_spd
from .path import LarPath, StandardizedData, lar_path

Vector = NDArray[np.float64]
Matrix = NDArray[np.float64]


@dataclass(frozen=True)
class BootstrapConfig:
    draws: int = 500
    alpha: float = 0.05
    seed: int = 0
    parallel: bool = False
    threads: int = 0  # 0 means use available parallelism when parallel is set

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.draws < 2.0 / self.alpha:
            raise ValueError(
                f"draws = {self.draws} too small to estimate alpha = {self.alpha} quantiles"
            )

    @property
    def effective_threads(self) -> int:
        if not self.parallel:
            return 1
        return self.threads if self.threads > 0 else (os.cpu_count() or 1)


def replica_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based substream for one replica; independent of scheduling."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def nearest_rank_quantile(values: Vector, level: float) -> float:
    """Nearest-rank (type-1) empirical quantile of a replica multiset."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    draws = ordered.shape[0]
    rank = min(draws, max(1, math.ceil(draws * level)))
    return float(ordered[rank - 1])


def residual_pool(data: StandardizedData, basis: ProjectionBasis | None = None) -> Vector:
    """Centered, scaled full-fit residuals to resample from."""
    if basis is None:
        basis = full_column_basis(data)
    resid = data.y - project(basis, data.y)
    adjustment = math.sqrt(data.n / (data.n - data.p))
    return (resid - resid.mean()) / adjustment


def bootstrap_errors(
    data: StandardizedData,
    y: Vector,
    rng: np.random.Generator,
    basis: ProjectionBasis | None = None,
) -> Vector:
    """Draw n errors i.i.d. from the centered/scaled residual multiset of y."""
    if basis is None:
        basis = full_column_basis(data)
    resid = np.asarray(y, dtype=np.float64) - project(basis, y)
    adjustment = math.sqrt(data.n / (data.n - data.p))
    pool = (resid - resid.mean()) / adjustment
    return pool[rng.integers(0, data.n, data.n)]


def active_basis(data: StandardizedData, order: list[int]) -> ProjectionBasis:
    basis = ProjectionBasis.empty(data.n)
    for j in order:
        basis, _ = append_innovation(basis, data.X[:, j], j)
    return basis


def ols_on_active(data: StandardizedData, order: list[int], y: Vector) -> Vector:
    """Least-squares coefficients of y on the given active columns.

    Returns a full p-vector supported on ``order``.
    """
    return _ols_from_correlations(data, order, data.X.T @ np.asarray(y, dtype=np.float64))


def _ols_from_correlations(data: StandardizedData, order: list[int], xty: Vector) -> Vector:
    """``ols_on_active`` in p-space, from X'y and the normal equations G_AA."""
    b = np.zeros(data.p)
    if order:
        b[order] = solve_spd(data.gram[np.ix_(order, order)], xty[order])
    return b


@dataclass(frozen=True)
class TerminalCoefficients:
    b_bar: Vector  # p-vector supported on the estimated active set
    raw_scale: Vector  # back-mapped coefficients in original units


def terminal_coefficients(
    data: StandardizedData, path: LarPath, m_bar: int
) -> TerminalCoefficients:
    """Least-squares refit of the path's response on its first m_bar entrants."""
    b_bar = (
        _ols_from_correlations(data, path.entrants[:m_bar], path.start_correlations)
        if m_bar else np.zeros(data.p)
    )
    raw = b_bar * data.response_scale / data.column_scales
    return TerminalCoefficients(b_bar, raw)


@dataclass(frozen=True)
class IntervalSet:
    correlation_intervals: Matrix  # p x 2, rows (lo, hi) for each step
    coefficient_intervals: dict[tuple[int, int], tuple[float, float]]
    membership_freq: Matrix  # p x p, rows variables, columns steps
    m_bar: int
    alpha: float
    draws: int
    terminal: TerminalCoefficients  # least-squares refit on the first m_bar entrants


class BootstrapEngine:
    """Precomputed state for drawing replicas of one fitted sample path."""

    def __init__(
        self,
        data: StandardizedData,
        path: LarPath,
        m_bar: int,
        basis: ProjectionBasis | None = None,
        naive: bool = False,
    ):
        self.data = data
        self.path = path
        self.m_bar = m_bar
        self.basis = basis if basis is not None else full_column_basis(data)
        self.pool = residual_pool(data, self.basis)
        p = data.p
        self.centers = np.zeros(p)
        if naive:
            # full least-squares resampling center; its path correlations
            # equal the sample ones at every step, so the replica statistics
            # are centered at the full correlation sequence.  Demonstrates
            # the failure mode for steps beyond the true termination point.
            self.mu_center = project(self.basis, data.y)
            self.centers[: len(path.steps)] = path.correlations
        else:
            self.mu_center = project(active_basis(data, path.entrants[:m_bar]), data.y)
            self.centers[:m_bar] = path.correlations[:m_bar]
        self.sigma = sigma_hat(data, data.y * data.response_scale, self.basis)
        # sample-side coefficient rows with the terminal step re-fit
        self.terminal = terminal_coefficients(data, path, m_bar)
        self.sample_coefs = path.coefficients[:m_bar].copy() if m_bar else np.zeros((0, p))
        if m_bar:
            self.sample_coefs[m_bar - 1] = self.terminal.b_bar
        self.cells = [
            (k, j) for k in range(1, m_bar + 1) for j in path.entrants[:k]
        ]

    def draw_path(
        self, rng: np.random.Generator
    ) -> tuple[LarPath, float, Vector]:
        eps = self.pool[rng.integers(0, self.data.n, self.data.n)]
        y_star = self.mu_center + eps
        path_star = lar_path(self.data, y_star, zero_tol=0.0, kind="sample")
        resid = eps - project(self.basis, eps)
        sigma_star = math.sqrt(
            self.data.n * float(resid @ resid) / (self.data.n - self.data.p)
        )
        return path_star, sigma_star, y_star

    def replica(self, seed: int, index: int) -> tuple[Vector, Vector, Vector]:
        """(studentized T*, studentized B* per cell, entry step per variable)."""
        n, p = self.data.n, self.data.p
        rng = replica_rng(seed, index)
        path_star, sigma_star, _ = self.draw_path(rng)
        steps = len(path_star.steps)
        corr = np.zeros(p)
        corr[:steps] = path_star.correlations
        signs = np.ones(p)
        signs[:steps] = path_star.signs
        increments = np.zeros(p)
        increments[:steps] = path_star.inv_angle_sq_increments
        if sigma_star > 0.0:
            t_star = (
                signs * np.sqrt(increments) * math.sqrt(n)
                * (corr - self.centers) / sigma_star
            )
        else:
            t_star = np.zeros(p)
        b_star = np.zeros(len(self.cells))
        if self.m_bar and sigma_star > 0.0:
            coef_rows = np.zeros((self.m_bar, p))
            avail = min(self.m_bar, steps)
            coef_rows[:avail] = path_star.coefficients[:avail]
            if steps >= self.m_bar:
                coef_rows[self.m_bar - 1] = _ols_from_correlations(
                    self.data, path_star.entrants[: self.m_bar],
                    path_star.start_correlations,
                )
            for i, (k, j) in enumerate(self.cells):
                b_star[i] = (
                    math.sqrt(n)
                    * (coef_rows[k - 1, j] - self.sample_coefs[k - 1, j])
                    / sigma_star
                )
        entry = np.full(p, p, dtype=np.float64)
        for pos, j in enumerate(path_star.entrants, start=1):
            entry[j] = pos
        return t_star, b_star, entry

    def collect(self, cfg: BootstrapConfig) -> tuple[Matrix, Matrix, Matrix]:
        indices = range(cfg.draws)
        threads = cfg.effective_threads
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(lambda i: self.replica(cfg.seed, i), indices))
        else:
            results = [self.replica(cfg.seed, i) for i in indices]
        t_star = np.array([r[0] for r in results])
        b_star = np.array([r[1] for r in results])
        entries = np.array([r[2] for r in results])
        return t_star, b_star, entries


def bootstrap_path_draw(
    data: StandardizedData,
    path: LarPath,
    m_bar: int,
    rng: np.random.Generator,
) -> tuple[LarPath, float]:
    """One replica path and its residual-scale estimate."""
    engine = BootstrapEngine(data, path, m_bar)
    path_star, sigma_star, _ = engine.draw_path(rng)
    return path_star, sigma_star


def bootstrap_intervals(
    data: StandardizedData,
    path: LarPath,
    m_bar: int,
    cfg: BootstrapConfig,
    basis: ProjectionBasis | None = None,
    naive: bool = False,
) -> IntervalSet:
    """Confidence intervals for step correlations and step coefficients.

    Correlation intervals cover all p steps (centers beyond the estimated
    termination step are zero); coefficient intervals cover the triangular
    cell set {(k, j): j active at step k, k <= m_bar} with the terminal step
    re-fit by least squares.  Negative lower endpoints of correlation
    intervals are clamped to zero.
    """
    engine = BootstrapEngine(data, path, m_bar, basis=basis, naive=naive)
    t_star, b_star, entries = engine.collect(cfg)
    n, p = data.n, data.p
    lo_level, hi_level = cfg.alpha / 2.0, 1.0 - cfg.alpha / 2.0

    corr = np.zeros((len(path.steps), 2))
    increments = path.inv_angle_sq_increments
    for k in range(1, len(path.steps) + 1):
        # inverts the pivot: the replica statistic carries the square-root
        # increment in its numerator, so the interval scale divides by it
        q_hat = (
            path.steps[k - 1].sign
            * engine.sigma
            / (math.sqrt(increments[k - 1]) * math.sqrt(n))
        )
        t_lo = nearest_rank_quantile(t_star[:, k - 1], lo_level)
        t_hi = nearest_rank_quantile(t_star[:, k - 1], hi_level)
        c_hat = path.correlations[k - 1]
        ends = (c_hat - t_hi * q_hat, c_hat - t_lo * q_hat)
        lo, hi = min(ends), max(ends)
        corr[k - 1] = (max(0.0, lo), hi)

    coef: dict[tuple[int, int], tuple[float, float]] = {}
    scale = engine.sigma / math.sqrt(n)
    for i, (k, j) in enumerate(engine.cells):
        b_lo = nearest_rank_quantile(b_star[:, i], lo_level)
        b_hi = nearest_rank_quantile(b_star[:, i], hi_level)
        center = engine.sample_coefs[k - 1, j]
        coef[(k, j)] = (center - b_hi * scale, center - b_lo * scale)

    membership = membership_curves(entries, p)
    return IntervalSet(
        corr, coef, membership, m_bar, cfg.alpha, cfg.draws, engine.terminal
    )


def correlation_intervals(
    data: StandardizedData, path: LarPath, m_bar: int, cfg: BootstrapConfig
) -> Matrix:
    return bootstrap_intervals(data, path, m_bar, cfg).correlation_intervals


def coefficient_intervals(
    data: StandardizedData, path: LarPath, m_bar: int, cfg: BootstrapConfig
) -> dict[tuple[int, int], tuple[float, float]]:
    return bootstrap_intervals(data, path, m_bar, cfg).coefficient_intervals


def membership_curves(entry_steps: Matrix, p: int) -> Matrix:
    """Cumulative entry frequencies: rows variables, columns steps 1..p."""
    entries = np.atleast_2d(np.asarray(entry_steps, dtype=np.float64))
    if entries.shape[0] < 1:
        raise ValueError("need at least one replica")
    steps = np.arange(1, p + 1)
    return (entries[:, :, None] <= steps[None, None, :]).mean(axis=0)
