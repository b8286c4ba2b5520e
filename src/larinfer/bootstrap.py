"""Modified residual bootstrap for step correlations and step coefficients.

Replicas resample centered, scaled residuals around the projection of the
response onto the estimated active set (not the full least-squares fit), so
steps beyond the estimated termination point mimic zero population
correlations.  Intervals invert empirical quantiles of studentized replica
statistics.

The design is the same in every replica, so a replica response
y* = mu + e* reaches the path only through X'y* = X'mu + X'e*.  Each replica
keeps X'e* and |e*|^2 and no n-length vector: its residual scale follows
from the triangular factor R of X'X, and the replicas run in lockstep through
one call of the batch path engine ``lar_batch`` per chunk, with one batched
least-squares refit.  Each replica draws from its own substream, so the
draws do not depend on the chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .inference import full_fit, sigma_hat
from .linalg import solve_spd
from .path import LarPath, StandardizedData, lar_batch

Vector = NDArray[np.float64]
Matrix = NDArray[np.float64]

# Replicas are run in chunks of at most CHUNK_BYTES / (8 p^2) rows, which
# bounds each of the engine's B x p x p work arrays.
CHUNK_BYTES = 32 * 2**20


@dataclass(frozen=True)
class BootstrapConfig:
    """Bootstrap draw count, interval level and seed.

    ``parallel`` and ``threads`` are deprecated and ignored: all replicas run
    in lockstep through one path engine.  They are still accepted so that
    existing callers and scenario files keep working.
    """

    draws: int = 500
    alpha: float = 0.05
    seed: int = 0
    parallel: bool = False  # deprecated, ignored
    threads: int = 0  # deprecated, ignored

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.draws < 2.0 / self.alpha:
            raise ValueError(
                f"draws = {self.draws} too small to estimate alpha = {self.alpha} quantiles"
            )


def replica_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based substream for one replica; independent of scheduling."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def nearest_rank_quantile(values: Vector, level: float) -> float:
    """Nearest-rank (type-1) empirical quantile of a replica multiset."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    draws = ordered.shape[0]
    rank = min(draws, max(1, math.ceil(draws * level)))
    return float(ordered[rank - 1])


def residual_pool(data: StandardizedData) -> Vector:
    """Centered, scaled full-fit residuals to resample from."""
    resid = data.y - data.X @ full_fit(data, data.y)
    adjustment = math.sqrt(data.n / (data.n - data.p))
    return (resid - resid.mean()) / adjustment


def _residual_scale(data: StandardizedData, xte: Matrix, ee: Vector) -> Vector:
    """sqrt(n |e - Pe|^2 / (n - p)) per row, from X'e (B x p) and |e|^2.

    |Pe|^2 = |R^-T X'e|^2 with R the factor of X'X; a difference that
    rounding pushes below zero counts as zero.
    """
    z = np.linalg.solve(data.gram_factor.T, xte.T)
    rss = np.maximum(ee - np.einsum("ij,ij->j", z, z), 0.0)
    return np.sqrt(data.n * rss / (data.n - data.p))


def _ols_from_correlations(data: StandardizedData, order: list[int], xty: Vector) -> Vector:
    """Least-squares p-vector supported on the columns ``order``, from X'y and G_AA."""
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
        naive: bool = False,
    ):
        self.data = data
        self.path = path
        self.m_bar = m_bar
        self.pool = residual_pool(data)
        p = data.p
        # sample-side coefficient rows with the terminal step re-fit
        self.terminal = terminal_coefficients(data, path, m_bar)
        self.centers = np.zeros(p)
        if naive:
            # full least-squares resampling center; its path correlations
            # equal the sample ones at every step, so the replica statistics
            # are centered at the full correlation sequence.  Demonstrates
            # the failure mode for steps beyond the true termination point.
            self.b_center = full_fit(data, data.y)
            self.centers[: len(path.steps)] = path.correlations
        else:
            self.b_center = self.terminal.b_bar
            self.centers[:m_bar] = path.correlations[:m_bar]
        # X'mu of the resampling center mu = X b_center
        self.start = data.gram @ self.b_center
        self.sigma = sigma_hat(data, data.y * data.response_scale)
        self.sample_coefs = path.coefficients[:m_bar].copy() if m_bar else np.zeros((0, p))
        if m_bar:
            self.sample_coefs[m_bar - 1] = self.terminal.b_bar
        self.cells = [
            (k, j) for k in range(1, m_bar + 1) for j in path.entrants[:k]
        ]

    def collect(self, cfg: BootstrapConfig) -> tuple[Matrix, Matrix, Matrix]:
        """(studentized T*, studentized B* per cell, entry step per variable),
        one row per replica."""
        chunk = max(1, CHUNK_BYTES // (8 * self.data.p ** 2))
        parts = [
            self._replicas(cfg.seed, start, min(start + chunk, cfg.draws))
            for start in range(0, cfg.draws, chunk)
        ]
        t_star, b_star, entries = (np.concatenate(arrays) for arrays in zip(*parts))
        return t_star, b_star, entries

    def _replicas(self, seed: int, start: int, stop: int) -> tuple[Matrix, Matrix, Matrix]:
        """``collect`` for the replicas with indices start..stop-1."""
        data, m_bar = self.data, self.m_bar
        n, p = data.n, data.p
        draws = stop - start
        xte = np.empty((draws, p))
        ee = np.empty(draws)
        for i in range(draws):
            eps = self.pool[replica_rng(seed, start + i).integers(0, n, n)]
            xte[i] = data.X.T @ eps
            ee[i] = eps @ eps
        sigma_star = _residual_scale(data, xte, ee)
        start_corr = self.start + xte
        batch = lar_batch(
            start_corr, data.gram_factor, zero_tol=0.0, coef_steps=m_bar,
            row_name=lambda i: f"bootstrap replica {start + i}",
        )
        done = np.arange(p) < batch.terminated_at[:, None]
        ok = sigma_star > 0.0
        signs = np.where(done, batch.signs, 1.0)
        increments = np.where(
            done, np.diff(batch.inv_angle_sq, axis=1, prepend=0.0), 0.0
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            t_star = (
                signs * np.sqrt(increments) * math.sqrt(n)
                * (batch.correlations - self.centers) / sigma_star[:, None]
            )
        t_star[~ok] = 0.0

        b_star = np.zeros((draws, len(self.cells)))
        if m_bar:
            coef_rows = batch.coefficients
            refit = np.flatnonzero(ok & (batch.terminated_at >= m_bar))
            if refit.size:
                order = batch.entrants[refit, :m_bar]
                gram_aa = data.gram[order[:, :, None], order[:, None, :]]
                rhs = np.take_along_axis(start_corr[refit], order, axis=1)
                terminal = np.zeros((refit.size, p))
                np.put_along_axis(terminal, order, solve_spd(gram_aa, rhs), axis=1)
                coef_rows[refit, m_bar - 1] = terminal
            ks = np.array([k - 1 for k, _ in self.cells])
            js = np.array([j for _, j in self.cells])
            with np.errstate(divide="ignore", invalid="ignore"):
                b_star = (
                    math.sqrt(n) * (coef_rows[:, ks, js] - self.sample_coefs[ks, js])
                    / sigma_star[:, None]
                )
            b_star[~ok] = 0.0

        entries = np.full((draws, p), p, dtype=np.float64)
        rows, steps = np.nonzero(done)
        entries[rows, batch.entrants[rows, steps]] = steps + 1
        return t_star, b_star, entries


def bootstrap_intervals(
    data: StandardizedData,
    path: LarPath,
    m_bar: int,
    cfg: BootstrapConfig,
    naive: bool = False,
) -> IntervalSet:
    """Confidence intervals for step correlations and step coefficients.

    Correlation intervals cover all p steps (centers beyond the estimated
    termination step are zero); coefficient intervals cover the triangular
    cell set {(k, j): j active at step k, k <= m_bar} with the terminal step
    re-fit by least squares.  Negative lower endpoints of correlation
    intervals are clamped to zero.
    """
    engine = BootstrapEngine(data, path, m_bar, naive=naive)
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


def membership_curves(entry_steps: Matrix, p: int) -> Matrix:
    """Cumulative entry frequencies: rows variables, columns steps 1..p."""
    entries = np.atleast_2d(np.asarray(entry_steps, dtype=np.float64))
    if entries.shape[0] < 1:
        raise ValueError("need at least one replica")
    steps = np.arange(1, p + 1)
    return (entries[:, :, None] <= steps[None, None, :]).mean(axis=0)
