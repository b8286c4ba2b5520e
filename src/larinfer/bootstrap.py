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
draws do not depend on the chunking.  The engines of several responses on
one design (the replications of a coverage study) are set up together, and
their replicas share chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.typing import NDArray

from .inference import full_fit, sigma_hat
from .linalg import solve_spd
from .path import LarPath, StandardizedData, lar_batch

Vector = NDArray[np.float64]
Matrix = NDArray[np.float64]

# An engine call holds at most CHUNK_BYTES of per-row work arrays, which
# bounds the memory of wide designs; a replica row counts its p x p inverse
# factor (8 p^2 bytes), whose B x p companions add a few times as much
# again.  Calls that run the responses or replicas of several engines hold
# at most CHUNK_ROWS rows, or the draws of one bootstrap if that is more:
# about a hundred rows amortize an engine call's per-step overhead, and
# larger calls raise peak memory without saving time.
CHUNK_BYTES = 32 * 2**20
CHUNK_ROWS = 128


def chunk_rows(row_bytes: int, floor: int = 0) -> int:
    """Rows per engine call: CHUNK_ROWS, or ``floor`` if that is more, but at
    most CHUNK_BYTES worth of rows of ``row_bytes`` each (and at least one)."""
    return max(1, min(CHUNK_BYTES // row_bytes, max(CHUNK_ROWS, floor)))


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


def _quantile_rows(stats: Matrix, alpha: float) -> tuple[Vector, Vector]:
    """Nearest-rank (type-1) empirical alpha/2 and 1 - alpha/2 quantiles of
    each column (a replica multiset), from one sort over the replica axis."""
    ordered = np.sort(stats, axis=0)
    draws = ordered.shape[0]
    lo, hi = (
        min(draws, max(1, math.ceil(draws * level))) - 1
        for level in (alpha / 2.0, 1.0 - alpha / 2.0)
    )
    return ordered[lo], ordered[hi]


def _residual_pools(data: StandardizedData, Y: Matrix, fits: Matrix) -> Matrix:
    """Centered, scaled residuals of each response row of Y from its full fit."""
    resid = Y - (data.X @ fits.T).T
    resid -= resid.mean(axis=1, keepdims=True)
    resid /= math.sqrt(data.n / (data.n - data.p))
    return resid


def residual_pool(data: StandardizedData) -> Vector:
    """Centered, scaled full-fit residuals to resample from."""
    Y = data.y[None]
    return _residual_pools(data, Y, full_fit(data, Y))[0]


def _residual_scale(data: StandardizedData, xte: Matrix, ee: Vector) -> Vector:
    """sqrt(n |e - Pe|^2 / (n - p)) per row, from X'e (B x p) and |e|^2.

    |Pe|^2 = |R^-T X'e|^2 with R the factor of X'X; a difference that
    rounding pushes below zero counts as zero.
    """
    z = np.linalg.solve(data.gram_factor.T, xte.T)
    rss = np.maximum(ee - np.einsum("ij,ij->j", z, z), 0.0)
    return np.sqrt(data.n * rss / (data.n - data.p))


def _ols_from_correlations(data: StandardizedData, order, xty: Vector) -> Vector:
    """Least-squares p-vector supported on the columns ``order``, from X'y and G_AA.

    ``order`` (..., k) and ``xty`` (..., p) may carry matching leading batch
    axes; each row is solved on its own.
    """
    order = np.asarray(order, dtype=np.int64)
    b = np.zeros(np.shape(xty))
    if order.shape[-1]:
        gram_aa = data.gram[order[..., :, None], order[..., None, :]]
        rhs = np.take_along_axis(xty, order, axis=-1)
        np.put_along_axis(b, order, solve_spd(gram_aa, rhs), axis=-1)
    return b


def _refits(data: StandardizedData, entrants, corr: Matrix, m_bars) -> Matrix:
    """Least-squares p-vector of each row on its first m_bars[i] entrants,
    from its row of X'y in ``corr``; zero where m_bar is 0.  One batched
    solve per distinct m_bar."""
    m_bars = np.asarray(m_bars, dtype=np.int64)
    b = np.zeros(np.shape(corr))
    for m_bar in set(m_bars.tolist()) - {0}:
        rows = np.flatnonzero(m_bars == m_bar)
        b[rows] = _ols_from_correlations(data, entrants[rows, :m_bar], corr[rows])
    return b


def _terminal_b_bars(data: StandardizedData, paths: list[LarPath], m_bars) -> Matrix:
    """Terminal refit b_bar of each path (rows), on its first m_bar entrants."""
    entrants = np.zeros((len(paths), data.p), dtype=np.int64)
    corr = np.zeros((len(paths), data.p))
    for i, (path, m_bar) in enumerate(zip(paths, m_bars)):
        if m_bar:
            entrants[i, :m_bar] = path.entrants[:m_bar]
            corr[i] = path.start_correlations
    return _refits(data, entrants, corr, m_bars)


@dataclass(frozen=True)
class TerminalCoefficients:
    b_bar: Vector  # p-vector supported on the estimated active set
    raw_scale: Vector  # back-mapped coefficients in original units


def _terminal(data: StandardizedData, b_bar: Vector) -> TerminalCoefficients:
    return TerminalCoefficients(b_bar, b_bar * data.response_scale / data.column_scales)


def terminal_coefficients(
    data: StandardizedData, path: LarPath, m_bar: int
) -> TerminalCoefficients:
    """Least-squares refit of the path's response on its first m_bar entrants."""
    return _terminal(data, _terminal_b_bars(data, [path], [m_bar])[0])


@dataclass(frozen=True)
class IntervalSet:
    correlation_intervals: Matrix  # p x 2, rows (lo, hi) for each step
    coefficient_intervals: dict[tuple[int, int], tuple[float, float]]
    membership_freq: Matrix  # p x p, rows variables, columns steps
    m_bar: int
    alpha: float
    draws: int
    terminal: TerminalCoefficients  # least-squares refit on the first m_bar entrants


@dataclass(frozen=True)
class EngineFit:
    """The set-up of one engine that depends on its response; ``_engine_fits``
    computes it for several responses at once."""

    pool: Vector  # centered, scaled full-fit residuals to resample from
    sigma: float
    b_bar: Vector  # terminal refit on the first m_bar entrants
    b_center: Vector  # coefficients of the resampling center mu = X b_center
    start: Vector  # X'mu


def _engine_fits(
    data: StandardizedData, Y: Matrix, paths: list[LarPath], m_bars, naive: bool
) -> list[EngineFit]:
    """``EngineFit`` of each response row of Y (on the scale of ``data.y``),
    with its sample path and m_bar; each quantity is computed for all rows at
    once."""
    sigmas = sigma_hat(data, Y * data.response_scale)
    fits = full_fit(data, Y)
    pools = _residual_pools(data, Y, fits)
    b_bars = _terminal_b_bars(data, paths, m_bars)
    # full least-squares resampling center when naive: its path
    # correlations equal the sample ones at every step, so the replica
    # statistics are centered at the full correlation sequence.
    # Demonstrates the failure mode for steps beyond the true
    # termination point.
    b_centers = fits if naive else b_bars
    starts = (data.gram @ b_centers.T).T
    return [
        EngineFit(*row) for row in zip(pools, sigmas.tolist(), b_bars, b_centers, starts)
    ]


class BootstrapEngine:
    """Precomputed state for drawing replicas of one fitted sample path.

    ``fit`` is the engine's set-up from ``_engine_fits`` (with the same
    ``naive``), which ``interval_sets`` computes for several responses at
    once; by default the engine computes the set-up of ``data.y``.
    """

    def __init__(
        self,
        data: StandardizedData,
        path: LarPath,
        m_bar: int,
        naive: bool = False,
        fit: EngineFit | None = None,
    ):
        if fit is None:
            (fit,) = _engine_fits(data, data.y[None], [path], [m_bar], naive)
        self.data, self.path, self.m_bar = data, path, m_bar
        self.pool, self.sigma = fit.pool, fit.sigma
        self.terminal = _terminal(data, fit.b_bar)
        self.b_center, self.start = fit.b_center, fit.start
        self.centers = np.zeros(data.p)
        if naive:
            self.centers[: path.terminated_at] = path.correlations
        else:
            self.centers[:m_bar] = path.correlations[:m_bar]
        # sample-side coefficient rows with the terminal step re-fit
        self.sample_coefs = path.coefficients[:m_bar].copy()
        if m_bar:
            self.sample_coefs[m_bar - 1] = fit.b_bar
        self.cells = [(k, j) for k in range(1, m_bar + 1) for j in path.entrants[:k]]
        self._ks = np.array([k - 1 for k, _ in self.cells], dtype=np.int64)
        self._js = np.array([j for _, j in self.cells], dtype=np.int64)

    def collect(self, cfg: BootstrapConfig) -> tuple[Matrix, Matrix, Matrix]:
        """(studentized T*, studentized B* per cell, entry step per variable),
        one row per replica."""
        return next(_collect([self], [cfg]))

    def _b_star(self, coef_rows: NDArray[np.float64], sigma_star: Vector) -> Matrix:
        """Studentized B* per cell from replica coefficient rows (B x steps x p)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            b_star = (
                math.sqrt(self.data.n)
                * (coef_rows[:, self._ks, self._js] - self.sample_coefs[self._ks, self._js])
                / sigma_star[:, None]
            )
        b_star[~(sigma_star > 0.0)] = 0.0
        return b_star

    def intervals(
        self, cfg: BootstrapConfig, t_star: Matrix, b_star: Matrix, entries: Matrix
    ) -> IntervalSet:
        """Interval set from this engine's replica statistics (see ``collect``)."""
        path, n = self.path, self.data.n
        t_lo, t_hi = _quantile_rows(t_star[:, : path.terminated_at], cfg.alpha)
        # inverts the pivot: the replica statistic carries the square-root
        # increment in its numerator, so the interval scale divides by it
        q_hat = (
            path.signs * self.sigma
            / (np.sqrt(path.inv_angle_sq_increments) * math.sqrt(n))
        )
        c_hat = path.correlations
        ends = (c_hat - t_hi * q_hat, c_hat - t_lo * q_hat)
        corr = np.column_stack(
            [np.maximum(0.0, np.minimum(*ends)), np.maximum(*ends)]
        )

        b_lo, b_hi = _quantile_rows(b_star, cfg.alpha)
        scale = self.sigma / math.sqrt(n)
        center = self.sample_coefs[self._ks, self._js]
        coef = dict(zip(self.cells, zip(
            (center - b_hi * scale).tolist(), (center - b_lo * scale).tolist()
        )))
        membership = membership_curves(entries, self.data.p)
        return IntervalSet(
            corr, coef, membership, self.m_bar, cfg.alpha, cfg.draws, self.terminal
        )


def _collect(
    engines: list[BootstrapEngine], cfgs: list[BootstrapConfig]
) -> Iterator[tuple[Matrix, Matrix, Matrix]]:
    """``collect`` of each engine in turn, with the draws of its config.

    The replicas of all engines, in engine order, run in chunks of
    ``chunk_rows(8 p^2, draws)`` rows (draws of the largest config), one
    ``lar_batch`` call per chunk, so a chunk may hold the replicas of several
    engines and an engine's replicas may span chunks.  An engine's statistics
    are yielded when its last chunk is done; a chunk's work arrays are freed
    before the next chunk starts.
    """
    draws = [cfg.draws for cfg in cfgs]
    chunk = chunk_rows(8 * engines[0].data.p ** 2, max(draws))
    ends = np.cumsum(draws)
    owner = np.repeat(np.arange(len(engines)), draws)
    index = np.concatenate([np.arange(d) for d in draws])
    seeds = [cfg.seed for cfg in cfgs]
    parts: list[tuple[Matrix, Matrix, Matrix]] = []
    for start in range(0, owner.size, chunk):
        stop = min(start + chunk, owner.size)
        t_star, coef_rows, sigma_star, entries = _replicas(
            engines, seeds, owner[start:stop], index[start:stop]
        )
        for e in range(owner[start], owner[stop - 1] + 1):
            rows = slice(max(start, ends[e] - draws[e]) - start, min(stop, ends[e]) - start)
            parts.append((
                t_star[rows].copy(),
                engines[e]._b_star(coef_rows[rows], sigma_star[rows]),
                entries[rows].copy(),
            ))
            if ends[e] <= stop:
                yield tuple(np.concatenate(arrays) for arrays in zip(*parts))
                parts = []
        del t_star, coef_rows, sigma_star, entries


def _replicas(
    engines: list[BootstrapEngine], seeds: list[int], owner: NDArray[np.int64],
    index: NDArray[np.int64],
) -> tuple[Matrix, NDArray[np.float64], Vector, Matrix]:
    """Replica ``index[i]`` of engine ``owner[i]``, one row each: (studentized
    T*, coefficient rows with the terminal step re-fit, residual scale sigma*,
    entry step per variable)."""
    data = engines[0].data
    n, p = data.n, data.p
    rows = owner.size
    xte = np.empty((rows, p))
    ee = np.empty(rows)
    for i, (e, b) in enumerate(zip(owner.tolist(), index.tolist())):
        eps = engines[e].pool[replica_rng(seeds[e], b).integers(0, n, n)]
        xte[i] = data.X.T @ eps
        ee[i] = eps @ eps
    sigma_star = _residual_scale(data, xte, ee)
    start_corr = np.array([engine.start for engine in engines])[owner] + xte
    m_bars = np.array([engine.m_bar for engine in engines])[owner]
    batch = lar_batch(
        start_corr, data.gram, zero_tol=0.0, coef_steps=int(m_bars.max()),
        row_name=lambda i: f"bootstrap replica {index[i]}",
    )
    done = np.arange(p) < batch.terminated_at[:, None]
    ok = sigma_star > 0.0
    signs = np.where(done, batch.signs, 1.0)
    centers = np.array([engine.centers for engine in engines])[owner]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = (
            signs * np.sqrt(batch.inv_angle_sq_increments) * math.sqrt(n)
            * (batch.correlations - centers) / sigma_star[:, None]
        )
    t_star[~ok] = 0.0

    coef_rows = batch.coefficients
    refit = np.where(ok & (batch.terminated_at >= m_bars), m_bars, 0)
    rows_refit = np.flatnonzero(refit)
    coef_rows[rows_refit, refit[rows_refit] - 1] = _refits(
        data, batch.entrants, start_corr, refit
    )[rows_refit]

    entries = np.full((rows, p), p, dtype=np.float64)
    rows_done, steps = np.nonzero(done)
    entries[rows_done, batch.entrants[rows_done, steps]] = steps + 1
    return t_star, coef_rows, sigma_star, entries


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
    return engine.intervals(cfg, *engine.collect(cfg))


def interval_sets(
    data: StandardizedData,
    Y: Matrix,
    paths: list[LarPath],
    m_bars,
    cfgs: list[BootstrapConfig],
    naive: bool = False,
) -> Iterator[IntervalSet]:
    """``bootstrap_intervals`` of each response row of Y (on the scale of
    ``data.y``) with its sample path, m_bar and config, yielded in order.

    The engines are set up together on the call, and their replicas run in
    shared chunks as the sets are drawn, so a study of many responses makes a
    few engine calls instead of one per response; each replica still draws
    from ``replica_rng(cfg.seed, b)``.
    """
    fits = _engine_fits(data, Y, paths, m_bars, naive)
    engines = [
        BootstrapEngine(data, path, int(m_bar), naive, fit)
        for path, m_bar, fit in zip(paths, m_bars, fits)
    ]
    return (
        engine.intervals(cfg, *stats)
        for engine, cfg, stats in zip(engines, cfgs, _collect(engines, cfgs))
    )


def membership_curves(entry_steps: Matrix, p: int) -> Matrix:
    """Cumulative entry frequencies: rows variables, columns steps 1..p."""
    entries = np.atleast_2d(np.asarray(entry_steps, dtype=np.float64))
    if entries.shape[0] < 1:
        raise ValueError("need at least one replica")
    steps = np.arange(1, p + 1)
    return (entries[:, :, None] <= steps[None, None, :]).mean(axis=0)
