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
one call of the batch path engine ``lar_batch`` per chunk.  The engine's
full step at m_bar is the least-squares refit on the first m_bar entrants,
for the sample path and for each replica.  Each replica draws from its own
substream, so the draws do not depend on the chunking.  The responses on
one design (the replications of a coverage study, or the one response of
``infer``) are set up together as one ``BootstrapSetup``, a record of arrays
with a row per response, and their replicas share chunks.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.typing import NDArray

from .inference import full_fit, sigma_hat
from .path import LarPath, StandardizedData, lar_batch

Vector = NDArray[np.float64]
Matrix = NDArray[np.float64]

# An engine call holds at most CHUNK_BYTES of per-row work arrays, which
# bounds the memory of wide designs; a replica row counts its p x p inverse
# factor (8 p^2 bytes), whose B x p companions add a few times as much
# again.  A call holds CHUNK_ROWS rows, about a hundred of which amortize an
# engine call's per-step overhead, or a bootstrap's draws if that is more, up
# to 2 CHUNK_ROWS.  So a bootstrap's working set does not grow with its draws
# beyond the statistics it keeps: infer on diabetes (p = 10) with 20 000
# draws peaked at 110 MiB as one call and peaks at 43 MiB in calls of 256,
# at the same speed within 5%.  Calls of CHUNK_ROWS alone made that bootstrap
# about 10% slower and a 50 x 200 coverage study at p = 20 about 14% slower.
CHUNK_BYTES = 32 * 2**20
CHUNK_ROWS = 128


def chunk_rows(row_bytes: int, floor: int = 0) -> int:
    """Rows per engine call: CHUNK_ROWS, or ``floor`` if that is more up to
    2 CHUNK_ROWS, but at most CHUNK_BYTES worth of rows of ``row_bytes`` each
    (and at least one)."""
    return max(1, min(CHUNK_BYTES // row_bytes,
                      max(CHUNK_ROWS, min(floor, 2 * CHUNK_ROWS))))


@dataclass(frozen=True)
class BootstrapConfig:
    """Bootstrap draw count, interval level and seed."""

    draws: int = 500
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("draws", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.draws < 2.0 / self.alpha:
            raise ValueError(
                f"draws = {self.draws} too small to estimate alpha = {self.alpha} quantiles"
            )


def replica_rng(seed: int, index: int) -> np.random.Generator:
    """One replica's own PCG64 stream, seeded by ``SeedSequence([seed, index])``;
    independent of scheduling."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def _quantile_rows(stats: Matrix, alpha: float) -> tuple[Vector, Vector]:
    """Nearest-rank (type-1) empirical alpha/2 and 1 - alpha/2 quantiles of
    each column (a replica multiset), from one sort over the replica axis.

    Sorts ``stats`` in place: its columns come back ordered."""
    stats.sort(axis=0)
    draws = stats.shape[0]
    lo, hi = (
        min(draws, max(1, math.ceil(draws * level))) - 1
        for level in (alpha / 2.0, 1.0 - alpha / 2.0)
    )
    return stats[lo], stats[hi]


def _residual_pools(data: StandardizedData, Y: Matrix, fits: Matrix) -> Matrix:
    """Centered, scaled residuals of each response row of Y from its full fit."""
    resid = Y - (data.X @ fits.T).T
    resid -= resid.mean(axis=1, keepdims=True)
    resid /= math.sqrt(data.n / (data.n - data.p))
    return resid


def _residual_scale(data: StandardizedData, xte: Matrix, ee: Vector) -> Vector:
    """sqrt(n |e - Pe|^2 / (n - p)) per row, from X'e (B x p) and |e|^2.

    |Pe|^2 = |R^-T X'e|^2 with R the factor of X'X; a difference that
    rounding pushes below zero counts as zero.
    """
    z = np.linalg.solve(data.gram_factor.T, xte.T)
    rss = np.maximum(ee - np.einsum("ij,ij->j", z, z), 0.0)
    return np.sqrt(data.n * rss / (data.n - data.p))


@dataclass(frozen=True)
class IntervalSet:
    correlation_intervals: Matrix  # p x 2, rows (lo, hi) for each step
    coefficient_intervals: dict[tuple[int, int], tuple[float, float]]
    membership_freq: Matrix  # p x p, rows variables, columns steps
    # least-squares refit on the first m_bar entrants, a p-vector supported on
    # them, and the same coefficients in the original units
    b_bar: Vector
    raw_b_bar: Vector


@dataclass(frozen=True)
class BootstrapSetup:
    """What the replicas of R responses on one design resample from: each
    array has one row per response, in the order of ``paths``."""

    data: StandardizedData
    paths: list[LarPath]  # the sample path of each response
    pools: Matrix  # R x n centered, scaled full-fit residuals to resample from
    sigmas: Vector  # R residual-scale estimates sigma-hat of the full fits
    b_bars: Matrix  # R x p terminal refits on the first m_bar entrants
    starts: Matrix  # R x p X'mu of the resampling center mu = X b_bar
    centers: Matrix  # R x p correlations the replica statistics are centered at
    m_bars: NDArray[np.int64]


def bootstrap_setup(
    data: StandardizedData, Y: Matrix, paths: list[LarPath], m_bars, sigmas
) -> BootstrapSetup:
    """Set-up of each response row of Y (on the scale of ``data.y``) with its
    sample path, m_bar and sigma-hat; each quantity is found for all rows at once."""
    m_bars = np.asarray(m_bars, dtype=np.int64)
    b_bars = np.zeros((len(paths), data.p))
    centers = np.zeros((len(paths), data.p))
    for r, (path, m_bar) in enumerate(zip(paths, m_bars.tolist())):
        if m_bar:
            b_bars[r] = path.refits[m_bar - 1]
        centers[r, :m_bar] = path.correlations[:m_bar]
    return BootstrapSetup(
        data, paths, _residual_pools(data, Y, full_fit(data, Y)),
        np.asarray(sigmas, dtype=np.float64), b_bars, (data.gram @ b_bars.T).T,
        centers, m_bars,
    )


def _cells(
    setup: BootstrapSetup, r: int
) -> tuple[list[tuple[int, int]], NDArray[np.int64], NDArray[np.int64], Vector]:
    """Coefficient cells (k, j) of response r, j active at step k <= m_bar,
    with their step rows k - 1, their variables j and their sample
    coefficients (the terminal step re-fit)."""
    path, m_bar = setup.paths[r], int(setup.m_bars[r])
    cells = [(k, j) for k in range(1, m_bar + 1) for j in path.entrants[:k]]
    ks = np.array([k - 1 for k, _ in cells], dtype=np.int64)
    js = np.array([j for _, j in cells], dtype=np.int64)
    coefs = np.where(ks == m_bar - 1, setup.b_bars[r, js], path.coefficients[ks, js])
    return cells, ks, js, coefs


def _b_star(setup: BootstrapSetup, r: int, coef_rows: NDArray[np.float64],
            sigma_star: Vector) -> Matrix:
    """Studentized B* per cell of response r from its replicas' coefficient
    rows (B x steps x p)."""
    _, ks, js, coefs = _cells(setup, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        b_star = math.sqrt(setup.data.n) * (coef_rows[:, ks, js] - coefs) / sigma_star[:, None]
    b_star[~(sigma_star > 0.0)] = 0.0
    return b_star


def _intervals(setup: BootstrapSetup, r: int, cfg: BootstrapConfig, t_star: Matrix,
               b_star: Matrix, entries: Matrix) -> IntervalSet:
    """Interval set of response r from its replica statistics (see ``_collect``)."""
    data, path, sigma = setup.data, setup.paths[r], float(setup.sigmas[r])
    t_lo, t_hi = _quantile_rows(t_star[:, : path.terminated_at], cfg.alpha)
    # inverts the pivot: the replica statistic carries the square-root
    # increment in its numerator, so the interval scale divides by it
    q_hat = path.signs * sigma / (np.sqrt(path.inv_angle_sq_increments) * math.sqrt(data.n))
    c_hat = path.correlations
    ends = (c_hat - t_hi * q_hat, c_hat - t_lo * q_hat)
    # a correlation is not negative: both ends are clamped at 0, so ends
    # that are both negative give [0, 0], not an inverted interval
    corr = np.maximum(0.0, np.column_stack([np.minimum(*ends), np.maximum(*ends)]))

    cells, _, _, center = _cells(setup, r)
    b_lo, b_hi = _quantile_rows(b_star, cfg.alpha)
    scale = sigma / math.sqrt(data.n)
    coef = dict(zip(cells, zip(
        (center - b_hi * scale).tolist(), (center - b_lo * scale).tolist()
    )))
    b_bar = setup.b_bars[r]
    return IntervalSet(corr, coef, membership_curves(entries, data.p),
                       b_bar, b_bar * data.response_scale / data.column_scales)


def _collect(
    setup: BootstrapSetup, cfgs: list[BootstrapConfig]
) -> Iterator[tuple[Matrix, Matrix, Matrix]]:
    """(studentized T*, studentized B* per cell, entry step per variable) of
    each response in turn, one row per replica, with the draws of its config.

    The replicas of all responses, in order, run in chunks of
    ``chunk_rows(8 p^2, draws)`` rows (draws of the largest config), one
    ``lar_batch`` call per chunk, so a chunk may hold the replicas of several
    responses and a response's replicas may span chunks.  A response's
    statistics are allocated when its first chunk arrives, filled chunk by
    chunk and yielded when its last chunk is done; a chunk's work arrays are
    freed before the next chunk starts.
    """
    draws = [cfg.draws for cfg in cfgs]
    if 8 * sum(draws) > sys.maxsize:  # replica indices past what numpy can size
        raise MemoryError
    p = setup.data.p
    chunk = chunk_rows(8 * p ** 2, max(draws))
    ends = np.cumsum(draws)
    owner = np.repeat(np.arange(len(cfgs)), draws)
    index = np.concatenate([np.arange(d) for d in draws])
    seeds = [cfg.seed for cfg in cfgs]
    for start in range(0, owner.size, chunk):
        stop = min(start + chunk, owner.size)
        t_star, coef_rows, sigma_star, entries = _replicas(
            setup, seeds, owner[start:stop], index[start:stop]
        )
        for r in range(owner[start], owner[stop - 1] + 1):
            first = ends[r] - draws[r]
            lo, hi = max(start, first), min(stop, ends[r])
            rows, at = slice(lo - start, hi - start), slice(lo - first, hi - first)
            b_star = _b_star(setup, r, coef_rows[rows], sigma_star[rows])
            if first >= start:
                stats = tuple(np.empty((draws[r], cols)) for cols in (p, b_star.shape[1], p))
            stats[0][at], stats[1][at], stats[2][at] = t_star[rows], b_star, entries[rows]
            if ends[r] <= stop:
                yield stats
        del t_star, coef_rows, sigma_star, entries, b_star


def _replicas(
    setup: BootstrapSetup, seeds: list[int], owner: NDArray[np.int64],
    index: NDArray[np.int64],
) -> tuple[Matrix, NDArray[np.float64], Vector, Matrix]:
    """Replica ``index[i]`` of response ``owner[i]``, one row each: (studentized
    T*, coefficient rows with the terminal step re-fit, residual scale sigma*,
    entry step per variable)."""
    data = setup.data
    n, p = data.n, data.p
    rows = owner.size
    xte = np.empty((rows, p))
    ee = np.empty(rows)
    for i, (r, b) in enumerate(zip(owner.tolist(), index.tolist())):
        eps = setup.pools[r][replica_rng(seeds[r], b).integers(0, n, n)]
        xte[i] = data.X.T @ eps
        ee[i] = eps @ eps
    sigma_star = _residual_scale(data, xte, ee)
    m_bars = setup.m_bars[owner]
    batch = lar_batch(
        setup.starts[owner] + xte, data.gram, zero_tol=0.0, coef_steps=int(m_bars.max()),
        row_name=lambda i: f"bootstrap replica {index[i]}",
    )
    done = np.arange(p) < batch.terminated_at[:, None]
    signs = np.where(done, batch.signs, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = (
            signs * np.sqrt(batch.inv_angle_sq_increments) * math.sqrt(n)
            * (batch.correlations - setup.centers[owner]) / sigma_star[:, None]
        )
    t_star[~(sigma_star > 0.0)] = 0.0

    # the terminal step is the least-squares refit; a row that stopped before
    # it has a zero refit, as it has zero coefficients
    coef_rows = batch.coefficients
    rows_refit = np.flatnonzero(m_bars)
    terminal = m_bars[rows_refit] - 1
    coef_rows[rows_refit, terminal] = batch.refits[rows_refit, terminal]

    entries = np.full((rows, p), p, dtype=np.float64)
    rows_done, steps = np.nonzero(done)
    entries[rows_done, batch.entrants[rows_done, steps]] = steps + 1
    return t_star, coef_rows, sigma_star, entries


def bootstrap_intervals(
    data: StandardizedData,
    path: LarPath,
    m_bar: int,
    cfg: BootstrapConfig,
) -> IntervalSet:
    """Confidence intervals for step correlations and step coefficients.

    Correlation intervals cover all p steps (centers beyond the estimated
    termination step are zero); coefficient intervals cover the triangular
    cell set {(k, j): j active at step k, k <= m_bar} with the terminal step
    re-fit by least squares.  Both endpoints of correlation intervals are
    clamped at zero, so an interval whose ends are both negative is [0, 0].
    """
    sigma = sigma_hat(data, data.y[None] * data.response_scale)
    return next(interval_sets(data, data.y[None], [path], [m_bar], sigma, [cfg]))


def interval_sets(
    data: StandardizedData,
    Y: Matrix,
    paths: list[LarPath],
    m_bars,
    sigmas,
    cfgs: list[BootstrapConfig],
) -> Iterator[IntervalSet]:
    """``bootstrap_intervals`` of each response row of Y (on the scale of
    ``data.y``) with its sample path, m_bar, sigma-hat and config, in order.

    The responses are set up together on the call, and their replicas run in
    shared chunks as the sets are drawn, so a study of many responses makes a
    few engine calls instead of one per response; each replica still draws
    from ``replica_rng(cfg.seed, b)``.
    """
    setup = bootstrap_setup(data, Y, paths, m_bars, sigmas)
    return (
        _intervals(setup, r, cfg, *stats)
        for r, (cfg, stats) in enumerate(zip(cfgs, _collect(setup, cfgs)))
    )


def membership_curves(entry_steps: Matrix, p: int) -> Matrix:
    """Cumulative entry frequencies: rows variables, columns steps 1..p.

    Filled a step at a time, so no replicas x variables x p temporary is made.
    """
    entries = np.atleast_2d(np.asarray(entry_steps, dtype=np.float64))
    if entries.shape[0] < 1:
        raise ValueError("need at least one replica")
    curves = np.empty((entries.shape[1], p))
    for k in range(p):
        curves[:, k] = (entries <= k + 1).mean(axis=0)
    return curves
