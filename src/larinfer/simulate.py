"""Scenario generation, coverage studies, and the mid-path tie demonstration.

Scenario designs are drawn from an AR(1)-correlated Gaussian model and
accepted only when the population path admits exactly one variable per step
for m steps and clears the requested margin; replications then add fresh
standard-normal noise and run the full inference pipeline.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from numpy.typing import NDArray

from .bootstrap import BootstrapConfig, IntervalSet, chunk_rows, interval_sets
from .exceptions import DegenerateResponse, NotPrototypical, RejectionBudgetExceeded
from .inference import chi2_thresholds, estimate_m, sigma_hat, tail_sums
from .linalg import solve_spd
from .path import LarPath, StandardizedData, lar_batch, lar_path, margins, standardize

Vector = NDArray[np.float64]
Matrix = NDArray[np.float64]


@dataclass(frozen=True)
class ScenarioSpec:
    n: int
    p: int
    m: int
    delta0: float
    rho: float = 0.5
    beta_range: float = 2.0
    reps: int = 200
    boot_draws: int = 200
    seed: int = 0
    alpha: float = 0.05
    rejection_cap: int = 10_000
    threads: int = 1  # deprecated, ignored; kept so old scenario files load

    def __post_init__(self):
        for name in ("n", "p", "m", "reps", "boot_draws", "seed", "rejection_cap"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("delta0", "rho", "beta_range", "alpha"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        BootstrapConfig(draws=self.boot_draws, alpha=self.alpha)
        if not (1 <= self.m <= self.p < self.n):
            raise ValueError(f"need m <= p < n, got m={self.m}, p={self.p}, n={self.n}")
        if self.delta0 <= 0.0:
            raise ValueError(f"delta0 must be positive, got {self.delta0}")


def ar1_covariance(p: int, rho: float) -> Matrix:
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


@dataclass(frozen=True)
class ScenarioDraw:
    data: StandardizedData
    mu: Vector  # population response on the standardized scale
    beta: Vector  # raw-design coefficients that generated the mean
    pop_path: LarPath
    delta: float


def generate_scenario(spec: ScenarioSpec, rng: np.random.Generator) -> ScenarioDraw:
    """Rejection-sample a design and mean satisfying the margin constraint."""
    chol = np.linalg.cholesky(ar1_covariance(spec.p, spec.rho))
    for _ in range(spec.rejection_cap):
        X_n = rng.standard_normal((spec.n, spec.p)) @ chol.T
        support = rng.choice(spec.p, spec.m, replace=False)
        beta = np.zeros(spec.p)
        beta[support] = rng.uniform(-spec.beta_range, spec.beta_range, spec.m)
        mu_n = X_n @ beta
        try:
            data = standardize(X_n, mu_n, center=True)
        except DegenerateResponse:
            continue
        mu = data.y
        pop_path = lar_path(data, mu, zero_tol=1e-10, kind="population")
        if pop_path.tie_steps or pop_path.terminated_at != spec.m:
            continue
        try:
            report = margins(pop_path)
        except NotPrototypical:
            continue
        if report.delta >= spec.delta0:
            return ScenarioDraw(data, mu, beta, pop_path, report.delta)
    raise RejectionBudgetExceeded(
        f"no acceptable design within {spec.rejection_cap} attempts"
    )


@dataclass(frozen=True)
class CoverageResult:
    corr_coverage: float
    coef_coverage: float
    m_correct: float
    terminal_coverage: float
    zero_step_coverage: float  # coverage of the zero targets at steps k > m
    reps_evaluated: int


def run_coverage(
    spec: ScenarioSpec,
    naive: bool = False,
    progress: Callable[[int, int], None] | None = None,
) -> CoverageResult:
    """Coverage study over fresh-noise replications of one accepted scenario.

    ``naive`` recenters the bootstrap on the full least-squares fit instead
    of the truncated projection, demonstrating its failure on the zero
    targets beyond the true termination step.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    draw = generate_scenario(spec, rng)
    data, pop = draw.data, draw.pop_path
    n, p, m = spec.n, spec.p, spec.m
    thresholds = chi2_thresholds(p, n)
    target_C = np.zeros(p)
    target_C[:m] = pop.correlations
    # population step coefficients; constant at the terminal value beyond m
    target_b = np.vstack([pop.coefficients, np.tile(pop.coefficients[-1], (p - m, 1))])

    corr_cov: list[float] = []
    coef_cov: list[float] = []
    term_cov: list[float] = []
    zero_cov: list[float] = []
    m_bars: list[int] = []
    for i, (m_bar, iv) in enumerate(_replications(spec, data, thresholds, naive)):
        m_bars.append(m_bar)
        if iv is not None:
            corr = iv.correlation_intervals
            hits = [
                corr[k - 1, 0] <= target_C[k - 1] <= corr[k - 1, 1]
                for k in range(1, m_bar + 1)
            ]
            corr_cov.append(float(np.mean(hits)))
            cells = list(iv.coefficient_intervals.items())
            coef_hits = [
                lo <= target_b[k - 1, j] <= hi for (k, j), (lo, hi) in cells
            ]
            coef_cov.append(float(np.mean(coef_hits)))
            term_hits = [
                lo <= target_b[m - 1, j] <= hi
                for (k, j), (lo, hi) in cells
                if k == m_bar
            ]
            term_cov.append(float(np.mean(term_hits)))
            if m < p:
                zero_hits = [
                    corr[k - 1, 0] <= 0.0 <= corr[k - 1, 1] for k in range(m + 1, p + 1)
                ]
                zero_cov.append(float(np.mean(zero_hits)))
        if progress is not None:
            progress(i + 1, spec.reps)

    def _mean(xs: list[float]) -> float:
        return float(np.mean(xs)) if xs else math.nan

    return CoverageResult(
        _mean(corr_cov),
        _mean(coef_cov),
        m_bars.count(m) / spec.reps,
        _mean(term_cov),
        _mean(zero_cov),
        len(m_bars) - m_bars.count(0),
    )


def _replications(
    spec: ScenarioSpec, data: StandardizedData, thresholds: Vector, naive: bool
) -> Iterator[tuple[int, IntervalSet | None]]:
    """(m_bar, bootstrap intervals) of each replication in order; the
    intervals are None where m_bar is 0.

    The replications run in blocks of ``chunk_rows(8 (n + 4 p^2))`` rows,
    counting a response row and the batch's two traces, inverse factor and
    coefficients: the responses of a block, each drawn from its replication's
    own noise stream, are one stack and run as one path batch, and the
    bootstrap replicas of the block come from one ``interval_sets`` stream,
    which runs a few replications per engine call.  A block's stack is freed
    before its replicas run, and its engines before the next block starts.
    """
    n, p = data.n, data.p
    block = chunk_rows(8 * (n + 4 * p * p))
    for first in range(0, spec.reps, block):
        reps = range(first, min(first + block, spec.reps))
        Y = np.array([
            np.random.default_rng(np.random.SeedSequence([spec.seed, 1, i])).standard_normal(n)
            for i in reps
        ])
        # the standardized responses of the replications (scenario designs are centered)
        Y += data.y * data.response_scale
        Y -= Y.mean(axis=1, keepdims=True)
        Y /= data.response_scale
        paths = lar_batch(Y @ data.X, data.gram, traces=True,
                          row_name=lambda r: f"replication {reps[r]}")
        sigma = sigma_hat(data, Y * data.response_scale)
        _, S = tail_sums(paths, sigma[:, None], n)
        m_bars = estimate_m(S, thresholds)
        boot = np.flatnonzero(m_bars > 0)
        cfgs = [
            BootstrapConfig(draws=spec.boot_draws, alpha=spec.alpha, seed=int(
                np.random.SeedSequence([spec.seed, 2, reps[i]]).generate_state(1)[0]))
            for i in boot
        ]
        sets = interval_sets(
            data, Y[boot], [paths.path(i) for i in boot], m_bars[boot], cfgs, naive=naive
        )
        del Y, paths
        for m_bar in m_bars.tolist():
            yield m_bar, (next(sets) if m_bar > 0 else None)
        # the drained stream still holds the block's engines
        del sets


@dataclass(frozen=True)
class TieDemoResult:
    correlations: Matrix  # reps x 4 sample step correlations
    second_entrants: NDArray[np.int64]  # step-2 entrant per draw
    population_path: LarPath
    data: StandardizedData
    mu: Vector


def tie_demo(n: int, reps: int, rng: np.random.Generator) -> TieDemoResult:
    """Construction with a deliberate population tie at step 2.

    The mean points along the first column plus the equiangular vector of
    the first three columns of a strongly AR(1)-correlated design, so the
    second and third variables tie for entry at population step 2.  Noisy
    draws resolve the tie either way, splitting the later step correlations
    into two clusters.
    """
    p = 4
    chol = np.linalg.cholesky(ar1_covariance(p, 0.9))
    X_n = rng.standard_normal((n, p)) @ chol.T
    data = standardize(X_n, np.ones(n), center=False)
    X = data.X
    # equiangular vector of the first three columns, from their Gram block
    u = solve_spd(data.gram[:3, :3], np.ones(3))
    mu = X[:, 0] + (X[:, :3] @ u) / math.sqrt(float(np.sum(u)))
    pop = lar_path(data, mu, zero_tol=1e-10, kind="population")
    # one (reps, n) block holds the same numbers as reps draws of n in turn
    Y = mu + rng.standard_normal((reps, n)) / math.sqrt(n)
    paths = lar_batch(Y @ X, data.gram, coef_steps=0,
                      row_name=lambda r: f"draw {r}")
    return TieDemoResult(paths.correlations, paths.entrants[:, 1], pop, data, mu)
