"""Scenario generation, coverage studies, and the mid-path tie demonstration.

Scenario designs are drawn from an AR(1)-correlated Gaussian model and
accepted only when the population path admits exactly one variable per step
for m steps and clears the requested margin; replications then add fresh
standard-normal noise and run the full inference pipeline.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from numpy.typing import NDArray

from .bootstrap import BootstrapConfig, IntervalSet, chunk_rows, interval_sets
from .exceptions import DegenerateResponse, RejectionBudgetExceeded
from .inference import build_inference_report
from .linalg import solve_spd
from .path import LarPath, StandardizedData, lar_batch, lar_path, margins, standardize

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
            if not -math.inf < value < math.inf:
                raise ValueError(f"{name} must be finite, got {value!r}")
        BootstrapConfig(draws=self.boot_draws, alpha=self.alpha)
        if not (1 <= self.m <= self.p < self.n):
            raise ValueError(f"need m <= p < n, got m={self.m}, p={self.p}, n={self.n}")
        if self.reps < 1:
            raise ValueError(f"reps must be at least 1, got {self.reps}")
        if self.delta0 <= 0.0:
            raise ValueError(f"delta0 must be positive, got {self.delta0}")
        if self.beta_range <= 0.0:
            raise ValueError(f"beta_range must be positive, got {self.beta_range}")
        # the norm of the mean sums n squares of entries up to
        # p |x|max beta_range, so n (p |x|max beta_range)^2 must stay finite
        # for any design that fits in memory
        if self.beta_range > 1e100:
            raise ValueError(f"beta_range must be at most 1e100, got {self.beta_range}")
        if self.rejection_cap < 1:
            raise ValueError(f"rejection_cap must be at least 1, got {self.rejection_cap}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not abs(self.rho) < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")


def ar1_covariance(p: int, rho: float) -> Matrix:
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def generate_scenario(
    spec: ScenarioSpec, rng: np.random.Generator
) -> tuple[StandardizedData, LarPath]:
    """Rejection-sample a design and mean satisfying the margin constraint.

    Returns the standardized design, whose response ``y`` is the mean, and
    the mean's population path.
    """
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
        pop_path = lar_path(data.X.T @ data.y, data.gram, zero_tol=1e-10)
        if pop_path.tie_steps or pop_path.terminated_at != spec.m:
            continue
        if margins(pop_path) >= spec.delta0:
            return data, pop_path
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
    spec: ScenarioSpec, progress: Callable[[int, int], None] | None = None
) -> CoverageResult:
    """Coverage study of the modified bootstrap over fresh-noise replications
    of one accepted scenario; ``progress(done, total)`` follows the
    replications."""
    if 8 * spec.reps > sys.maxsize:  # replications past what numpy can size
        raise MemoryError
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    data, pop = generate_scenario(spec, rng)
    p, m = spec.p, spec.m
    target_C = np.zeros(p)
    target_C[:m] = pop.correlations
    # population step coefficients; constant at the terminal value beyond m
    target_b = np.vstack([pop.coefficients, np.tile(pop.coefficients[-1], (p - m, 1))])

    corr_cov: list[float] = []
    coef_cov: list[float] = []
    term_cov: list[float] = []
    zero_cov: list[float] = []
    m_bars: list[int] = []
    for i, (m_bar, iv) in enumerate(_replications(spec, data)):
        m_bars.append(m_bar)
        if iv is not None:
            lo, hi = iv.correlation_intervals.T
            hits = (lo <= target_C) & (target_C <= hi)  # target_C is 0 past step m
            corr_cov.append(float(np.mean(hits[:m_bar])))
            ks, js = np.array(list(iv.coefficient_intervals)).T
            lo, hi = np.array(list(iv.coefficient_intervals.values())).T
            at, end = target_b[ks - 1, js], target_b[m - 1, js]
            coef_cov.append(float(np.mean((lo <= at) & (at <= hi))))
            term_cov.append(float(np.mean(((lo <= end) & (end <= hi))[ks == m_bar])))
            if m < p:
                zero_cov.append(float(np.mean(hits[m:])))
        if progress is not None:
            progress(i + 1, spec.reps)

    corr, coef, term, zero = (float(np.mean(xs)) if xs else math.nan
                              for xs in (corr_cov, coef_cov, term_cov, zero_cov))
    return CoverageResult(corr, coef, m_bars.count(m) / spec.reps, term, zero,
                          len(m_bars) - m_bars.count(0))


def _replications(
    spec: ScenarioSpec, data: StandardizedData
) -> Iterator[tuple[int, IntervalSet | None]]:
    """(m_bar, bootstrap intervals) of each replication in order; the
    intervals are None where m_bar is 0.

    The replications run in blocks of ``chunk_rows(8 (n + 4 p^2))`` rows, a
    budget of a response row and four p x p arrays per replication, of which
    its path uses three: the responses of a block, each drawn from its
    replication's own noise stream, are one stack and run as one path batch
    (with no traces) and one call of the stopping rule, whose sigma-hats the
    bootstrap set-up reuses; the bootstrap replicas of the block come from one
    ``interval_sets`` stream, which runs a few replications per engine call.
    A block's stack is freed before its replicas run, and its bootstrap
    set-up before the next block starts.
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

        def name(r: int) -> str:
            return f"replication {reps[r]}"

        # numpy's own loops, not BLAS, whose bits depend on its thread count
        paths = lar_batch(np.einsum("rn,nj->rj", Y, data.X), data.gram, row_name=name)
        # a path stops early only when the noise is lost to the rounding of the mean
        report = build_inference_report(data, paths, Y, name)
        boot = np.flatnonzero(report.m_bar > 0)
        cfgs = [
            BootstrapConfig(draws=spec.boot_draws, alpha=spec.alpha, seed=int(
                np.random.SeedSequence([spec.seed, 2, reps[i]]).generate_state(1)[0]))
            for i in boot
        ]
        sets = interval_sets(data, Y[boot], [paths.path(i) for i in boot],
                             report.m_bar[boot], report.sigma_hat[boot], cfgs)
        m_bars = report.m_bar.tolist()
        del Y, paths, report
        for m_bar in m_bars:
            yield m_bar, (next(sets) if m_bar > 0 else None)
        # the drained stream still holds the block's bootstrap set-up
        del sets


def tie_demo(
    n: int, reps: int, rng: np.random.Generator
) -> tuple[Matrix, NDArray[np.int64], LarPath]:
    """Construction with a deliberate population tie at step 2.

    The mean points along the first column plus the equiangular vector of
    the first three columns of a strongly AR(1)-correlated design, so the
    second and third variables tie for entry at population step 2.  Noisy
    draws resolve the tie either way, splitting the later step correlations
    into two clusters.  Returns the sample step correlations (reps x 4), the
    step-2 entrant of each draw and the population path.
    """
    p = 4
    if 8 * max(p, reps) * n > sys.maxsize:  # past what numpy can size
        raise MemoryError
    chol = np.linalg.cholesky(ar1_covariance(p, 0.9))
    X_n = rng.standard_normal((n, p)) @ chol.T
    data = standardize(X_n, np.ones(n), center=False)
    X = data.X
    # equiangular vector of the first three columns, from their Gram block
    u = solve_spd(data.gram[:3, :3], np.ones(3))
    mu = X[:, 0] + (X[:, :3] @ u) / math.sqrt(float(np.sum(u)))
    pop = lar_path(X.T @ mu, data.gram, zero_tol=1e-10)
    # one (reps, n) block holds the same numbers as reps draws of n in turn
    Y = mu + rng.standard_normal((reps, n)) / math.sqrt(n)
    # numpy's own loops, not BLAS, whose bits depend on its thread count
    start = np.einsum("rn,jn->rj", Y, np.ascontiguousarray(X.T))
    paths = lar_batch(start, data.gram, coef_steps=0,
                      row_name=lambda r: f"draw {r}")
    return paths.correlations, paths.entrants[:, 1], pop
