"""Shared generators for randomized tests, the n-space reference path engine,
the per-replica reference bootstrap, and the per-replication reference
coverage study."""

import math

import numpy as np

from larinfer.bootstrap import (
    BootstrapConfig,
    BootstrapEngine,
    _ols_from_correlations,
    bootstrap_intervals,
    replica_rng,
)
from larinfer.exceptions import NoPositiveCandidate
from larinfer.identities import (
    ProjectionBasis,
    StepState,
    _advance_direction,
    append_innovation,
    full_column_basis,
    gamma_crossings,
    project,
)
from larinfer.inference import chi2_thresholds, estimate_m, sigma_hat, tail_sums
from larinfer.path import (
    TIE_TOL,
    LarPath,
    LarStep,
    StandardizedData,
    lar_path,
    standardize,
)
from larinfer.simulate import CoverageResult, ScenarioSpec, generate_scenario


def random_instance(
    rng: np.random.Generator,
    n: int | None = None,
    p: int | None = None,
    center: bool = False,
    signal: float = 0.5,
) -> StandardizedData:
    """Random standardized dataset with a mild linear signal."""
    n = n if n is not None else int(rng.integers(20, 80))
    p = p if p is not None else int(rng.integers(2, 8))
    X = rng.standard_normal((n, p))
    beta = rng.standard_normal(p)
    y = signal * (X @ beta) + rng.standard_normal(n)
    return standardize(X, y, center=center)


def orthonormal_design(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    return q


def population_instance(
    rng: np.random.Generator,
    n: int = 60,
    p: int = 6,
    m: int = 3,
) -> tuple[StandardizedData, np.ndarray]:
    """Standardized design plus a mean vector supported on m columns."""
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[rng.choice(p, m, replace=False)] = rng.uniform(0.5, 2.0, m) * rng.choice(
        [-1.0, 1.0], m
    )
    data = standardize(X, X @ beta, center=True)
    return data, data.y


def reference_lar_path_nspace(
    data: StandardizedData,
    response: np.ndarray,
    zero_tol: float = 0.0,
    kind: str = "sample",
) -> LarPath:
    """Test-only reference: the path engine as it ran in n-space.

    Recomputes the correlations from the n-length residual at every step and
    grows an n x k basis, as the library engine did before it moved to the
    p x p factor of X'X.  The differential tests compare the two.
    """
    X = data.X
    n, p = X.shape
    resp = np.asarray(response, dtype=np.float64)
    fit = np.zeros(n)
    basis = ProjectionBasis.empty(n)
    chol_r = np.zeros((0, 0))  # triangular factor with X_active = Q @ chol_r
    direction = np.zeros(n)  # a_{k-1} / A_{k-1}
    inv_a2 = 0.0
    active_mask = np.zeros(p, dtype=bool)
    order: list[int] = []
    b = np.zeros(p)
    steps: list[LarStep] = []
    coef_rows: list[np.ndarray] = []
    entrant: int | None = None
    tie = False
    c_first: float | None = None

    while not active_mask.all():
        c = X.T @ (resp - fit)
        C = float(np.max(np.abs(c)))
        threshold = zero_tol if c_first is None else zero_tol * c_first
        if C <= threshold:
            break
        if entrant is None:
            gap = C - np.abs(c)
            candidates = np.flatnonzero(gap <= TIE_TOL * (1.0 + C))
            entrant = int(candidates[0])
            tie = candidates.size > 1
        if c_first is None:
            c_first = C
        j = entrant
        s = 1.0 if c[j] >= 0.0 else -1.0
        xj = X[:, j]
        head = basis.vectors.T @ xj  # column of the triangular factor
        basis, innovation = append_innovation(basis, xj, j)
        direction, inv_a2 = _advance_direction(direction, inv_a2, xj, innovation, s)
        A = 1.0 / math.sqrt(inv_a2)
        a = direction * A
        active_mask[j] = True
        order.append(j)
        k = len(order)
        new_col = np.zeros((k, 1))
        new_col[:-1, 0] = head
        new_col[-1, 0] = float(np.linalg.norm(innovation))
        chol_r = np.block([[chol_r, new_col[:-1]], [np.zeros((1, k - 1)), new_col[-1:]]])

        w = X.T @ a
        state = StepState(c, C, A, w, active_mask.copy())
        if active_mask.all():
            gamma = C / A
            entrant = None
            tie_next = False
        else:
            gamma, per, _ = gamma_crossings(state)
            if gamma < 0.0:
                raise NoPositiveCandidate(f"step length {gamma:.3e} is negative")
            near = np.flatnonzero(per - gamma <= TIE_TOL * (1.0 + gamma))
            entrant = int(near[0])
            tie_next = near.size > 1

        delta = np.linalg.solve(chol_r, basis.vectors.T @ a) if k > 1 else (
            (basis.vectors.T @ a) / chol_r[0, 0]
        )
        b = b.copy()
        b[order] += gamma * delta
        fit = fit + gamma * a

        steps.append(LarStep(j, s, C, A, gamma, c, w, inv_a2, tie))
        coef_rows.append(b)
        tie = tie_next

    coefficients = np.array(coef_rows) if coef_rows else np.zeros((0, p))
    return LarPath(tuple(steps), coefficients, kind, len(steps))


def reference_collect(
    engine: BootstrapEngine, cfg: BootstrapConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Test-only reference: ``BootstrapEngine.collect`` one replica at a time.

    A copy of the per-replica loop the library ran before the replicas moved
    to the batch engine.  Each replica draws its n errors e*, builds the
    n-length response y* = mu + e*, runs ``lar_path`` on it, takes its
    residual scale from the n-space basis of the full column space, and
    refits its terminal step with its own solve.  The resampling state (pool,
    center, centers, sample coefficients, cells) is read from ``engine``; the
    center mu = X b_center equals the projection the loop used to build, up
    to rounding.
    """
    data = engine.data
    n, p = data.n, data.p
    basis = full_column_basis(data)
    mu_center = data.X @ engine.b_center
    t_rows, b_rows, entry_rows = [], [], []
    for index in range(cfg.draws):
        rng = replica_rng(cfg.seed, index)
        eps = engine.pool[rng.integers(0, n, n)]
        path_star = lar_path(data, mu_center + eps, zero_tol=0.0, kind="sample")
        resid = eps - project(basis, eps)
        sigma_star = math.sqrt(n * float(resid @ resid) / (n - p))

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
                * (corr - engine.centers) / sigma_star
            )
        else:
            t_star = np.zeros(p)
        b_star = np.zeros(len(engine.cells))
        if engine.m_bar and sigma_star > 0.0:
            coef_rows = np.zeros((engine.m_bar, p))
            avail = min(engine.m_bar, steps)
            coef_rows[:avail] = path_star.coefficients[:avail]
            if steps >= engine.m_bar:
                coef_rows[engine.m_bar - 1] = _ols_from_correlations(
                    data, path_star.entrants[: engine.m_bar],
                    path_star.start_correlations,
                )
            for i, (k, j) in enumerate(engine.cells):
                b_star[i] = (
                    math.sqrt(n)
                    * (coef_rows[k - 1, j] - engine.sample_coefs[k - 1, j])
                    / sigma_star
                )
        entry = np.full(p, p, dtype=np.float64)
        for pos, j in enumerate(path_star.entrants, start=1):
            entry[j] = pos
        t_rows.append(t_star)
        b_rows.append(b_star)
        entry_rows.append(entry)
    return np.array(t_rows), np.array(b_rows), np.array(entry_rows)


def reference_run_coverage(spec: ScenarioSpec, naive: bool = False) -> CoverageResult:
    """Test-only reference: ``run_coverage`` one replication at a time.

    A copy of the loop the library ran before the coverage study moved to
    batches: each replication builds its own response from its noise stream,
    runs ``lar_path`` and ``sigma_hat`` on it, and, when its m_bar is
    positive, calls ``bootstrap_intervals`` with its own seed, so every
    replication makes its own two engine calls.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    draw = generate_scenario(spec, rng)
    data, pop = draw.data, draw.pop_path
    n, p, m = spec.n, spec.p, spec.m
    thresholds = chi2_thresholds(p, n)
    target_C = np.zeros(p)
    target_C[:m] = pop.correlations
    target_b = np.vstack([pop.coefficients, np.tile(pop.coefficients[-1], (p - m, 1))])

    corr_cov, coef_cov, term_cov, zero_cov = [], [], [], []
    m_hits = 0
    evaluated = 0
    for i in range(spec.reps):
        noise_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1, i]))
        eps = noise_rng.standard_normal(n)
        d = data.with_response(data.y * data.response_scale + eps)
        path = lar_path(d, d.y, zero_tol=0.0, kind="sample")
        sigma = sigma_hat(d, d.y * d.response_scale)
        _, S = tail_sums(path, sigma, n)
        m_bar = estimate_m(S, thresholds)
        m_hits += m_bar == m
        if m_bar > 0:
            evaluated += 1
            boot_seed = int(np.random.SeedSequence([spec.seed, 2, i]).generate_state(1)[0])
            cfg = BootstrapConfig(draws=spec.boot_draws, alpha=spec.alpha, seed=boot_seed)
            iv = bootstrap_intervals(d, path, m_bar, cfg, naive=naive)
            corr = iv.correlation_intervals
            hits = [
                corr[k - 1, 0] <= target_C[k - 1] <= corr[k - 1, 1]
                for k in range(1, m_bar + 1)
            ]
            corr_cov.append(float(np.mean(hits)))
            cells = list(iv.coefficient_intervals.items())
            coef_hits = [lo <= target_b[k - 1, j] <= hi for (k, j), (lo, hi) in cells]
            coef_cov.append(float(np.mean(coef_hits)))
            term_hits = [
                lo <= target_b[m - 1, j] <= hi for (k, j), (lo, hi) in cells if k == m_bar
            ]
            term_cov.append(float(np.mean(term_hits)))
            if m < p:
                zero_hits = [
                    corr[k - 1, 0] <= 0.0 <= corr[k - 1, 1] for k in range(m + 1, p + 1)
                ]
                zero_cov.append(float(np.mean(zero_hits)))

    def _mean(xs):
        return float(np.mean(xs)) if xs else math.nan

    return CoverageResult(
        _mean(corr_cov), _mean(coef_cov), m_hits / spec.reps,
        _mean(term_cov), _mean(zero_cov), evaluated,
    )
