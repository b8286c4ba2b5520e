"""End-to-end acceptance checks: benchmark reproduction, property-based path
identities, null calibration, termination consistency, coverage studies, the
tie demonstration, the asymptotic covariance oracle, and the laws of the step
statistics and of the tail sum past the true termination step.

Each test prints a PASS line with its headline numbers.  The two coverage
studies run at the paper's scale (n = 1000, p = 20, 200 replications of 200
bootstrap draws) in the default suite.
"""

import math
import time

import numpy as np
import pytest
from helpers import orthonormal_design, path_of, random_instance, use_naive_bootstrap
from scipy.stats import chi2 as chi2_dist
from scipy.stats import kstest

from larinfer.bootstrap import BootstrapConfig, bootstrap_intervals
from larinfer.identities import (
    asymptotic_coef_cov,
    equiangular,
    gamma_crossings,
    gamma_min_plus,
    population_correlation_closed_form,
    replay_states,
    step_state,
    studentized_T,
    terminal_coefficients,
    with_response,
)
from larinfer.inference import (
    build_inference_report,
    chi2_thresholds,
    chi2_upper_quantile,
    estimate_m,
    sigma_hat,
    tail_sums,
)
from larinfer.linalg import solve_spd
from larinfer.path import lar_batch
from larinfer.simulate import (
    ScenarioSpec,
    generate_scenario,
    run_coverage,
)
from larinfer.simulate import tie_demo as run_tie_demo

DIABETES_ORDER = ["bmi", "ltg", "map", "hdl", "sex", "glu", "tc", "tch", "ldl", "age"]
DIABETES_C = [45.160, 42.300, 21.542, 15.034, 6.190,
              4.223, 3.280, 0.950, 0.261, 0.242]
DIABETES_S = [463.800, 155.713, 52.193, 33.742, 23.515,
              8.167, 7.466, 2.835, 1.994, 0.028]
DIABETES_TERMINAL = {"bmi": 24.903, "ltg": 22.560, "map": 15.517,
                     "hdl": -13.752, "sex": -11.215}


def test_01_diabetes_deterministic_reproduction(diabetes):
    start = time.perf_counter()
    names, data = diabetes
    path = path_of(data, data.y)
    assert [names[j] for j in path.entrants] == DIABETES_ORDER
    assert np.allclose(path.correlations, DIABETES_C, atol=1e-3)
    report = build_inference_report(data, path)
    assert np.allclose(report.S, DIABETES_S, atol=0.5)
    assert report.m_bar == 5
    b_bar, _ = terminal_coefficients(data, path, report.m_bar)
    for name, expected in DIABETES_TERMINAL.items():
        assert b_bar[names.index(name)] == pytest.approx(expected, abs=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS diabetes deterministic: order, C, S, m_bar=5, "
          f"terminal coefficients in {elapsed:.2f}s")


def test_02_diabetes_bootstrap_reproduction(diabetes):
    start = time.perf_counter()
    names, data = diabetes
    path = path_of(data, data.y)
    bmi = names.index("bmi")
    for seed in range(5):
        cfg = BootstrapConfig(draws=500, alpha=0.05, seed=seed,
                              parallel=True, threads=4)
        iv = bootstrap_intervals(data, path, 5, cfg)
        lo, hi = iv.correlation_intervals[0]
        assert lo == pytest.approx(39.806, rel=0.15)
        assert hi == pytest.approx(49.124, rel=0.15)
        blo, bhi = iv.coefficient_intervals[(5, bmi)]
        assert blo == pytest.approx(18.186, rel=0.20)
        assert bhi == pytest.approx(29.997, rel=0.20)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS diabetes bootstrap: 5 seeds x 500 draws in {elapsed:.1f}s")


def test_03_chi2_threshold_values():
    a = chi2_upper_quantile(18, 1.0 / 933.0)
    b = chi2_upper_quantile(13, 1.0 / 933.0)
    assert a == pytest.approx(42.097, abs=0.01)
    assert b == pytest.approx(34.331, abs=0.01)
    print(f"PASS chi2 thresholds: {a:.3f}, {b:.3f}")


def test_04_path_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20260823)
    instances = 1000
    for _ in range(instances):
        n = int(rng.integers(20, 201))
        p = int(rng.integers(1, 13))
        if p >= n:
            p = n - 1
        data = random_instance(rng, n=n, p=p, center=bool(rng.integers(2)))
        path = path_of(data, data.y)
        y = data.y
        X = data.X
        fits = [np.zeros(n)] + [X @ b for b in path.coefficients]
        states = list(replay_states(data, path))
        innovations = [s.innovation for s in states]
        proj_parts = [e * (float(e @ y) / float(e @ e)) for e in innovations]
        running = np.zeros(n)
        for k in path.steps:
            C_k, A_k = path.correlations[k - 1], path.angles[k - 1]
            state = states[k - 1]
            active = path.entrants[:k]
            signs = np.asarray(path.signs[:k])
            # equal signed correlation across the active set
            dots = signs * (X[:, active].T @ (y - fits[k - 1]))
            assert np.max(dots) - np.min(dots) <= 1e-9
            # correlation recursion C_{k+1} = C_k - gamma_k A_k
            if k < p:
                nxt = path.correlations[k]
                assert abs(nxt - (C_k - path.weights[k - 1] * A_k)) <= 1e-8
            # projection identity: fit_{k-1} + (C_k/A_k) a_k = P_k y
            running = running + proj_parts[k - 1]
            a_k = state.direction * A_k
            lhs = fits[k - 1] + (C_k / A_k) * a_k
            assert np.linalg.norm(lhs - running) <= 1e-8
            # step-length duality (only meaningful while candidates remain)
            if k < p:
                st = step_state(path, k)
                gamma, _, _ = gamma_crossings(st)
                assert gamma_min_plus(st) == gamma
            # closed-form step correlation from the previous direction
            closed = population_correlation_closed_form(data, y, state)
            assert closed == pytest.approx(C_k, abs=1e-9)
            # fit decomposition into innovation projections minus overshoot
            c_next = path.correlations[k] if k < p else 0.0
            assert np.linalg.norm(
                fits[k] - (running - (c_next / A_k) * a_k)
            ) <= 1e-8
            # equiangular recursion agrees with the direct solve
            signed = X[:, active] * signs
            a_direct, angle_direct = equiangular(signed)
            assert abs(angle_direct - A_k) <= 1e-9
            assert np.linalg.norm(a_direct - a_k) <= 1e-9
        # angles strictly decreasing
        assert np.all(np.diff(path.angles) < 0.0)
        # the endpoint is the least-squares fit
        ols, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert np.linalg.norm(fits[-1] - X @ ols) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS path identities: {instances} instances in {elapsed:.1f}s")


def test_05_null_chi2_aggregate():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    n, p, reps = 2000, 8, 2000
    from larinfer.path import standardize

    Q = orthonormal_design(rng, n, p)
    data0 = standardize(Q, rng.standard_normal(n), center=False)
    centers = np.zeros(p)
    sums = np.empty(reps)
    for i in range(reps):
        y_n = rng.standard_normal(n)
        d = with_response(data0, y_n)
        path = path_of(d, d.y)
        sigma = sigma_hat(d, y_n)
        T = studentized_T(path, centers, sigma, n)
        sums[i] = float(T @ T)
    mean = sums.mean()
    assert abs(mean - p) <= 0.05 * p
    ks = kstest(sums, chi2_dist(p).cdf)
    assert ks.pvalue > 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS null aggregate: mean={mean:.3f} (target 8), "
          f"KS p={ks.pvalue:.3f} in {elapsed:.1f}s")


def test_06_termination_estimate_consistency():
    start = time.perf_counter()
    spec = ScenarioSpec(n=1000, p=20, m=3, delta0=0.2, seed=6)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    data, _ = generate_scenario(spec, rng)
    thresholds = chi2_thresholds(spec.p, spec.n)
    reps = 500
    hits = 0
    for i in range(reps):
        noise = np.random.default_rng(np.random.SeedSequence([spec.seed, 1, i]))
        y_n = data.y * data.response_scale + noise.standard_normal(spec.n)
        d = with_response(data, y_n)
        path = path_of(d, d.y)
        S = tail_sums(path, sigma_hat(d, y_n), spec.n)
        hits += estimate_m(S, thresholds) == spec.m
    rate = hits / reps
    assert rate >= 0.97
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"PASS termination consistency: rate={rate:.3f} in {elapsed:.1f}s")


def test_07_coverage_at_scale():
    start = time.perf_counter()
    spec = ScenarioSpec(n=1000, p=20, m=3, delta0=0.2, reps=200,
                        boot_draws=200, seed=7, threads=4)
    result = run_coverage(spec)
    assert 0.90 <= result.corr_coverage <= 0.98
    assert 0.90 <= result.terminal_coverage <= 0.98
    elapsed = time.perf_counter() - start
    assert elapsed < 1200.0
    print(f"PASS coverage: corr={result.corr_coverage:.3f}, "
          f"terminal={result.terminal_coverage:.3f} in {elapsed:.0f}s")


def test_08_modified_vs_naive_bootstrap(monkeypatch):
    start = time.perf_counter()
    spec = ScenarioSpec(n=1000, p=20, m=3, delta0=0.2, reps=200,
                        boot_draws=200, seed=8, threads=4)
    modified = run_coverage(spec)
    use_naive_bootstrap(monkeypatch)
    naive = run_coverage(spec)
    assert naive.zero_step_coverage < 0.85
    assert 0.90 <= modified.zero_step_coverage <= 0.98
    elapsed = time.perf_counter() - start
    assert elapsed < 1200.0
    print(f"PASS naive comparison: naive={naive.zero_step_coverage:.3f}, "
          f"modified={modified.zero_step_coverage:.3f} in {elapsed:.0f}s")


def test_09_tie_demo_bimodality():
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([9]))
    correlations, second, population_path = run_tie_demo(n=500, reps=2000, rng=rng)
    assert 2 in population_path.tie_steps
    f1 = float(np.mean(second == 1))
    f2 = float(np.mean(second == 2))
    assert f1 >= 0.10 and f2 >= 0.10
    c3_a = correlations[second == 1, 2]
    c3_b = correlations[second == 2, 2]
    pooled_se = math.sqrt(c3_a.var(ddof=1) / len(c3_a)
                          + c3_b.var(ddof=1) / len(c3_b))
    gap = abs(c3_a.mean() - c3_b.mean())
    assert gap > 4.0 * pooled_se
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS tie demo: splits {f1:.2f}/{f2:.2f}, "
          f"gap/se={gap / pooled_se:.1f} in {elapsed:.1f}s")


def test_10_asymptotic_covariance_oracle():
    start = time.perf_counter()
    # 20k replications: the Monte Carlo standard error of a covariance entry
    # with variances near 2 is ~0.036 at 2k draws, above the 0.02 absolute
    # tolerance; 20k brings it to ~0.011 so the bound is a real check.
    n, p, m, reps = 4000, 6, 3, 20_000
    spec = ScenarioSpec(n=n, p=p, m=m, delta0=0.2, seed=10)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    data, pop = generate_scenario(spec, rng)
    R = data.X.T @ data.X
    target = asymptotic_coef_cov(
        R, list(pop.entrants), np.asarray(pop.signs, dtype=float), 1.0
    )
    assert np.linalg.eigvalsh(target.matrix).min() >= -1e-8
    mu_n = data.y * data.response_scale
    # the replications run as path batches of up to 1000 rows; a block of
    # rows from the noise generator holds the draws of that many
    # replications in turn, so the draws equal one replication at a time
    noise = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
    active = np.array(pop.entrants)
    ks, js = zip(*[(k, j) for k in range(m) for j in pop.entrants[: k + 1]])
    blocks = []
    for first in range(0, reps, 1000):
        Y = mu_n + noise.standard_normal((min(1000, reps - first), n))
        Y -= Y.mean(axis=1, keepdims=True)
        Y /= data.response_scale
        xty = Y @ data.X
        paths = lar_batch(xty, data.gram, coef_steps=m)
        keep = (paths.entrants[:, :m] == active).all(axis=1)
        b_hat = paths.coefficients[keep]
        # the terminal step re-fit by least squares on the m entrants
        gram_aa = np.broadcast_to(data.gram[np.ix_(active, active)], (keep.sum(), m, m))
        b_hat[:, m - 1] = 0.0
        b_hat[:, m - 1, active] = solve_spd(gram_aa, xty[keep][:, active])
        blocks.append(math.sqrt(n) * (b_hat[:, ks, js] - pop.coefficients[ks, js]))
    Z = np.concatenate(blocks)
    assert len(Z) >= 0.95 * reps
    emp = np.cov(Z, rowvar=False)
    err = np.abs(emp - target.matrix)
    bound = np.maximum(0.10 * np.abs(target.matrix), 0.02)
    worst = float(np.max(err - bound))
    assert np.all(err <= bound), f"worst excess {worst:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"PASS covariance oracle: {len(Z)} draws, "
          f"max entry error {err.max():.4f} in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def scenario_batch():
    """The test_06 scenario (AR(1) design, n = 1000, p = 20, m = 3) with 4000
    fresh-noise replications, run as one path batch: the population path, the
    batch, sigma-hat and the tail sums S, kept for the replications whose
    first m entrants are the population's."""
    start = time.perf_counter()
    spec = ScenarioSpec(n=1000, p=20, m=3, delta0=0.2, seed=6)
    data, pop = generate_scenario(spec, np.random.default_rng(np.random.SeedSequence([spec.seed, 0])))
    n = spec.n
    noise = np.random.default_rng(np.random.SeedSequence([spec.seed, 3]))
    Y = data.y * data.response_scale + noise.standard_normal((4000, n))
    Y -= Y.mean(axis=1, keepdims=True)
    batch = lar_batch((Y / data.response_scale) @ data.X, data.gram, coef_steps=0)
    sigma = sigma_hat(data, Y)
    S = tail_sums(batch, sigma[:, None], n)
    keep = (batch.entrants[:, : spec.m] == pop.entrants).all(axis=1)
    assert keep.mean() >= 0.99
    return spec, pop, batch, sigma, S, keep, time.perf_counter() - start


def test_11_step_statistics_independent_standard_normal(scenario_batch):
    """T_1..T_m at the population correlations are independent N(0, 1)."""
    spec, pop, batch, sigma, _, keep, setup = scenario_batch
    start = time.perf_counter()
    m, n = spec.m, spec.n
    T = (batch.signs[:, :m] * np.sqrt(batch.inv_angle_sq_increments[:, :m]) * math.sqrt(n)
         * (batch.correlations[:, :m] - pop.correlations) / sigma[:, None])[keep]
    # 4000 draws: the standard error of a mean or a correlation is 0.016 and
    # of a variance 0.022, so each bound is above four standard errors
    assert np.all(np.abs(T.mean(axis=0)) <= 0.07)
    assert np.all(np.abs(T.var(axis=0, ddof=1) - 1.0) <= 0.1)
    corr = np.corrcoef(T, rowvar=False)
    assert np.all(np.abs(corr[np.triu_indices(m, 1)]) <= 0.07)
    pvalues = [kstest(T[:, k], "norm").pvalue for k in range(m)]
    assert min(pvalues) >= 1e-3
    elapsed = setup + time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS step statistics: means {np.round(T.mean(axis=0), 3)}, variances "
          f"{np.round(T.var(axis=0, ddof=1), 3)}, KS p {np.round(pvalues, 3)} "
          f"on {len(T)} draws in {elapsed:.1f}s")


def test_12_tail_sum_past_termination_chi2(scenario_batch):
    """S_{m+1}, the tail sum past the true termination step, is chi^2_{p-m}."""
    spec, _, _, _, S, keep, setup = scenario_batch
    start = time.perf_counter()
    df = spec.p - spec.m
    tail = S[keep, spec.m]
    # chi^2_17 over 4000 draws: standard errors 0.092 of the mean and 0.88 of
    # the variance (34), so each bound is above four standard errors
    assert abs(tail.mean() - df) <= 0.4
    assert abs(tail.var(ddof=1) - 2 * df) <= 4.0
    ks = kstest(tail, chi2_dist(df).cdf)
    assert ks.pvalue >= 1e-3
    elapsed = setup + time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS tail sum: mean={tail.mean():.2f} (target {df}), variance="
          f"{tail.var(ddof=1):.1f} (target {2 * df}), KS p={ks.pvalue:.3f} in {elapsed:.1f}s")
