"""End-to-end acceptance checks: benchmark reproduction, property-based path
identities, null calibration, termination consistency, coverage studies, the
tie demonstration, and the asymptotic covariance oracle.

Each test prints a PASS line with its headline numbers.  The two coverage
studies run at the paper's scale (n = 1000, p = 20, 200 replications of 200
bootstrap draws) in the default suite.
"""

import math
import time

import numpy as np
import pytest
from helpers import orthonormal_design, random_instance
from scipy.stats import chi2 as chi2_dist
from scipy.stats import kstest

from larinfer.bootstrap import (
    BootstrapConfig,
    bootstrap_intervals,
    terminal_coefficients,
)
from larinfer.identities import (
    asymptotic_coef_cov,
    equiangular,
    gamma_crossings,
    gamma_min_plus,
    ols_on_active,
    population_correlation_closed_form,
    replay_states,
    step_state,
)
from larinfer.inference import (
    build_inference_report,
    chi2_thresholds,
    chi2_upper_quantile,
    estimate_m,
    sigma_hat,
    studentized_T,
    tail_sums,
)
from larinfer.path import lar_path
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
    path = lar_path(data, data.y)
    assert [names[j] for j in path.entrants] == DIABETES_ORDER
    assert np.allclose(path.correlations, DIABETES_C, atol=1e-3)
    report = build_inference_report(data, path)
    assert np.allclose(report.S, DIABETES_S, atol=0.5)
    assert report.m_bar == 5
    term = terminal_coefficients(data, path, report.m_bar)
    for name, expected in DIABETES_TERMINAL.items():
        assert term.b_bar[names.index(name)] == pytest.approx(expected, abs=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS diabetes deterministic: order, C, S, m_bar=5, "
          f"terminal coefficients in {elapsed:.2f}s")


def test_02_diabetes_bootstrap_reproduction(diabetes):
    start = time.perf_counter()
    names, data = diabetes
    path = lar_path(data, data.y)
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
        path = lar_path(data, data.y)
        y = data.y
        X = data.X
        fits = [np.zeros(n)] + [X @ b for b in path.coefficients]
        states = list(replay_states(data, path))
        innovations = [s.innovation for s in states]
        proj_parts = [e * (float(e @ y) / float(e @ e)) for e in innovations]
        running = np.zeros(n)
        for k, step in enumerate(path.steps, start=1):
            state = states[k - 1]
            active = path.entrants[:k]
            signs = np.asarray(path.signs[:k])
            # equal signed correlation across the active set
            dots = signs * (X[:, active].T @ (y - fits[k - 1]))
            assert np.max(dots) - np.min(dots) <= 1e-9
            # correlation recursion C_{k+1} = C_k - gamma_k A_k
            if k < p:
                nxt = path.steps[k].correlation
                assert abs(nxt - (step.correlation - step.weight * step.angle)) <= 1e-8
            # projection identity: fit_{k-1} + (C_k/A_k) a_k = P_k y
            running = running + proj_parts[k - 1]
            a_k = state.direction * step.angle
            lhs = fits[k - 1] + (step.correlation / step.angle) * a_k
            assert np.linalg.norm(lhs - running) <= 1e-8
            # step-length duality (only meaningful while candidates remain)
            if k < p:
                st = step_state(path, k)
                gamma, _, _ = gamma_crossings(st)
                assert gamma_min_plus(st) == gamma
            # closed-form step correlation from the previous direction
            closed = population_correlation_closed_form(data, y, state)
            assert closed == pytest.approx(step.correlation, abs=1e-9)
            # fit decomposition into innovation projections minus overshoot
            c_next = path.steps[k].correlation if k < p else 0.0
            assert np.linalg.norm(
                fits[k] - (running - (c_next / step.angle) * a_k)
            ) <= 1e-8
            # equiangular recursion agrees with the direct solve
            signed = X[:, active] * signs
            a_direct, angle_direct = equiangular(signed)
            assert abs(angle_direct - step.angle) <= 1e-9
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
        d = data0.with_response(y_n)
        path = lar_path(d, d.y)
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
    draw = generate_scenario(spec, rng)
    data = draw.data
    thresholds = chi2_thresholds(spec.p, spec.n)
    reps = 500
    hits = 0
    for i in range(reps):
        noise = np.random.default_rng(np.random.SeedSequence([spec.seed, 1, i]))
        y_n = data.y * data.response_scale + noise.standard_normal(spec.n)
        d = data.with_response(y_n)
        path = lar_path(d, d.y)
        _, S = tail_sums(path, sigma_hat(d, y_n), spec.n)
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


def test_08_modified_vs_naive_bootstrap():
    start = time.perf_counter()
    spec = ScenarioSpec(n=1000, p=20, m=3, delta0=0.2, reps=200,
                        boot_draws=200, seed=8, threads=4)
    modified = run_coverage(spec, naive=False)
    naive = run_coverage(spec, naive=True)
    assert naive.zero_step_coverage < 0.85
    assert 0.90 <= modified.zero_step_coverage <= 0.98
    elapsed = time.perf_counter() - start
    assert elapsed < 1200.0
    print(f"PASS naive comparison: naive={naive.zero_step_coverage:.3f}, "
          f"modified={modified.zero_step_coverage:.3f} in {elapsed:.0f}s")


def test_09_tie_demo_bimodality():
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([9]))
    result = run_tie_demo(n=500, reps=2000, rng=rng)
    assert 2 in result.population_path.tie_steps
    second = result.second_entrants
    f1 = float(np.mean(second == 1))
    f2 = float(np.mean(second == 2))
    assert f1 >= 0.10 and f2 >= 0.10
    c3_a = result.correlations[second == 1, 2]
    c3_b = result.correlations[second == 2, 2]
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
    draw = generate_scenario(spec, rng)
    data, pop = draw.data, draw.pop_path
    R = data.X.T @ data.X
    target = asymptotic_coef_cov(
        R, list(pop.entrants), np.asarray(pop.signs, dtype=float), 1.0
    )
    assert np.linalg.eigvalsh(target.matrix).min() >= -1e-8
    mu_n = data.y * data.response_scale
    samples = []
    noise = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
    for _ in range(reps):
        d = data.with_response(mu_n + noise.standard_normal(n))
        path = lar_path(d, d.y)
        if path.entrants[:m] != pop.entrants:
            continue
        b_hat = path.coefficients.copy()
        b_hat[m - 1] = ols_on_active(d, list(path.entrants[:m]), d.y)
        z = []
        for k in range(1, m + 1):
            active = list(pop.entrants[:k])
            z.extend(math.sqrt(n)
                     * (b_hat[k - 1, active] - pop.coefficients[k - 1, active]))
        samples.append(z)
    Z = np.asarray(samples)
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
