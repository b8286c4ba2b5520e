import math

import numpy as np
import pytest

import larinfer.bootstrap as bootstrap
import larinfer.inference as inference
import larinfer.simulate as simulate
from helpers import orthonormal_design, path_of, reference_run_coverage, use_naive_bootstrap

from larinfer.exceptions import RejectionBudgetExceeded
from larinfer.identities import asymptotic_coef_cov, ols_on_active, solve_spd, with_response
from larinfer.path import margins, standardize
from larinfer.simulate import (
    ScenarioSpec,
    ar1_covariance,
    generate_scenario,
    run_coverage,
    tie_demo,
)


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n=10, p=10, m=3, delta0=0.1)  # p must be < n
        with pytest.raises(ValueError):
            ScenarioSpec(n=50, p=5, m=6, delta0=0.1)  # m must be <= p
        with pytest.raises(ValueError):
            ScenarioSpec(n=50, p=5, m=2, delta0=0.0)


class TestAr1Covariance:
    def test_entries(self):
        S = ar1_covariance(3, 0.5)
        assert np.allclose(S, [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]], atol=0)

    def test_sampled_moments_match(self):
        rng = np.random.default_rng(0)
        S = ar1_covariance(6, 0.7)
        chol = np.linalg.cholesky(S)
        Z = rng.standard_normal((10_000, 6)) @ chol.T
        emp = Z.T @ Z / 10_000
        assert np.max(np.abs(emp - S)) <= 0.05


class TestGenerateScenario:
    def test_postconditions(self):
        spec = ScenarioSpec(n=200, p=20, m=3, delta0=0.2, seed=0)
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
        data, pop = generate_scenario(spec, rng)
        assert pop.terminated_at == spec.m
        assert len(pop.steps) == spec.m
        assert not pop.tie_steps
        delta = margins(pop)
        assert spec.delta0 <= delta and not math.isinf(delta)
        # the mean data.y is a combination of exactly the m entrant columns
        fit = np.linalg.lstsq(data.X, data.y, rcond=None)[0]
        assert sorted(np.flatnonzero(np.abs(fit) > 1e-8).tolist()) == sorted(pop.entrants)
        # recompute the path and its margin from scratch on the returned design
        fresh = path_of(data, data.y, zero_tol=1e-10)
        assert fresh.entrants == pop.entrants
        assert margins(fresh) == delta

    def test_budget_exceeded_on_impossible_margin(self):
        spec = ScenarioSpec(n=40, p=4, m=2, delta0=1e6, rejection_cap=25, seed=1)
        rng = np.random.default_rng(2)
        with pytest.raises(RejectionBudgetExceeded):
            generate_scenario(spec, rng)


class TestRunCoverage:
    def test_reproducible(self):
        spec = ScenarioSpec(n=120, p=6, m=2, delta0=0.05, reps=3, boot_draws=50, seed=5)
        first = run_coverage(spec)
        second = run_coverage(spec)
        assert first == second
        assert first.reps_evaluated <= 3
        for value in (first.corr_coverage, first.coef_coverage):
            if not math.isnan(value):
                assert 0.0 <= value <= 1.0


    def test_progress_reports_every_replication(self):
        # a weak signal, so that some replications estimate m_bar = 0
        spec = ScenarioSpec(n=60, p=4, m=1, delta0=1e-3, beta_range=1.0,
                            reps=8, boot_draws=40, seed=3)
        calls = []
        result = run_coverage(spec, progress=lambda done, total: calls.append((done, total)))
        assert 0 < result.reps_evaluated < spec.reps
        assert calls == [(i, spec.reps) for i in range(1, spec.reps + 1)]


# Small scenarios for the batched study against the per-replication loop.
# The first mixes replications whose m_bar differs; the last two have a weak
# signal, so that some or all replications estimate m_bar = 0 and skip the
# bootstrap.
PARITY_SCENARIOS = {
    "mixed m_bar": dict(n=120, p=6, m=2, delta0=0.05, reps=6, boot_draws=40, seed=5),
    "m=3": dict(n=200, p=8, m=3, delta0=0.1, reps=5, boot_draws=40, seed=11),
    "m=1": dict(n=80, p=5, m=1, delta0=0.05, reps=6, boot_draws=50, seed=2),
    "m=4 of 10": dict(n=150, p=10, m=4, delta0=0.05, reps=4, boot_draws=40, seed=9),
    "some m_bar=0": dict(n=60, p=4, m=1, delta0=1e-3, beta_range=1.0, reps=8,
                         boot_draws=40, seed=3),
    "all m_bar=0": dict(n=60, p=4, m=1, delta0=1e-3, beta_range=1.0, reps=3,
                        boot_draws=40, seed=8),
}


def _split(rows: int, size: int) -> list[int]:
    return [size] * (rows // size) + ([rows % size] if rows % size else [])


@pytest.mark.parametrize("naive", [False, True])
@pytest.mark.parametrize("name", list(PARITY_SCENARIOS))
def test_batched_study_matches_per_replication_loop(name, naive, monkeypatch):
    spec = ScenarioSpec(**PARITY_SCENARIOS[name])
    use_naive_bootstrap(monkeypatch, naive)
    expected = reference_run_coverage(spec)
    if name == "some m_bar=0":
        assert 0 < expected.reps_evaluated < spec.reps
    if name == "all m_bar=0":
        assert expected.reps_evaluated == 0
    calls = {"sample": [], "replica": []}
    for module, kind in ((simulate, "sample"), (bootstrap, "replica")):
        def counted(start, *args, engine=module.lar_batch, sizes=calls[kind], **kwargs):
            sizes.append(len(start))
            return engine(start, *args, **kwargs)

        monkeypatch.setattr(module, "lar_batch", counted)
    rows = expected.reps_evaluated * spec.boot_draws

    # repr equality: equal values and types, with NaN equal to NaN.  By
    # default the replications are one block, and their replicas share
    # chunks of CHUNK_ROWS.
    assert repr(run_coverage(spec)) == repr(expected)
    assert calls["sample"] == [spec.reps]
    assert calls["replica"] == _split(rows, bootstrap.CHUNK_ROWS)

    # a byte budget of three replications a block: several blocks, and
    # replica chunks that split replications and hold parts of two
    monkeypatch.setattr(bootstrap, "CHUNK_BYTES", 3 * 8 * (spec.n + 4 * spec.p**2))
    chunk = bootstrap.CHUNK_BYTES // (8 * spec.p**2)
    assert chunk < spec.boot_draws and spec.boot_draws % chunk
    calls["sample"].clear()
    calls["replica"].clear()
    assert repr(run_coverage(spec)) == repr(expected)
    assert calls["sample"] == _split(spec.reps, 3)
    sizes = calls["replica"]
    assert sum(sizes) == rows and all(0 < size <= chunk for size in sizes)
    # only a block's last chunk may be short
    assert len(sizes) <= -(-rows // chunk) + len(calls["sample"]) - 1


def test_study_computes_one_sigma_hat_per_block(monkeypatch):
    """Each block of replications gets its sigma-hats from one stacked call,
    which the stopping rule and the bootstrap set-up share."""
    spec = ScenarioSpec(**PARITY_SCENARIOS["m=3"])
    # a byte budget of two replications a block: three blocks
    monkeypatch.setattr(bootstrap, "CHUNK_BYTES", 2 * 8 * (spec.n + 4 * spec.p**2))
    rows = []
    original = inference.sigma_hat

    def counted(data, y_raw):
        rows.append(len(y_raw))
        return original(data, y_raw)

    for module in (inference, bootstrap, simulate):
        if getattr(module, "sigma_hat", None) is original:
            monkeypatch.setattr(module, "sigma_hat", counted)
    assert run_coverage(spec).reps_evaluated == spec.reps
    assert rows == [2, 2, 1]


class TestTieDemo:
    def test_population_tie_and_bimodal_resolution(self):
        rng = np.random.default_rng(7)
        correlations, second, pop = tie_demo(n=400, reps=400, rng=rng)
        assert pop.entrants[0] == 0
        assert 2 in pop.tie_steps
        assert set(np.unique(second)) <= {1, 2}
        share_1 = float(np.mean(second == 1))
        assert 0.1 <= share_1 <= 0.9
        # the two tie resolutions leave distinct step-3 correlation clusters
        c3_a = correlations[second == 1, 2]
        c3_b = correlations[second == 2, 2]
        assert abs(c3_a.mean() - c3_b.mean()) > 2 * (c3_a.std() + c3_b.std()) / math.sqrt(
            min(len(c3_a), len(c3_b))
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [5, 20, 400, 2000])
    def test_population_path_matches_the_reference_solve(self, seed, n):
        """The equiangular weights from R's leading block give the population
        path that the general SPD solve of the Gram block gives."""
        *_, pop = tie_demo(n=n, reps=2, rng=np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        X_n = rng.standard_normal((n, 4)) @ np.linalg.cholesky(ar1_covariance(4, 0.9)).T
        data = standardize(X_n, np.ones(n), center=False)
        u = solve_spd(data.gram[:3, :3], np.ones(3))
        mu = data.X[:, 0] + (data.X[:, :3] @ u) / math.sqrt(float(np.sum(u)))
        ref = path_of(data, mu, zero_tol=1e-10)
        assert pop.entrants == ref.entrants
        assert pop.terminated_at == ref.terminated_at
        assert np.array_equal(pop.ties, ref.ties)
        for name in ("signs", "correlations", "angles", "weights", "inv_angle_sq",
                     "correlations_all", "equiangular_dots", "coefficients", "refits"):
            got, want = getattr(pop, name), getattr(ref, name)
            assert got.shape == want.shape, name
            assert np.abs(got - want).max(initial=0.0) <= 1e-14 * np.abs(want).max(initial=0.0), name


class TestAsymptoticCoefCov:
    def test_single_full_step_is_plain_variance(self):
        out = asymptotic_coef_cov(np.eye(1), [0], np.array([1.0]), 1.7)
        assert out.matrix.shape == (1, 1)
        assert out.matrix[0, 0] == pytest.approx(1.7**2, rel=1e-12)

    def test_terminal_block_is_least_squares_covariance(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((20, 4))
        R = A.T @ A / 20
        d = np.sqrt(np.diag(R))
        R = R / np.outer(d, d)
        order = [2, 0, 3]
        signs = np.array([1.0, -1.0, 1.0])
        out = asymptotic_coef_cov(R, order, signs, 1.0)
        assert out.lambdas[-1] == 0.0
        G = R[np.ix_(order, order)]
        assert np.allclose(out.blocks[(3, 3)], np.linalg.inv(G), atol=1e-10)

    def test_assembled_matrix_is_symmetric_psd(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((30, 5))
        R = A.T @ A / 30
        d = np.sqrt(np.diag(R))
        R = R / np.outer(d, d)
        out = asymptotic_coef_cov(R, [1, 4, 0], np.array([1.0, 1.0, -1.0]), 0.9)
        assert out.matrix.shape == (6, 6)
        assert np.allclose(out.matrix, out.matrix.T, atol=1e-12)
        assert np.linalg.eigvalsh(out.matrix).min() >= -1e-8

    def test_orthonormal_closed_form(self):
        s = np.array([1.0, -1.0])
        out = asymptotic_coef_cov(np.eye(3), [0, 2], s, 1.0)
        assert out.blocks[(1, 1)][0, 0] == pytest.approx(2.0, rel=1e-12)
        assert np.allclose(out.blocks[(2, 2)], np.eye(2), atol=0)
        assert np.allclose(out.blocks[(1, 2)], [[1.0, -s[0] * s[1]]], atol=1e-12)

    def test_monte_carlo_orthonormal_design(self):
        rng = np.random.default_rng(10)
        n, p, m = 2000, 4, 2
        Q = orthonormal_design(rng, n, p)
        beta = np.array([8.0, 4.0, 0.0, 0.0])
        mu_n = Q @ beta
        data = standardize(Q, mu_n, center=False)
        mu = data.y
        pop = path_of(data, mu, zero_tol=1e-10)
        assert pop.entrants == [0, 1]
        target = asymptotic_coef_cov(
            np.eye(p), list(pop.entrants), np.asarray(pop.signs, dtype=float), 1.0
        )
        samples = []
        for _ in range(2500):
            d = with_response(data, mu_n + rng.standard_normal(n))
            path = path_of(d, d.y)
            if path.entrants[:m] != pop.entrants:
                continue
            b_hat = path.coefficients.copy()
            # the terminal target is the least-squares refit on the active set
            b_hat[m - 1] = ols_on_active(d, list(path.entrants[:m]), d.y)
            z = []
            for k in range(1, m + 1):
                active = list(pop.entrants[:k])
                z.extend(
                    math.sqrt(n)
                    * (b_hat[k - 1, active] - pop.coefficients[k - 1, active])
                )
            samples.append(z)
        Z = np.asarray(samples)
        assert len(Z) >= 2400
        emp = np.cov(Z, rowvar=False)
        assert np.max(np.abs(emp - target.matrix)) <= 0.15
