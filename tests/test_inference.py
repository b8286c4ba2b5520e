import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import orthonormal_design, path_of, random_instance
from scipy.special import chdtri
from scipy.stats import chi2 as chi2_dist

from larinfer.exceptions import DegenerateResponse, InvalidTail
from larinfer.identities import (
    full_column_basis,
    replay_states,
    step_statistics,
    studentized_T,
)
from larinfer.inference import (
    build_inference_report,
    chi2_thresholds,
    chi2_upper_quantile,
    estimate_m,
    sigma_hat,
    tail_sums,
)
from larinfer.path import lar_batch, standardize


class TestSigmaHat:
    def test_zero_residual(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 3))
        y = X @ np.array([1.0, -2.0, 0.5])
        data = standardize(X, y, center=False)
        assert sigma_hat(data, y) == pytest.approx(0.0, abs=1e-10)

    def test_direct_ols_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((50, 4))
        y = X @ rng.standard_normal(4) + rng.standard_normal(50)
        data = standardize(X, y, center=False)
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        rss = float(np.sum((y - X @ beta) ** 2))
        assert sigma_hat(data, y) == pytest.approx(math.sqrt(rss / (50 - 4)), rel=1e-12)

    def test_concentration_near_truth(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((1000, 8))
        hits = 0
        runs = 60
        for _ in range(runs):
            y = X @ rng.standard_normal(8) + rng.standard_normal(1000)
            data = standardize(X, y, center=True)
            s = sigma_hat(data, data.y * data.response_scale)
            hits += 0.9 <= s <= 1.1
        assert hits == runs


class TestChi2UpperQuantile:
    def test_exponential_closed_form(self):
        assert chi2_upper_quantile(2, 0.05) == pytest.approx(-2.0 * math.log(0.05),
                                                             abs=1e-8)

    def test_published_thresholds(self):
        assert chi2_upper_quantile(18, 1.0 / 933.0) == pytest.approx(42.097, abs=0.01)
        assert chi2_upper_quantile(13, 1.0 / 933.0) == pytest.approx(34.331, abs=0.01)

    def test_invalid_tail(self):
        for tail in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidTail):
                chi2_upper_quantile(3, tail)

    def test_against_scipy_isf(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            df = int(rng.integers(1, 200))
            tail = float(rng.uniform(1e-6, 0.999))
            ours = chi2_upper_quantile(df, tail)
            assert ours == pytest.approx(float(chi2_dist.isf(tail, df)), abs=1e-7)

    @pytest.mark.parametrize("tail", [0.999, 0.9, 0.5, 0.1, 1e-2, 1e-3, 1 / 442, 1 / 1000,
                                      1 / 4000, 1 / 5000, 1e-6, 1e-9])
    def test_against_scipy_chdtri(self, tail):
        df = np.arange(1, 400)
        ours = np.array([chi2_upper_quantile(int(d), tail) for d in df])
        np.testing.assert_allclose(ours, chdtri(df, tail), rtol=1e-12, atol=0)

    def test_monotonicity(self):
        tails = [1e-4, 1e-3, 0.01, 0.1, 0.5]
        for tail in tails:
            values = [chi2_upper_quantile(df, tail) for df in range(1, 101)]
            assert np.all(np.diff(values) > 0.0)
        for df in (1, 5, 40):
            values = [chi2_upper_quantile(df, t) for t in tails]
            assert np.all(np.diff(values) < 0.0)


class TestTailSums:
    def test_definitional_properties(self):
        rng = np.random.default_rng(4)
        data = random_instance(rng, n=60, p=6)
        path = path_of(data, data.y)
        sigma = sigma_hat(data, data.y * data.response_scale)
        W, S = step_statistics(path, sigma, data.n), tail_sums(path, sigma, data.n)
        assert np.all(W >= 0.0)
        assert S[-1] == pytest.approx(W[-1], abs=0)
        assert np.all(np.diff(S) <= 0.0)
        assert np.allclose(S, W[::-1].cumsum()[::-1], atol=1e-10)

    def test_innovation_recomputation_oracle(self):
        rng = np.random.default_rng(5)
        data = random_instance(rng, n=70, p=5)
        path = path_of(data, data.y)
        sigma = sigma_hat(data, data.y * data.response_scale)
        W = step_statistics(path, sigma, data.n)
        # W_k = n (e_k' y)^2 / (e_k'e_k sigma^2) via the innovation identity
        for state in replay_states(data, path):
            e = state.innovation
            expected = data.n * float(e @ data.y) ** 2 / (float(e @ e) * sigma**2)
            assert W[state.k - 1] == pytest.approx(expected, rel=1e-8)

    def test_diabetes_tail_sums(self, diabetes):
        _, data = diabetes
        path = path_of(data, data.y)
        sigma = sigma_hat(data, data.y * data.response_scale)
        S = tail_sums(path, sigma, data.n)
        expected = [463.800, 155.713, 52.193, 33.742, 23.515,
                    8.167, 7.466, 2.835, 1.994, 0.028]
        assert np.allclose(S, expected, atol=0.5)


class TestEstimateM:
    def test_diabetes(self, diabetes):
        _, data = diabetes
        path = path_of(data, data.y)
        report = build_inference_report(data, path)
        assert report.m_bar == 5

    def test_all_below_threshold(self):
        assert estimate_m(np.array([1.0, 0.5]), np.array([2.0, 1.0])) == 0

    def test_prefix_rule(self):
        S = np.array([10.0, 8.0, 1.0, 0.5])
        thr = np.array([5.0, 4.0, 3.0, 2.0])
        assert estimate_m(S, thr) == 2

    def test_equality_counts_as_failure(self):
        S = np.array([10.0, 4.0, 1.0])
        thr = np.array([5.0, 4.0, 0.5])
        assert estimate_m(S, thr) == 1
        assert estimate_m(np.array([5.0, 1.0]), np.array([5.0, 0.5])) == 0

    def test_full_prefix(self):
        assert estimate_m(np.array([9.0, 8.0]), np.array([1.0, 1.0])) == 2


class TestStudentizedT:
    def test_self_centering(self):
        rng = np.random.default_rng(6)
        data = random_instance(rng)
        path = path_of(data, data.y)
        T = studentized_T(path, path.correlations, 1.3, data.n)
        assert np.allclose(T, 0.0, atol=0)

    def test_first_step_orthonormal_scaling(self):
        rng = np.random.default_rng(7)
        Q = orthonormal_design(rng, 30, 3)
        data = standardize(Q, rng.standard_normal(30), center=False)
        path = path_of(data, data.y)
        sigma = 0.8
        centers = np.zeros(3)
        T = studentized_T(path, centers, sigma, data.n)
        expected = math.sqrt(data.n) * path.signs[0] * path.correlations[0] / sigma
        assert T[0] == pytest.approx(expected, rel=1e-12)

    def test_innovation_identity_when_order_recovered(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((400, 4))
        beta = np.array([5.0, -3.0, 1.5, 0.0])
        for _ in range(5):
            eps_n = rng.standard_normal(400)
            mu_n = X @ beta
            data = standardize(X, mu_n + eps_n, center=False)
            mu = mu_n / data.response_scale
            pop = path_of(data, mu, zero_tol=1e-10)
            path = path_of(data, data.y)
            m = pop.terminated_at
            if path.entrants[:m] != pop.entrants:
                continue
            centers = np.concatenate([pop.correlations, np.zeros(data.p - m)])
            sigma = sigma_hat(data, data.y * data.response_scale)
            T = studentized_T(path, centers, sigma, data.n)
            for state in replay_states(data, path):
                if state.k > m:
                    break
                e = state.innovation
                direct = float(e @ eps_n) / np.linalg.norm(e)
                assert T[state.k - 1] * sigma == pytest.approx(direct, abs=1e-8)


class TestReportAssembly:
    def test_thresholds_match_direct_quantiles(self):
        thr = chi2_thresholds(4, 200)
        for k in range(1, 5):
            assert thr[k - 1] == chi2_upper_quantile(4 - k + 1, 1.0 / 200.0)

    def test_thresholds_are_computed_once_per_shape(self):
        """A second call with the same (p, n) returns the same array, which
        is read-only so that no caller can change what the next one gets."""
        first = chi2_thresholds(7, 311)
        assert chi2_thresholds(7, 311) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
        assert chi2_thresholds(7, 312) is not first

    def test_report_consistency(self, diabetes):
        _, data = diabetes
        path = path_of(data, data.y)
        report = build_inference_report(data, path)
        # the p-space residual scale against the n-space projection
        basis = full_column_basis(data)
        y_raw = data.y * data.response_scale
        resid = y_raw - basis.vectors @ (basis.vectors.T @ y_raw)
        assert report.sigma_hat == pytest.approx(
            math.sqrt(float(resid @ resid) / (data.n - data.p)), rel=1e-12
        )
        W = step_statistics(path, report.sigma_hat, data.n)
        S = tail_sums(path, report.sigma_hat, data.n)
        assert np.allclose(report.S, W[::-1].cumsum()[::-1], atol=1e-10)
        assert report.S.tobytes() == S.tobytes()
        assert report.m_bar == estimate_m(report.S, report.thresholds)


class TestStackedReport:
    """``build_inference_report`` of a stack of responses, as the coverage
    study calls it, against one call per response."""

    @staticmethod
    def _name(r: int) -> str:
        return f"response {r}"

    def test_rows_match_one_response_calls(self, diabetes):
        _, data = diabetes
        rng = np.random.default_rng(61)
        Y = data.y + 0.05 * rng.standard_normal((5, data.n))
        Y -= Y.mean(axis=1, keepdims=True)
        paths = lar_batch(Y @ data.X, data.gram, row_name=self._name)
        report = build_inference_report(data, paths, Y, self._name)
        assert report.sigma_hat.shape == (5,) and report.S.shape == (5, data.p)
        assert np.array_equal(report.thresholds, chi2_thresholds(data.p, data.n))
        for i, y in enumerate(Y):
            one = build_inference_report(replace(data, y=y), paths.path(i))
            # the stacked products round differently from one response's
            assert report.m_bar[i] == one.m_bar
            assert report.sigma_hat[i] == pytest.approx(one.sigma_hat, rel=1e-12, abs=0)
            assert np.allclose(report.S[i], one.S, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("row, message", [
        (np.zeros(4), "response 1: the sample path stops at step 0 of 1; "),
        (None, "response 1: sigma_hat = 0: the design fits the response exactly"),
    ], ids=["stops early", "exact fit"])
    def test_failing_row_is_named(self, row, message):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        # y = 2a: the full fit leaves no residual, so sigma_hat is exactly 0
        data = standardize(a[:, None], 2.0 * a, center=True)
        noisy = data.y + np.array([0.3, -0.1, -0.4, 0.2])
        Y = np.vstack([noisy, data.y if row is None else row, noisy])
        paths = lar_batch(Y @ data.X, data.gram, row_name=self._name)
        with pytest.raises(DegenerateResponse) as err:
            build_inference_report(data, paths, Y, self._name)
        assert str(err.value).startswith(message)
