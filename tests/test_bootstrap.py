import math
import tracemalloc

import numpy as np
import pytest
from helpers import path_of, random_instance, use_naive_bootstrap

import larinfer.bootstrap as bootstrap
from larinfer.bootstrap import (
    BootstrapConfig,
    bootstrap_intervals,
    membership_curves,
)
from larinfer.identities import (
    bootstrap_errors,
    bootstrap_path_draw,
    full_column_basis,
    nearest_rank_quantile,
    residual_pool,
    terminal_coefficients,
)
from larinfer.inference import build_inference_report, sigma_hat
from larinfer.path import standardize


def _noiseless_data(rng, n=40, p=4, active=(0, 1)):
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[list(active)] = [2.0, -1.0]
    return standardize(X, X @ beta, center=False)


class TestConfig:
    def test_quantile_estimability_guard(self):
        with pytest.raises(ValueError):
            BootstrapConfig(draws=10, alpha=0.05)
        BootstrapConfig(draws=40, alpha=0.05)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            BootstrapConfig(alpha=0.0)

    @pytest.mark.parametrize("name, value", [
        ("seed", 1.5), ("seed", True), ("seed", -1), ("seed", "1"), ("seed", None),
        ("draws", 100.5), ("draws", True), ("draws", np.float64(100.0)),
    ])
    def test_rejects_a_count_that_is_not_a_non_negative_integer(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a"):
            BootstrapConfig(**{name: value})

    @pytest.mark.parametrize("removed", ["parallel", "threads"])
    def test_thread_settings_are_not_fields(self, removed):
        with pytest.raises(TypeError):
            BootstrapConfig(**{removed: 1})

    def test_numpy_integers_give_the_same_intervals(self, diabetes):
        _, data = diabetes
        path = path_of(data, data.y)
        plain, numpy_ints = (
            bootstrap_intervals(data, path, 5, BootstrapConfig(draws=draws, seed=seed))
            for draws, seed in ((120, 3), (np.int64(120), np.int64(3)))
        )
        assert np.array_equal(plain.correlation_intervals, numpy_ints.correlation_intervals)
        assert plain.coefficient_intervals == numpy_ints.coefficient_intervals
        assert np.array_equal(plain.membership_freq, numpy_ints.membership_freq)


class TestNearestRankQuantile:
    def test_rank_rule(self):
        values = np.arange(1.0, 501.0)
        # rank ceil(500 * 0.975) = 488
        assert nearest_rank_quantile(values, 0.975) == 488.0
        assert nearest_rank_quantile(values, 0.025) == 13.0
        assert nearest_rank_quantile(values, 1.0) == 500.0


class TestResidualPool:
    def test_pool_mean_zero(self):
        rng = np.random.default_rng(0)
        data = random_instance(rng, n=50, p=5)
        pool = residual_pool(data)
        assert abs(pool.mean()) <= 1e-12

    def test_pool_variance_matches_direct_computation(self):
        rng = np.random.default_rng(1)
        data = random_instance(rng, n=50, p=5)
        basis = full_column_basis(data)
        resid = data.y - basis.vectors @ (basis.vectors.T @ data.y)
        centered = resid - resid.mean()
        expected = float(centered @ centered) / 50 * (50 - 5) / 50
        pool = residual_pool(data)
        assert float(pool @ pool) / 50 == pytest.approx(expected, rel=1e-12)

    def test_noiseless_response_gives_zero_errors(self):
        rng = np.random.default_rng(2)
        data = _noiseless_data(rng)
        eps = bootstrap_errors(data, data.y, np.random.default_rng(5))
        assert np.allclose(eps, 0.0, atol=1e-12)


@pytest.mark.parametrize("naive", [False, True])
def test_resampling_center(diabetes, naive, monkeypatch):
    """The modified bootstrap resamples around the least-squares fit on the
    first m_bar entrants, the naive one around the full least-squares fit."""
    _, data = diabetes
    path = path_of(data, data.y)
    use_naive_bootstrap(monkeypatch, naive)
    setup = bootstrap.bootstrap_setup(data, data.y[None], [path], [4],
                                      sigma_hat(data, data.y[None] * data.response_scale))
    cols = list(range(data.p)) if naive else path.entrants[:4]
    expected = np.zeros(data.p)
    expected[cols] = np.linalg.lstsq(data.X[:, cols], data.y, rcond=None)[0]
    # the center's coefficients, from its X'mu
    center = np.linalg.solve(data.gram, setup.starts[0])
    assert np.allclose(center, expected, rtol=1e-10, atol=1e-12)
    assert np.allclose(setup.starts[0], data.X.T @ (data.X @ expected), rtol=1e-10, atol=1e-12)


class TestPathDraw:
    def test_degenerate_draw_reproduces_prefix(self):
        rng = np.random.default_rng(3)
        data = _noiseless_data(rng)
        path = path_of(data, data.y)
        m_bar = 2
        path_star, sigma_star = bootstrap_path_draw(
            data, path, m_bar, np.random.default_rng(11)
        )
        assert sigma_star == pytest.approx(0.0, abs=1e-12)
        for k in range(m_bar):
            assert path_star.correlations[k] == pytest.approx(
                path.correlations[k], abs=1e-10
            )
        # correlations beyond the kept prefix vanish
        assert np.all(path_star.correlations[m_bar:] <= 1e-10)

    def test_bit_reproducible(self, diabetes):
        _, data = diabetes
        path = path_of(data, data.y)
        a, sa = bootstrap_path_draw(data, path, 5, np.random.default_rng(21))
        b, sb = bootstrap_path_draw(data, path, 5, np.random.default_rng(21))
        assert sa == sb
        assert a.entrants == b.entrants
        assert np.array_equal(a.correlations, b.correlations)


class TestIntervals:
    def test_degenerate_zero_spread_intervals_are_points(self):
        rng = np.random.default_rng(4)
        data = _noiseless_data(rng)
        path = path_of(data, data.y)
        m_bar = 2
        cfg = BootstrapConfig(draws=50, alpha=0.05, seed=9)
        iv = bootstrap_intervals(data, path, m_bar, cfg)
        for k in range(1, m_bar + 1):
            lo, hi = iv.correlation_intervals[k - 1]
            assert lo == pytest.approx(path.correlations[k - 1], abs=1e-10)
            assert hi == pytest.approx(path.correlations[k - 1], abs=1e-10)
        b_bar, _ = terminal_coefficients(data, path, m_bar)
        for (k, j), (lo, hi) in iv.coefficient_intervals.items():
            center = b_bar[j] if k == m_bar else path.coefficients[k - 1, j]
            assert lo == pytest.approx(center, abs=1e-10)
            assert hi == pytest.approx(center, abs=1e-10)

    def test_interval_shapes_and_truncation(self, diabetes):
        _, data = diabetes
        path = path_of(data, data.y)
        report = build_inference_report(data, path)
        cfg = BootstrapConfig(draws=200, alpha=0.05, seed=17)
        iv = bootstrap_intervals(data, path, report.m_bar, cfg)
        assert iv.correlation_intervals.shape == (10, 2)
        assert np.all(iv.correlation_intervals[:, 0] >= 0.0)
        assert np.all(
            iv.correlation_intervals[:, 0] <= iv.correlation_intervals[:, 1]
        )
        m = report.m_bar
        assert len(iv.coefficient_intervals) == m * (m + 1) // 2
        for k in range(1, m + 1):
            for j in path.entrants[:k]:
                assert (k, j) in iv.coefficient_intervals

    def test_diabetes_first_correlation_interval(self, diabetes):
        _, data = diabetes
        path = path_of(data, data.y)
        cfg = BootstrapConfig(draws=500, alpha=0.05, seed=29)
        iv = bootstrap_intervals(data, path, 5, cfg)
        lo, hi = iv.correlation_intervals[0]
        assert lo == pytest.approx(39.806, rel=0.15)
        assert hi == pytest.approx(49.124, rel=0.15)

    def test_diabetes_late_step_interval_scale(self, diabetes):
        # steps past the first have square-root-increment factors far from 1,
        # so they pin down the orientation of the interval scale
        _, data = diabetes
        path = path_of(data, data.y)
        cfg = BootstrapConfig(draws=500, alpha=0.05, seed=29)
        iv = bootstrap_intervals(data, path, 5, cfg)
        lo2, hi2 = iv.correlation_intervals[1]
        assert lo2 == pytest.approx(37.516, rel=0.15)
        assert hi2 == pytest.approx(49.848, rel=0.15)
        _, hi9 = iv.correlation_intervals[8]
        assert hi9 == pytest.approx(0.607, rel=0.25)

    def test_diabetes_terminal_coefficient_interval(self, diabetes):
        names, data = diabetes
        path = path_of(data, data.y)
        cfg = BootstrapConfig(draws=500, alpha=0.05, seed=29)
        iv = bootstrap_intervals(data, path, 5, cfg)
        bmi = names.index("bmi")
        lo, hi = iv.coefficient_intervals[(5, bmi)]
        assert lo == pytest.approx(18.186, rel=0.20)
        assert hi == pytest.approx(29.997, rel=0.20)
        hdl = names.index("hdl")
        b_bar, raw_b_bar = terminal_coefficients(data, path, 5)
        assert np.allclose(iv.b_bar, b_bar, rtol=1e-12, atol=1e-12)
        assert np.allclose(iv.raw_b_bar, raw_b_bar, rtol=1e-12, atol=1e-12)
        assert b_bar[bmi] == pytest.approx(24.903, abs=1e-3)
        assert b_bar[hdl] == pytest.approx(-13.752, abs=1e-3)
        lo_h, hi_h = iv.coefficient_intervals[(5, hdl)]
        assert lo_h < b_bar[hdl] < hi_h
        assert lo_h < 0.0  # no truncation for coefficients

    def test_alpha_monotonicity(self, diabetes):
        _, data = diabetes
        path = path_of(data, data.y)
        narrow = bootstrap_intervals(
            data, path, 5, BootstrapConfig(draws=200, alpha=0.5, seed=37)
        )
        wide = bootstrap_intervals(
            data, path, 5, BootstrapConfig(draws=200, alpha=0.05, seed=37)
        )
        widths_narrow = np.diff(narrow.correlation_intervals, axis=1)
        widths_wide = np.diff(wide.correlation_intervals, axis=1)
        assert np.all(widths_narrow <= widths_wide + 1e-12)


    @pytest.mark.parametrize("naive", [False, True])
    def test_assembly_matches_per_cell_quantiles(self, diabetes, naive, monkeypatch):
        """The interval endpoints, from one sort per replication, equal the
        per-step and per-cell nearest-rank quantiles bit for bit."""
        _, data = diabetes
        path = path_of(data, data.y)
        cfg = BootstrapConfig(draws=199, alpha=0.1, seed=12)
        use_naive_bootstrap(monkeypatch, naive)
        setup = bootstrap.bootstrap_setup(data, data.y[None], [path], [5],
                                          sigma_hat(data, data.y[None] * data.response_scale))
        t_star, b_star, entries = next(bootstrap._collect(setup, [cfg]))
        iv = bootstrap._intervals(setup, 0, cfg, t_star, b_star, entries)
        sigma = float(setup.sigmas[0])
        lo_level, hi_level = cfg.alpha / 2.0, 1.0 - cfg.alpha / 2.0
        root_n = math.sqrt(data.n)
        for k in range(1, len(path.steps) + 1):
            q_hat = (path.signs[k - 1] * sigma
                     / (math.sqrt(path.inv_angle_sq_increments[k - 1]) * root_n))
            c_hat = path.correlations[k - 1]
            ends = (c_hat - nearest_rank_quantile(t_star[:, k - 1], hi_level) * q_hat,
                    c_hat - nearest_rank_quantile(t_star[:, k - 1], lo_level) * q_hat)
            assert tuple(iv.correlation_intervals[k - 1]) == (max(0.0, min(ends)), max(ends))
        scale = sigma / root_n
        cells = [(k, j) for k in range(1, 6) for j in path.entrants[:k]]
        assert list(iv.coefficient_intervals) == cells
        for i, (k, j) in enumerate(cells):
            center = setup.b_bars[0, j] if k == 5 else path.coefficients[k - 1, j]
            assert iv.coefficient_intervals[(k, j)] == (
                center - nearest_rank_quantile(b_star[:, i], hi_level) * scale,
                center - nearest_rank_quantile(b_star[:, i], lo_level) * scale,
            )


class TestMembership:
    def test_single_replica_step_functions(self):
        entry = np.array([[2.0, 1.0, 3.0]])
        freq = membership_curves(entry, 3)
        assert np.array_equal(freq[0], [0.0, 1.0, 1.0])
        assert np.array_equal(freq[1], [1.0, 1.0, 1.0])
        assert np.array_equal(freq[2], [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("draws, p", [(1, 1), (9, 1), (2, 3), (40, 7), (500, 25)])
    def test_bytes_match_the_broadcast_formula(self, draws, p):
        rng = np.random.default_rng(draws + 1000 * p)
        entries = rng.integers(1, p + 1, (draws, p)).astype(np.float64)
        steps = np.arange(1, p + 1)
        expected = (entries[:, :, None] <= steps[None, None, :]).mean(axis=0)
        assert membership_curves(entries, p).tobytes() == expected.tobytes()

    def test_wide_curves_make_no_draws_by_p_by_p_temporary(self):
        """500 replicas at p = 200: the draws x p x p comparison would take
        19 MiB; a step at a time stays under 2 MiB."""
        entries = np.random.default_rng(5).integers(1, 201, (500, 200)).astype(np.float64)
        tracemalloc.start()
        try:
            membership_curves(entries, 200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_rows_nondecreasing_and_reach_one(self, diabetes):
        _, data = diabetes
        path = path_of(data, data.y)
        iv = bootstrap_intervals(
            data, path, 5, BootstrapConfig(draws=100, seed=41)
        )
        freq = iv.membership_freq
        assert np.all(np.diff(freq, axis=1) >= 0.0)
        assert np.allclose(freq[:, -1], 1.0, atol=0)

    def test_diabetes_first_step_split(self, diabetes):
        names, data = diabetes
        path = path_of(data, data.y)
        iv = bootstrap_intervals(
            data, path, 5, BootstrapConfig(draws=500, seed=43)
        )
        bmi, ltg = names.index("bmi"), names.index("ltg")
        assert iv.membership_freq[bmi, 0] == pytest.approx(0.75, abs=0.10)
        assert iv.membership_freq[bmi, 0] + iv.membership_freq[ltg, 0] \
            == pytest.approx(1.0, abs=0.02)
