"""The p-space path engine against the n-space reference in ``helpers``."""

import numpy as np
import pytest
from helpers import path_of, reference_lar_path_nspace

from larinfer.exceptions import RankDeficient
from larinfer.identities import with_response
from larinfer.inference import build_inference_report
from larinfer.linalg import GRAM_RANK_TOL, cholesky_spd, gram_factor
from larinfer.path import standardize

EPS = np.finfo(np.float64).eps


def _design(seed: int):
    """Seeded design of one of four shapes, cycling with the seed.

    0: generic; 1: a near-collinear pair (correlation about 0.999);
    2: p close to n; 3: a noiseless sparse mean for a population path.
    Even seeds center the data, odd seeds do not.
    """
    rng = np.random.default_rng([20, seed])
    shape = seed % 4
    if shape == 2:
        p = int(rng.integers(3, 30))
        n = p + int(rng.integers(2, 4))
    else:
        n = int(rng.integers(30, 400))
        p = int(rng.integers(2, min(30, n - 2)))
    X = rng.standard_normal((n, p))
    if shape == 1:
        X[:, 1] = X[:, 0] + 0.05 * rng.standard_normal(n)
    beta = np.zeros(p)
    m = int(rng.integers(1, p + 1))
    beta[rng.choice(p, m, replace=False)] = rng.uniform(0.5, 2.0, m) * rng.choice([-1, 1], m)
    if shape == 3:
        data = standardize(X, X @ beta, center=seed % 2 == 0)
        return data, 1e-10, "population"
    data = standardize(X, X @ beta + rng.standard_normal(n), center=seed % 2 == 0)
    return data, 0.0, "sample"


def _max_rel_diff(new, ref) -> float:
    new, ref = np.asarray(new), np.asarray(ref)
    if ref.size == 0:
        return 0.0
    return float(np.max(np.abs(new - ref)) / max(1.0, float(np.max(np.abs(ref)))))


@pytest.mark.parametrize("seed", range(60))
def test_matches_nspace_reference(seed):
    data, zero_tol, kind = _design(seed)
    new = path_of(data, data.y, zero_tol=zero_tol)
    ref = reference_lar_path_nspace(data, data.y, zero_tol=zero_tol)
    assert new.entrants == ref.entrants
    assert new.tie_steps == ref.tie_steps
    assert new.terminated_at == ref.terminated_at
    assert np.array_equal(new.signs, ref.signs)
    assert _max_rel_diff(new.correlations, ref.correlations) <= 1e-10
    assert _max_rel_diff(new.angles, ref.angles) <= 1e-10
    for w_new, w_ref, c_new, c_ref in zip(new.equiangular_dots, ref.equiangular_dots,
                                          new.correlations_all, ref.correlations_all):
        assert _max_rel_diff(w_new, w_ref) <= 1e-10
        assert _max_rel_diff(c_new, c_ref) <= 1e-10
    assert _max_rel_diff(new.coefficients, ref.coefficients) <= 1e-10
    assert _max_rel_diff(new.refits, ref.refits) <= 1e-10
    if kind == "sample":
        m_new = build_inference_report(data, new).m_bar
        m_ref = build_inference_report(data, ref).m_bar
        assert m_new == m_ref


@pytest.mark.parametrize("noise", [1e-3, 1e-4])
@pytest.mark.parametrize("seed", range(5))
def test_strong_collinearity_error_scales_with_condition_squared(seed, noise):
    """Forming X'X costs accuracy: the coefficient error grows like eps * cond(X)^2."""
    rng = np.random.default_rng([21, seed])
    n, p = int(rng.integers(40, 300)), int(rng.integers(3, 15))
    X = rng.standard_normal((n, p))
    X[:, 1] = X[:, 0] + noise * rng.standard_normal(n)
    data = standardize(X, X @ rng.standard_normal(p) + rng.standard_normal(n),
                       center=seed % 2 == 0)
    new = path_of(data, data.y)
    ref = reference_lar_path_nspace(data, data.y)
    assert new.entrants == ref.entrants
    bound = 50.0 * EPS * np.linalg.cond(data.X) ** 2
    assert _max_rel_diff(new.coefficients, ref.coefficients) <= bound
    assert _max_rel_diff(new.refits, ref.refits) <= bound


def test_factor_is_shared_across_responses():
    rng = np.random.default_rng(22)
    data = standardize(rng.standard_normal((50, 4)), rng.standard_normal(50))
    other = with_response(data, rng.standard_normal(50))
    assert other.gram_factor is data.gram_factor
    R = data.gram_factor
    assert np.allclose(R.T @ R, data.X.T @ data.X, atol=1e-14)
    assert np.array_equal(R, np.triu(R))


class TestRankPolicy:
    @pytest.mark.parametrize("zero_tol", [0.0, 1e-10, 0.5])
    def test_duplicate_column_rejected_at_any_zero_tol(self, zero_tol):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((30, 3))
        X[:, 2] = -3.0 * X[:, 0]
        with pytest.raises(RankDeficient):
            data = standardize(X, rng.standard_normal(30))
            path_of(data, data.y, zero_tol=zero_tol)

    def test_exact_linear_combination_rejected(self):
        rng = np.random.default_rng(24)
        X = rng.standard_normal((40, 4))
        X[:, 3] = X[:, 0] + 2.0 * X[:, 1]
        with pytest.raises(RankDeficient):
            gram_factor(standardize(X, rng.standard_normal(40)).X)

    @pytest.mark.parametrize("noise, rejected", [(1e-9, True), (1e-4, False)])
    def test_tolerance_on_the_pivot(self, noise, rejected):
        rng = np.random.default_rng(25)
        X = rng.standard_normal((60, 3))
        X[:, 1] = X[:, 0] + noise * rng.standard_normal(60)
        y = rng.standard_normal(60)
        if rejected:
            with pytest.raises(RankDeficient):
                gram_factor(standardize(X, y).X)
        else:
            _, R = gram_factor(standardize(X, y).X)
            assert np.min(np.abs(np.diag(R))) > GRAM_RANK_TOL

    @pytest.mark.parametrize("seed", range(4))
    def test_accepted_design_passes_every_active_block(self, seed):
        """The design's distances bound every pivot of every active block, so
        a design just beyond the tolerance never trips the pivot check of a
        refit, in any entry order."""
        rng = np.random.default_rng([26, seed])
        n, p = 80, 6
        X = rng.standard_normal((n, p))
        e = rng.standard_normal(n)
        e /= np.linalg.norm(e)
        X[:, 1] = X[:, 0] - 0.5 * X[:, 2] + 2.0 * GRAM_RANK_TOL * np.linalg.norm(X[:, 0]) * e
        data = standardize(X, rng.standard_normal(n))
        G = data.gram
        distances = 1.0 / np.sqrt(np.diag(np.linalg.inv(G)))
        assert GRAM_RANK_TOL < distances.min() < 5.0 * GRAM_RANK_TOL
        for _ in range(50):
            order = rng.permutation(p)[: rng.integers(1, p + 1)]
            L = cholesky_spd(G[np.ix_(order, order)])
            assert np.diag(L).min() >= (1.0 - 1e-6) * distances[order].min()
