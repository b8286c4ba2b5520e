import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from helpers import (
    load_diabetes,
    orthonormal_design,
    path_of,
    population_instance,
    random_instance,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from larinfer.exceptions import (
    DegenerateResponse,
    DimensionMismatch,
    NonFiniteValue,
    NonPositiveScale,
    NotPrototypical,
    ZeroColumn,
)
from larinfer.identities import (
    ProjectionBasis,
    StepState,
    append_innovation,
    entrance_criteria,
    equiangular,
    equiangular_recursive,
    gamma_crossings,
    gamma_min_plus,
    population_correlation_closed_form,
    project,
    replay_states,
    step_state,
)
from larinfer.inference import build_inference_report
from larinfer.path import (
    LarPath,
    StandardizedData,
    _column_norms,
    _standardize_owned,
    lar_batch,
    margins,
    standardize,
)

DIABETES_ORDER = ["bmi", "ltg", "map", "hdl", "sex", "glu", "tc", "tch", "ldl", "age"]


class TestStandardize:
    def test_single_column_no_centering(self):
        data = standardize(np.array([[3.0], [4.0], [0.0]]), np.array([1.0, 1.0, 1.0]),
                           center=False)
        assert np.allclose(data.X[:, 0], [0.6, 0.8, 0.0])
        assert np.allclose(data.y, np.ones(3) / math.sqrt(3.0))
        assert data.column_scales[0] == 5.0
        assert data.response_scale == math.sqrt(3.0)

    def test_unit_norm_postcondition(self):
        rng = np.random.default_rng(0)
        data = standardize(rng.standard_normal((30, 5)) * 10, rng.standard_normal(30))
        assert np.allclose(np.einsum("ij,ij->j", data.X, data.X), 1.0, atol=1e-12)
        assert np.allclose(data.X.sum(axis=0), 0.0, atol=1e-10)
        assert abs(data.y.sum()) <= 1e-10

    def test_diabetes_design_already_standardized(self, diabetes):
        names, data = diabetes
        _, X_raw, y_raw = load_diabetes()
        assert np.allclose(data.X, X_raw, atol=1e-12)
        assert np.allclose(
            data.y, (y_raw - y_raw.mean()) / math.sqrt(len(y_raw)), atol=0
        )

    def test_zero_column(self):
        X = np.ones((5, 2))
        X[:, 1] = [1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(ZeroColumn):
            standardize(X, np.arange(5.0), center=True)  # constant column centers to 0

    def test_degenerate_response(self):
        rng = np.random.default_rng(1)
        with pytest.raises(DegenerateResponse):
            standardize(rng.standard_normal((6, 2)), np.full(6, 3.5), center=True)

    def test_rejects_wide_problems(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DimensionMismatch):
            standardize(rng.standard_normal((4, 4)), rng.standard_normal(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["design", "response"])
    def test_rejects_non_finite_input(self, bad, where):
        rng = np.random.default_rng(2)
        X, y = rng.standard_normal((10, 3)), rng.standard_normal(10)
        if where == "design":
            X[4, 1] = bad
        else:
            y[7] = bad
        with pytest.raises(NonFiniteValue):
            standardize(X, y)


def _layouts(rng, n, p):
    """One n x p design in every layout the design takes: C, F, column and
    row slices of each, and a reversed-column view."""
    wide = rng.standard_normal((2 * n, p + 3)) * rng.uniform(0.01, 100.0, p + 3)
    wide_f = np.asfortranarray(wide)
    return {
        "C": np.ascontiguousarray(wide[:n, :p]),
        "F": np.asfortranarray(wide[:n, :p]),
        "C columns": wide[:n, 1:p + 1],
        "F columns": wide_f[:n, 2:p + 2],
        "C rows": wide[::2, :p],
        "F rows": wide_f[::2, :p],
        "reversed": wide[:n, p - 1::-1],
    }


# (n, p): one and two columns, n below one block of columns, a remainder of
# one column past whole blocks, and the bench designs
NORM_SHAPES = [(7, 1), (7, 2), (9, 3), (5, 4), (40, 17), (60, 33), (442, 10), (1000, 20),
               (4000, 40), (5000, 200)]


@pytest.mark.parametrize("n, p", NORM_SHAPES)
def test_column_norms_match_numpy_bit_for_bit(n, p):
    rng = np.random.default_rng(n * 1000 + p)
    for name, X in _layouts(rng, n, p).items():
        assert _column_norms(X).tobytes() == np.linalg.norm(X, axis=0).tobytes(), name


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cell_found_in_every_column_block(bad):
    """The column-block finiteness check finds a bad cell in any column, first
    row or last, in either layout; the error is the whole-design check's."""
    rng = np.random.default_rng(3)
    n, p = 60, 40
    for order in "CF":
        for j in range(p):
            for i in (0, n - 1):
                X = np.array(rng.standard_normal((n, p)), order=order)
                X[i, j] = bad
                with pytest.raises(NonFiniteValue,
                                   match="design or response holds a NaN or infinite entry"):
                    _standardize_owned(X, rng.standard_normal(n), order == "F")


@pytest.mark.parametrize("order", ["C", "F"])
def test_finiteness_check_makes_no_n_by_p_temporary(order):
    """Checking a 4000 x 128 design whose last cell is NaN peaks below D/16.

    D = 8 n p bytes is the design; ``np.isfinite(X)`` over the whole design
    makes a D/8 bool temporary, a check 8 columns at a time one of D/128
    (plus numpy's 64 KiB iteration buffer on a strided C-ordered block).
    The NaN in the last cell makes every block be checked.
    """
    n, p = 4000, 128
    X = np.array(np.random.default_rng(4).standard_normal((n, p)), order=order)
    X[-1, -1] = np.nan
    y = np.ones(n)
    with pytest.raises(NonFiniteValue):
        _standardize_owned(X, y, True)  # warm-up
    tracemalloc.start()
    try:
        with pytest.raises(NonFiniteValue):
            _standardize_owned(X, y, order == "F")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= X.nbytes / 16, peak / X.nbytes


@pytest.mark.parametrize("center", [True, False])
@pytest.mark.parametrize("n, p", [(7, 1), (9, 3), (60, 33), (300, 40)])
def test_standardize_keeps_the_plain_formula_and_layout(n, p, center):
    """The centered design keeps the input's layout, the uncentered one is
    C-ordered, and both equal the out-of-place formula bit for bit."""
    rng = np.random.default_rng(p)
    for name, X in _layouts(rng, n, p).items():
        X_before = X.copy()
        y = rng.standard_normal(n)
        Z = X - X.mean(axis=0) if center else X.copy()
        norms = np.linalg.norm(Z, axis=0)
        data = standardize(X, y, center)
        assert data.X.tobytes() == (Z / norms).tobytes(), name
        assert np.isfortran(data.X) == np.isfortran(Z / norms), name
        assert data.column_scales.tobytes() == norms.tobytes(), name
        assert X.tobytes() == X_before.tobytes(), name


class TestLarPath:
    def test_single_variable(self):
        rng = np.random.default_rng(3)
        data = standardize(rng.standard_normal((8, 1)), rng.standard_normal(8),
                           center=False)
        path = path_of(data, data.y)
        c1 = float(data.X[:, 0] @ data.y)
        assert len(path.steps) == 1
        assert path.correlations[0] == pytest.approx(abs(c1), abs=0)
        assert path.signs[0] == (1.0 if c1 >= 0 else -1.0)
        assert path.angles[0] == pytest.approx(1.0, abs=1e-12)
        assert path.weights[0] == pytest.approx(abs(c1), abs=1e-15)
        assert path.coefficients[0, 0] == pytest.approx(c1, abs=1e-12)

    def test_diabetes_order_and_correlations(self, diabetes):
        names, data = diabetes
        path = path_of(data, data.y)
        assert [names[j] for j in path.entrants] == DIABETES_ORDER
        assert path.correlations[0] == pytest.approx(45.160, abs=1e-3)
        assert path.correlations[1] == pytest.approx(42.300, abs=1e-3)
        assert path.correlations[4] == pytest.approx(6.190, abs=1e-3)

    def test_orthonormal_sort_oracle(self):
        rng = np.random.default_rng(4)
        Q = orthonormal_design(rng, 40, 4)
        data = standardize(Q, rng.standard_normal(40), center=False)
        path = path_of(data, data.y)
        dots = data.X.T @ data.y
        expected = np.argsort(-np.abs(dots))
        assert path.entrants == expected.tolist()
        assert np.allclose(
            path.correlations, np.sort(np.abs(dots))[::-1], atol=1e-12
        )

    def test_tie_detected_and_lowest_index(self):
        rng = np.random.default_rng(5)
        Q = orthonormal_design(rng, 30, 3)
        y = Q[:, 0] + Q[:, 1] + 0.3 * Q[:, 2]
        data = standardize(Q, y, center=False)
        path = path_of(data, data.y)
        assert 1 in path.tie_steps
        assert path.entrants[0] == 0

    def test_population_path_terminates(self):
        rng = np.random.default_rng(6)
        data, mu = population_instance(rng, n=50, p=6, m=3)
        path = path_of(data, mu, zero_tol=1e-10)
        assert path.terminated_at <= 6
        # the fit at termination reproduces the mean
        fitted = data.X @ path.coefficients[-1]
        assert np.linalg.norm(fitted - mu) <= 1e-8

    def test_steps_are_the_step_numbers(self):
        """``steps`` is the range 1..m; the benchmark's trace counts a path's
        steps as its length."""
        rng = np.random.default_rng(6)
        data, mu = population_instance(rng, n=50, p=6, m=3)
        full = path_of(data, mu + 0.1 * rng.standard_normal(data.n))
        cut = path_of(data, mu, zero_tol=1e-10)
        empty = path_of(data, np.zeros(data.n))
        assert [path.terminated_at for path in (full, cut, empty)] == [6, 3, 0]
        for path in (full, cut, empty):
            assert path.steps == range(1, path.terminated_at + 1)


class TestPathInvariants:
    @pytest.mark.parametrize("seed", range(12))
    def test_algebraic_identities(self, seed):
        rng = np.random.default_rng(100 + seed)
        data = random_instance(rng, center=bool(seed % 2))
        path = path_of(data, data.y)
        p = data.p
        assert sorted(path.entrants) == list(range(p))

        fits = [np.zeros(data.n)] + [data.X @ b for b in path.coefficients]
        for k in path.steps:
            C_k = path.correlations[k - 1]
            # equal correlation on the active set (signed)
            active = path.entrants[:k]
            signs = path.signs[:k]
            dots = signs * (data.X[:, active].T @ (data.y - fits[k - 1]))
            assert np.max(dots) - np.min(dots) <= 1e-9
            assert np.max(np.abs(path.correlations_all[k - 1])) == pytest.approx(
                C_k, abs=1e-10
            )
            # correlation recursion
            if k < p:
                nxt = path.correlations[k]
                assert abs(nxt - (C_k - path.weights[k - 1] * path.angles[k - 1])) <= 1e-8
            # projection identity: fit_{k-1} + (C_k/A_k) a_k = P_k y
            basis = ProjectionBasis.empty(data.n)
            for j in active:
                basis, _ = append_innovation(basis, data.X[:, j], j)
            # reconstruct a_k from the equiangular system
            signed = data.X[:, active] * signs
            a_k, A_k = equiangular(signed)
            assert A_k == pytest.approx(path.angles[k - 1], abs=1e-10)
            lhs = fits[k - 1] + (C_k / path.angles[k - 1]) * a_k
            assert np.linalg.norm(lhs - project(basis, data.y)) <= 1e-8
            # consistency of the stored coefficients with the fit
            assert np.linalg.norm(data.X @ path.coefficients[k - 1] - fits[k]) <= 1e-8

        # strictly decreasing angles
        inv = path.inv_angle_sq
        assert np.all(np.diff(inv) > 0.0)
        assert np.all(np.diff(path.angles) < 0.0)

        # endpoint equals the least squares fit
        ols = data.X @ np.linalg.solve(data.X.T @ data.X, data.X.T @ data.y)
        assert np.linalg.norm(fits[-1] - ols) <= 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_sign_stability(self, seed):
        rng = np.random.default_rng(200 + seed)
        data = random_instance(rng)
        path = path_of(data, data.y)
        fits = [np.zeros(data.n)] + [data.X @ b for b in path.coefficients]
        for k in path.steps:
            for later in range(k - 1, len(path.steps)):
                value = float(data.X[:, path.entrants[k - 1]] @ (data.y - fits[later]))
                if abs(value) > 1e-9:
                    assert np.sign(value) == path.signs[k - 1]


class TestGamma:
    def _orthonormal_state(self):
        c = np.array([0.9, 0.3])
        return StepState(c, 0.9, 1.0, np.array([1.0, 0.0]),
                         np.array([True, False]))

    def test_orthogonal_two_variable_case(self):
        state = self._orthonormal_state()
        gamma, per, signs = gamma_crossings(state)
        assert gamma == pytest.approx(0.6, abs=1e-15)
        assert per[1] == pytest.approx(0.6, abs=1e-15)
        assert signs[1] == 1.0
        assert gamma_min_plus(state) == gamma

    def test_full_active_fallback(self):
        state = StepState(np.array([0.5]), 0.5, 1.0, np.array([1.0]),
                          np.array([True]))
        assert gamma_min_plus(state) == pytest.approx(0.5, abs=0)

    @pytest.mark.parametrize("seed", range(8))
    def test_dual_formula_agreement(self, seed):
        rng = np.random.default_rng(300 + seed)
        count = 0
        for _ in range(40):
            data = random_instance(rng)
            path = path_of(data, data.y)
            for k in range(1, len(path.steps)):
                state = step_state(path, k)
                g1, _, _ = gamma_crossings(state)
                g2 = gamma_min_plus(state)
                assert g1 == g2  # identical floats, same branch arithmetic
                assert g1 == path.weights[k - 1]
                count += 1
        assert count > 50

    def test_crossing_point_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            data = random_instance(rng)
            path = path_of(data, data.y)
            for k in range(1, len(path.steps)):
                state = step_state(path, k)
                gamma, _, _ = gamma_crossings(state)
                oracle = _first_crossing(state)
                assert gamma == pytest.approx(oracle, abs=1e-8)


def _first_crossing(state: StepState) -> float:
    """Smallest positive gamma where a non-active absolute correlation ties
    the declining active one, found by scan plus bisection."""
    c = state.correlations_all[~state.active_mask]
    w = state.equiangular_dots[~state.active_mask]
    C, A = state.correlation, state.angle

    def excess(g: float) -> float:
        return float(np.max(np.abs(c - g * w)) - (C - g * A))

    hi = C / A
    grid = np.linspace(0.0, hi, 20001)
    # excess at every grid point at once, with the same float operations
    values = np.max(np.abs(c - grid[:, None] * w), axis=1) - (C - grid * A)
    idx = int(np.argmax(values >= 0.0))
    if idx == 0:
        return 0.0
    lo, up = grid[idx - 1], grid[idx]
    for _ in range(80):
        mid = 0.5 * (lo + up)
        if excess(mid) >= 0.0:
            up = mid
        else:
            lo = mid
    return 0.5 * (lo + up)


class TestEquiangular:
    def test_single_signed_column(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(7)
        x /= np.linalg.norm(x)
        a, A = equiangular((-x).reshape(-1, 1))
        assert A == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(a, -x, atol=1e-12)

    def test_two_orthonormal_columns(self):
        S = np.eye(4)[:, :2]
        a, A = equiangular(S)
        assert A == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert np.allclose(a, (S[:, 0] + S[:, 1]) / math.sqrt(2.0), atol=1e-12)

    def test_unit_norm_and_equal_dots(self):
        rng = np.random.default_rng(13)
        data = random_instance(rng, n=30, p=5)
        S = data.X[:, :3] * np.array([1.0, -1.0, 1.0])
        a, A = equiangular(S)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(S.T @ a, A, atol=1e-10)
        assert 0.0 < A <= 1.0

    def test_recursive_first_step(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(6)
        x /= np.linalg.norm(x)
        a, A = equiangular_recursive(np.zeros(6), math.inf, x, x, -1.0)
        assert A == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(a, -x, atol=1e-12)

    def test_recursive_orthogonal_second_step(self):
        e1, e2 = np.eye(3)[:, 0], np.eye(3)[:, 1]
        a, A = equiangular_recursive(e1, 1.0, e2, e2, 1.0)
        assert A == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_recursive_matches_direct_along_chains(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            data = random_instance(rng, n=40, p=5)
            signs = rng.choice([-1.0, 1.0], 5)
            basis = ProjectionBasis.empty(40)
            a_prev, A_prev = np.zeros(40), math.inf
            for k in range(5):
                x = data.X[:, k]
                basis, innovation = append_innovation(basis, x, k)
                a_prev, A_prev = equiangular_recursive(
                    a_prev, A_prev, x, innovation, signs[k]
                )
                direct_a, direct_A = equiangular(data.X[:, : k + 1] * signs[: k + 1])
                assert direct_A == pytest.approx(A_prev, abs=1e-9)
                assert np.allclose(direct_a, a_prev, atol=1e-9)

    def test_non_positive_scale(self):
        a_prev = np.eye(3)[:, 0]
        x = np.array([0.8, 0.6, 0.0])
        innovation = x - 0.8 * a_prev
        with pytest.raises(NonPositiveScale):
            equiangular_recursive(a_prev, 0.7, x, innovation, 1.0)


class TestEntranceCriteria:
    def test_step_one_orthonormal(self):
        rng = np.random.default_rng(16)
        Q = orthonormal_design(rng, 25, 4)
        data = standardize(Q, rng.standard_normal(25), center=False)
        mu = data.X @ np.array([2.0, -1.0, 0.5, 0.0])
        path = path_of(data, mu, zero_tol=1e-10)
        state = next(replay_states(data, path))
        crit = entrance_criteria(data, mu, state)
        assert np.allclose(crit.values, np.abs(data.X.T @ mu), atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_argmax_matches_entrant_and_max_matches_correlation(self, seed):
        rng = np.random.default_rng(400 + seed)
        if seed % 2:
            data, response = population_instance(rng)
            path = path_of(data, response, zero_tol=1e-10)
        else:
            data = random_instance(rng)
            response = data.y
            path = path_of(data, response)
        for state in replay_states(data, path):
            crit = entrance_criteria(data, response, state)
            assert crit.argmax == state.entrant
            assert crit.values[state.entrant] == pytest.approx(
                path.correlations[state.k - 1], abs=1e-9
            )
            # penalized sequential-SS form agrees with the squared criterion
            nonactive = ~state.active_mask_prev
            assert np.allclose(
                crit.penalized_ss[nonactive],
                crit.values[nonactive] ** 2,
                atol=1e-9,
            )


class TestPopulationClosedForm:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_path_correlations(self, seed):
        rng = np.random.default_rng(500 + seed)
        data, mu = population_instance(rng)
        path = path_of(data, mu, zero_tol=1e-10)
        for state in replay_states(data, path):
            closed = population_correlation_closed_form(data, mu, state)
            assert closed == pytest.approx(
                path.correlations[state.k - 1], abs=1e-9
            )

    def test_projection_increment_identity(self):
        rng = np.random.default_rng(17)
        data, mu = population_instance(rng)
        path = path_of(data, mu, zero_tol=1e-10)
        for state in replay_states(data, path):
            C_k = path.correlations[state.k - 1]
            lhs = C_k * (state.direction - state.direction_prev)
            e = state.innovation
            rhs = e * (float(e @ mu) / float(e @ e))
            assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_projection_decomposition(self):
        rng = np.random.default_rng(18)
        data, mu = population_instance(rng, n=80, p=7, m=4)
        path = path_of(data, mu, zero_tol=1e-10)
        states = list(replay_states(data, path))
        m = len(states)
        innovations = [s.innovation for s in states]
        for k in range(1, m + 1):
            mu_k = data.X @ path.coefficients[k - 1]
            total = sum(
                e * (float(e @ mu) / float(e @ e)) for e in innovations[:k]
            )
            C_next = path.correlations[k] if k < m else 0.0
            state = states[k - 1]
            A_k = path.angles[k - 1]
            a_k = state.direction * A_k
            assert np.linalg.norm(mu_k - (total - (C_next / A_k) * a_k)) <= 1e-8


class TestMargins:
    def test_single_variable_is_vacuous(self):
        rng = np.random.default_rng(19)
        data = standardize(rng.standard_normal((10, 1)), rng.standard_normal(10),
                           center=False)
        path = path_of(data, data.y, zero_tol=1e-10)
        # no competitor at any step: both margins are +inf
        delta = margins(path)
        assert math.isinf(delta) and delta > 0.0

    def test_orthogonal_design_gap_formula(self):
        rng = np.random.default_rng(20)
        Q = orthonormal_design(rng, 40, 4)
        data = standardize(Q, rng.standard_normal(40), center=False)
        mu = data.X @ np.array([3.0, 2.0, 1.0, 0.0])
        path = path_of(data, mu, zero_tol=1e-10)
        delta = margins(path)
        magnitudes = np.abs(data.X.T @ mu)
        nonzero = np.sort(magnitudes[magnitudes > 1e-12])
        expected = min(np.min(np.diff(nonzero)), nonzero[0])
        assert delta == pytest.approx(expected, abs=1e-9)

    def test_not_prototypical_on_tie(self):
        rng = np.random.default_rng(21)
        Q = orthonormal_design(rng, 30, 3)
        data = standardize(Q, np.ones(30), center=False)
        mu = data.X[:, 0] + data.X[:, 1]
        path = path_of(data, mu, zero_tol=1e-10)
        assert path.tie_steps
        with pytest.raises(NotPrototypical):
            margins(path)


def _separated_design(seed: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Small raw design (n = 8p rows) and response with a clear signal."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((8 * p, p))
    return X, X @ rng.uniform(-2.0, 2.0, p) + rng.standard_normal(8 * p)


def _untied_path(data: StandardizedData, response: np.ndarray, zero_tol: float = 0.0):
    """The path of the response; draws within TIE_TOL of a tie are skipped."""
    path = path_of(data, response, zero_tol=zero_tol)
    assume(not path.tie_steps)
    return path

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(2, 6)


class TestInvarianceProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, p=sizes, center=st.booleans(), data=st.data())
    def test_permuting_columns_permutes_entrants(self, seed, p, center, data):
        X, y = _separated_design(seed, p)
        perm = np.array(data.draw(st.permutations(range(p))))
        base = standardize(X, y, center)
        path = _untied_path(base, base.y)
        C_1 = path.correlations[0]
        permuted = standardize(X[:, perm], y, center)
        new = path_of(permuted, permuted.y)
        position = np.argsort(perm)  # new index of each original column
        assert new.entrants == position[path.entrants].tolist()
        assert np.allclose(new.correlations, path.correlations, rtol=0.0, atol=1e-12 * C_1)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, p=sizes, center=st.booleans(), c=st.floats(1e-2, 1e2))
    def test_scaling_the_response_scales_step_correlations(self, seed, p, center, c):
        X, y = _separated_design(seed, p)
        data, scaled = standardize(X, y, center), standardize(X, c * y, center)
        path = _untied_path(data, data.y)
        C_1 = path.correlations[0]
        new = path_of(scaled, scaled.y)
        assert new.entrants == path.entrants
        assert np.allclose(new.correlations, c * path.correlations, rtol=0.0, atol=1e-12 * c * C_1)
        m_bar = build_inference_report(data, path).m_bar
        assert build_inference_report(scaled, new).m_bar == m_bar

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, p=sizes, shift=st.floats(-1e2, 1e2))
    def test_shifting_a_centered_response_changes_nothing(self, seed, p, shift):
        X, y = _separated_design(seed, p)
        data, shifted = standardize(X, y), standardize(X, y + shift)
        path = _untied_path(data, data.y)
        C_1 = path.correlations[0]
        new = path_of(shifted, shifted.y)
        assert new.entrants == path.entrants
        assert np.array_equal(new.signs, path.signs)
        assert np.allclose(new.correlations, path.correlations, rtol=0.0, atol=1e-12 * C_1)
        m_bar = build_inference_report(data, path).m_bar
        assert build_inference_report(shifted, new).m_bar == m_bar

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, p=sizes, center=st.booleans(), data=st.data())
    def test_flipping_a_column_flips_its_step_sign(self, seed, p, center, data):
        X, y = _separated_design(seed, p)
        j = data.draw(st.integers(0, p - 1))
        base = standardize(X, y, center)
        path = _untied_path(base, base.y)
        X[:, j] = -X[:, j]
        flipped = standardize(X, y, center)
        new = path_of(flipped, flipped.y)
        assert new.entrants == path.entrants
        expected = np.where(np.array(path.entrants) == j, -path.signs, path.signs)
        assert np.array_equal(new.signs, expected)

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, p=sizes, rows=st.integers(1, 5))
    def test_batch_rows_equal_single_paths(self, seed, p, rows):
        rng = np.random.default_rng(seed)
        data, mu = population_instance(rng, n=8 * p, p=p, m=max(1, p // 2))
        # noisy responses run all p steps; the mean stops at its support size
        Y = np.vstack([mu, mu + rng.standard_normal((rows, data.n)) / math.sqrt(data.n)])
        batch = lar_batch(Y @ data.X, data.gram, zero_tol=1e-10, traces=True)
        for i, response in enumerate(Y):
            single = _untied_path(data, response, zero_tol=1e-10)
            row = batch.path(i)
            for field in dataclasses.fields(LarPath):
                got, want = getattr(row, field.name), getattr(single, field.name)
                if isinstance(want, np.ndarray) and want.dtype == np.float64:
                    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
                    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale, field.name
                else:  # entrants, tie flags and the step count agree exactly
                    assert np.array_equal(got, want), field.name
