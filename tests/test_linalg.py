import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from larinfer.exceptions import DimensionMismatch, NotPositiveDefinite, RankDeficient
from larinfer.identities import ProjectionBasis, append_innovation, project
from larinfer.linalg import solve_spd


class TestSolveSpd:
    def test_identity(self):
        w = solve_spd(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0], atol=0)

    def test_diagonal_scaling(self):
        w = solve_spd(np.diag([2.0, 2.0]), np.array([2.0, 4.0]))
        assert np.allclose(w, [1.0, 2.0], atol=0)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((8, 5))
        G = A.T @ A
        rhs = rng.standard_normal(5)
        w = solve_spd(G, rhs)
        assert np.linalg.norm(G @ w - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_large_random_systems(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            A = rng.standard_normal((150, 100))
            G = A.T @ A
            rhs = rng.standard_normal(100)
            w = solve_spd(G, rhs)
            assert np.linalg.norm(G @ w - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_not_positive_definite_on_singular(self):
        v = np.array([1.0, 2.0])
        G = np.outer(v, v)  # rank one
        with pytest.raises(NotPositiveDefinite):
            solve_spd(G, np.ones(2))

    def test_not_positive_definite_on_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))

    def test_singular_system_of_a_stack_is_named(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((4, 5, 3))
        G = np.swapaxes(A, 1, 2) @ A
        v = rng.standard_normal(3)
        G[2] = np.outer(v, v)  # rank one
        with pytest.raises(NotPositiveDefinite, match="system 2"):
            solve_spd(G, np.ones((4, 3)))

    def test_near_collinear_pair_fails_the_relative_pivot_check(self):
        r = 1.0 - 1e-12  # correlation of the two unit-norm columns
        X = np.array([[1.0, r], [0.0, np.sqrt(1.0 - r * r)]])
        G = X.T @ X
        np.linalg.cholesky(G)  # LAPACK accepts the matrix
        with pytest.raises(NotPositiveDefinite):
            solve_spd(G, np.ones(2))

    def test_shape_errors(self):
        with pytest.raises(DimensionMismatch):
            solve_spd(np.ones((2, 3)), np.ones(2))
        with pytest.raises(DimensionMismatch):
            solve_spd(np.eye(3), np.ones(2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6))
    def test_residual_property(self, size, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((size + 3, size))
        G = A.T @ A + 0.1 * np.eye(size)
        rhs = rng.standard_normal(size)
        w = solve_spd(G, rhs)
        assert np.linalg.norm(G @ w - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))


class TestProject:
    def test_axis_projection(self):
        basis = ProjectionBasis(np.eye(3)[:, :1], (0,))
        assert np.allclose(project(basis, np.array([1.0, 2.0, 3.0])), [1.0, 0.0, 0.0])

    def test_vector_in_span(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        basis = ProjectionBasis(q, (0, 1))
        v = q @ np.array([2.0, -1.0])
        assert np.linalg.norm(project(basis, v) - v) <= 1e-10

    def test_idempotence(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((9, 3)))
        basis = ProjectionBasis(q, (0, 1, 2))
        v = rng.standard_normal(9)
        pv = project(basis, v)
        assert np.linalg.norm(project(basis, pv) - pv) <= 1e-10

    def test_residual_orthogonal_to_basis(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        basis = ProjectionBasis(q, tuple(range(4)))
        v = rng.standard_normal(10)
        resid = v - project(basis, v)
        assert np.max(np.abs(q.T @ resid)) <= 1e-10

    def test_normal_equations_oracle(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((12, 3))
        basis = ProjectionBasis.empty(12)
        for j in range(3):
            basis, _ = append_innovation(basis, X[:, j], j)
        v = rng.standard_normal(12)
        direct = X @ np.linalg.solve(X.T @ X, X.T @ v)
        assert np.allclose(project(basis, v), direct, atol=1e-10)

    def test_dimension_mismatch(self):
        basis = ProjectionBasis(np.eye(3)[:, :1], (0,))
        with pytest.raises(DimensionMismatch):
            project(basis, np.ones(4))


class TestAppendInnovation:
    def test_first_entrant_is_the_column(self):
        basis = ProjectionBasis.empty(2)
        basis, innovation = append_innovation(basis, np.array([0.6, 0.8]), 0)
        assert np.allclose(innovation, [0.6, 0.8], atol=0)
        assert np.allclose(basis.vectors[:, 0], [0.6, 0.8])

    def test_axis_removal(self):
        basis = ProjectionBasis(np.eye(3)[:, :1], (0,))
        x = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        _, innovation = append_innovation(basis, x, 1)
        assert np.allclose(innovation, [0.0, 1.0 / np.sqrt(2.0), 0.0], atol=1e-15)

    def test_innovation_chain_orthogonality(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((6, 3))
        basis = ProjectionBasis.empty(6)
        innovations = []
        for j in range(3):
            basis, e = append_innovation(basis, X[:, j], j)
            innovations.append(e)
        E = np.column_stack(innovations)
        gram = E.T @ E
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-10

    def test_basis_stays_orthonormal(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((20, 8))
        basis = ProjectionBasis.empty(20)
        for j in range(8):
            basis, _ = append_innovation(basis, X[:, j], j)
        gram = basis.vectors.T @ basis.vectors
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-12
        assert basis.indices == tuple(range(8))

    def test_rank_deficient_entrant(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(5)
        basis = ProjectionBasis.empty(5)
        basis, _ = append_innovation(basis, x, 0)
        with pytest.raises(RankDeficient):
            append_innovation(basis, 2.0 * x, 1)
