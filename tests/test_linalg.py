import math

import numpy as np
import pytest
import scipy.linalg as sla

from spclust.errors import DimensionMismatch, NotPositiveDefinite
from spclust.linalg import (
    REG_FLOOR,
    REG_LAMBDA,
    cholesky,
    is_pd,
    mahalanobis_sq,
    solve_norm_sq,
    solve_triangular,
    sym_eigen,
)

from oracles import is_psd


def random_spd(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + dim * np.eye(dim) * 0.1


def random_symmetric(rng, dim):
    a = rng.standard_normal((dim, dim))
    return 0.5 * (a + a.T)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3))[1], np.eye(3))

    def test_hand_factorization(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        l = cholesky(a)[1]
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        assert np.allclose(l, expected)
        assert np.allclose(l @ l.T, a)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_lower_triangular_positive_diagonal(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 5)
        l = cholesky(a)[1]
        assert np.allclose(l, np.tril(l))
        assert (np.diag(l) > 0).all()

    def test_reconstruction_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            dim = rng.integers(1, 9)
            a = random_spd(rng, dim)
            l = cholesky(a)[1]
            err = np.linalg.norm(l @ l.T - a) / np.linalg.norm(a)
            assert err < 1e-10

    def test_zero_matrix_regularized(self):
        # all-zero trace falls back to the absolute jitter floor
        l = cholesky(np.zeros((2, 2)))[1]
        assert (np.diag(l) > 0).all()

    def test_returns_the_matrix_it_factored(self):
        # the input itself when it factors as given, else the jittered copy
        a = random_spd(np.random.default_rng(4), 3)
        assert cholesky(a)[0] is a
        zero = np.zeros((2, 2))
        m, l = cholesky(zero)
        assert np.array_equal(m, REG_LAMBDA * REG_FLOOR * np.eye(2))
        assert not zero.any()
        assert np.allclose(l @ l.T, m, rtol=1e-12, atol=0.0)


class TestSymEigen:
    def test_already_diagonal(self):
        q, lam = sym_eigen(np.diag([3.0, 1.0]))
        assert np.allclose(lam, [3.0, 1.0])
        assert np.allclose(np.abs(q), np.eye(2))

    def test_two_by_two_hand_case(self):
        q, lam = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(lam, [3.0, 1.0])
        v = 1.0 / math.sqrt(2.0)
        assert np.allclose(np.abs(q[:, 0]), [v, v])
        assert np.allclose(np.abs(q[:, 1]), [v, v])

    def test_identity(self):
        q, lam = sym_eigen(np.eye(4))
        assert np.allclose(lam, np.ones(4))

    def test_descending_order(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            _, lam = sym_eigen(random_symmetric(rng, 6))
            assert (np.diff(lam) <= 1e-12).all()

    def test_reconstruction_and_orthonormality_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            dim = rng.integers(1, 9)
            a = random_symmetric(rng, dim)
            q, lam = sym_eigen(a)
            recon = q @ np.diag(lam) @ q.T
            denom = max(np.linalg.norm(a), 1e-300)
            assert np.linalg.norm(recon - a) / denom < 1e-9 or np.linalg.norm(recon - a) < 1e-12
            assert np.linalg.norm(q.T @ q - np.eye(dim)) < 1e-10


class TestMahalanobis:
    def test_zero_deviation(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert mahalanobis_sq(np.array([1.0, -2.0]), np.array([1.0, -2.0]), sigma) == 0.0

    def test_euclidean_reduction(self):
        d = mahalanobis_sq(np.array([1.0, 0.0]), np.zeros(2), np.eye(2))
        assert d == pytest.approx(1.0)

    def test_diagonal_scaling(self):
        d = mahalanobis_sq(np.array([2.0, 0.0]), np.zeros(2), np.diag([4.0, 1.0]))
        assert d == pytest.approx(1.0)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dim = rng.integers(2, 7)
            sigma = random_spd(rng, dim)
            x = rng.standard_normal(dim)
            mu = rng.standard_normal(dim)
            q, _ = sym_eigen(random_symmetric(rng, dim))
            base = mahalanobis_sq(x, mu, sigma)
            rotated = mahalanobis_sq(q @ x, q @ mu, q @ sigma @ q.T)
            assert rotated == pytest.approx(base, rel=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mahalanobis_sq(np.zeros(3), np.zeros(2), np.eye(2))

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            dim = rng.integers(1, 6)
            d = mahalanobis_sq(rng.standard_normal(dim), rng.standard_normal(dim),
                               random_spd(rng, dim))
            assert d >= 0.0

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(13)
        sigma = random_spd(rng, 4)
        x = rng.standard_normal(4)
        mu = rng.standard_normal(4)
        delta = x - mu
        expected = float(delta @ np.linalg.solve(sigma, delta))
        assert mahalanobis_sq(x, mu, sigma) == pytest.approx(expected, rel=1e-10)


class TestSolveNormSq:
    def test_unrolled_matches_lapack(self):
        # the d<=3 fast paths must agree with the generic solver
        rng = np.random.default_rng(17)
        for dim in (1, 2, 3, 4, 6):
            sigma = random_spd(rng, dim)
            l = cholesky(sigma)[1]
            delta = rng.standard_normal(dim)
            y = np.linalg.solve(l, delta)
            assert solve_norm_sq(l, delta) == pytest.approx(float(y @ y), rel=1e-12)

    def test_batched_matches_scalar(self):
        from spclust.linalg import solve_norm_sq_many

        rng = np.random.default_rng(19)
        for dim in (2, 5):
            l = cholesky(random_spd(rng, dim))[1]
            deltas = rng.standard_normal((12, dim))
            batched = solve_norm_sq_many(l, deltas)
            for k in range(12):
                assert batched[k] == pytest.approx(solve_norm_sq(l, deltas[k]), rel=1e-12)


    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_stacked_matches_separate_calls_bitwise(self, dim):
        rng = np.random.default_rng(23 + dim)
        chols = [cholesky(random_spd(rng, dim))[1] for _ in range(20)]
        chols[3] = np.eye(dim)
        deltas = rng.standard_normal((20, dim))
        deltas[5] = 0.0
        stacked = solve_norm_sq(np.stack(chols, axis=-1), deltas.T)
        assert stacked.tolist() == [solve_norm_sq(c, d) for c, d in zip(chols, deltas)]
        # one factor broadcast over every delta
        shared = solve_norm_sq(chols[0][..., None], deltas.T)
        assert shared.tolist() == [solve_norm_sq(chols[0], d) for d in deltas]


class TestDirectLapack:
    def test_matches_scipy_wrappers_bitwise(self):
        # dsyevr's own default workspace would change eigh's bits from n = 40
        rng = np.random.default_rng(29)
        for dim in (1, 2, 3, 5, 40, 64):
            for _ in range(3):
                a = random_spd(rng, dim)
                chol = cholesky(a)[1]
                assert np.array_equal(chol, sla.cholesky(a, lower=True))
                b = rng.standard_normal((dim, 3))
                for factor in (chol, np.ascontiguousarray(chol)):
                    assert np.array_equal(solve_triangular(factor, b),
                                          sla.solve_triangular(factor, b, lower=True))
                    assert np.array_equal(solve_triangular(factor, b[:, 0]),
                                          sla.solve_triangular(factor, b[:, 0], lower=True))
                sym = random_symmetric(rng, dim)
                q, lam = sym_eigen(sym)
                lam_ref, q_ref = sla.eigh(sym)
                assert np.array_equal(lam, lam_ref[::-1])
                assert np.array_equal(q, q_ref[:, ::-1])

    def test_is_pd_is_a_plain_factorization(self):
        assert is_pd(np.eye(2))
        assert not is_pd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        # cholesky would jitter this one into a factor; is_pd does not
        assert not is_pd(np.zeros((2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestIsPsd:
    def test_identity(self):
        assert is_psd(np.eye(2), 0.0)

    def test_indefinite(self):
        assert not is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]), 1e-8)

    def test_zero_boundary(self):
        assert is_psd(np.zeros((3, 3)), 1e-8)
