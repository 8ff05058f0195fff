"""Tests for the linear-algebra primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodkit.numerics import (DimensionMismatch, NotPositiveDefinite,
                             TooFewSamples, mahalanobis_sq,
                             regularized_cholesky, regularized_inverse,
                             sample_covariance, softmax)


def random_spd(rng, dim, cond_max=1e6):
    """Random SPD matrix with condition number at most cond_max."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    vals = np.exp(rng.uniform(0.0, np.log(cond_max), size=dim))
    vals = vals / vals.max()          # spectrum in (1/cond_max, 1]
    return (q * vals) @ q.T


class TestRegularizedCholesky:
    def test_factor_reconstructs_regularized_matrix(self):
        rng = np.random.default_rng(7)
        sigma = random_spd(rng, 6)
        lower = regularized_cholesky(sigma, eps0=1e-4)
        np.testing.assert_array_equal(lower, np.tril(lower))
        np.testing.assert_allclose(lower @ lower.T, sigma + 1e-4 * np.eye(6),
                                   atol=1e-14)

    def test_negative_definite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            regularized_cholesky(-np.eye(3))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("shape,index", [((2, 2), (0, 0)),
                                             ((3, 2, 2), (1, 1, 1))])
    def test_non_finite_entry_raises(self, bad, shape, index):
        # built directly: computing an overflowed covariance would warn
        sigma = np.broadcast_to(np.eye(2), shape).copy()
        sigma[index] = bad
        with pytest.raises(NotPositiveDefinite):
            regularized_cholesky(sigma)

    def test_stack_factors_each_matrix_at_its_own_scale(self):
        rng = np.random.default_rng(8)
        stack = np.array([random_spd(rng, 4) * 1e3, random_spd(rng, 4)])
        np.testing.assert_array_equal(
            regularized_cholesky(stack),
            [regularized_cholesky(sigma) for sigma in stack])
        # an asymmetry of 1e-9 is in tolerance at scale 1e3, not at 1
        skew = np.zeros((4, 4))
        skew[0, 1] = 1e-9
        regularized_cholesky(np.array([stack[0] + skew, stack[1]]))
        with pytest.raises(DimensionMismatch):
            regularized_cholesky(np.array([stack[0], stack[1] + skew]))
        with pytest.raises(NotPositiveDefinite):
            regularized_cholesky(np.array([stack[0], -stack[1]]))


class TestRegularizedInverse:
    def test_identity_no_regularization(self):
        np.testing.assert_allclose(regularized_inverse(np.eye(2), eps0=0.0),
                                   np.eye(2), atol=1e-14)

    def test_diagonal_reciprocal(self):
        inv = regularized_inverse(np.diag([2.0, 5.0]), eps0=1e-4)
        np.testing.assert_allclose(inv, np.diag([1 / 2.0001, 1 / 5.0001]),
                                   rtol=1e-12)

    def test_residual_against_direct_solve(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = random_spd(rng, 3)
            r = regularized_inverse(a, eps0=1e-4)
            target = a + 1e-4 * np.eye(3)
            assert np.max(np.abs(target @ r - np.eye(3))) <= 1e-8
            np.testing.assert_allclose(r, np.linalg.solve(target, np.eye(3)),
                                       rtol=1e-8)

    def test_residual_bound_many_sizes(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            dim = int(rng.integers(1, 33))
            a = random_spd(rng, dim)
            r = regularized_inverse(a, eps0=1e-4)
            resid = np.max(np.abs((a + 1e-4 * np.eye(dim)) @ r - np.eye(dim)))
            assert resid <= 1e-8

    def test_result_symmetric(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 5)
        r = regularized_inverse(a)
        assert np.max(np.abs(r - r.T)) <= 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            regularized_inverse(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionMismatch):
            regularized_inverse(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            regularized_inverse(np.diag([-5.0, 1.0]), eps0=1e-4)


class TestMahalanobisSq:
    def test_zero_displacement(self):
        assert mahalanobis_sq([1.0, 2.0], [1.0, 2.0], np.eye(2)) == 0.0

    def test_unit_case(self):
        assert mahalanobis_sq([1.0, 0.0], [0.0, 0.0], np.eye(2)) == 1.0

    def test_diagonal_weights(self):
        sigma_inv = regularized_inverse(np.diag([1.0, 4.0]), eps0=0.0)
        d = mahalanobis_sq([1.0, 1.0], [0.0, 0.0], sigma_inv)
        assert d == pytest.approx(1.25, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mahalanobis_sq([1.0, 2.0], [1.0], np.eye(2))
        with pytest.raises(DimensionMismatch):
            mahalanobis_sq([1.0, 2.0], [1.0, 2.0], np.eye(3))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 8))
        sigma_inv = regularized_inverse(random_spd(rng, dim), eps0=1e-4)
        x = rng.standard_normal(dim)
        mu = rng.standard_normal(dim)
        assert mahalanobis_sq(x, mu, sigma_inv) >= 0.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dim = int(rng.integers(2, 8))
            sigma = random_spd(rng, dim)
            x = rng.standard_normal(dim)
            mu = rng.standard_normal(dim)
            a = rng.standard_normal((dim, dim)) + 2.0 * np.eye(dim)
            d0 = mahalanobis_sq(x, mu, np.linalg.inv(sigma))
            d1 = mahalanobis_sq(a @ x, a @ mu,
                                np.linalg.inv(a @ sigma @ a.T))
            assert abs(d0 - d1) <= 1e-8 * max(1.0, d0)


class TestSampleCovariance:
    def test_identical_rows_zero(self):
        cov = sample_covariance(np.array([[1.0, 2.0], [1.0, 2.0]]))
        np.testing.assert_allclose(cov, np.zeros((2, 2)), atol=1e-14)

    def test_hand_example(self):
        cov = sample_covariance(np.array([[0.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_allclose(cov, [[2.0, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_two_pass_oracle(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((100, 4))
        mean = f.mean(axis=0)
        oracle = np.zeros((4, 4))
        for row in f:
            d = (row - mean)[:, None]
            oracle += d @ d.T
        oracle /= f.shape[0] - 1
        np.testing.assert_allclose(sample_covariance(f), oracle, atol=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            sample_covariance(np.zeros((1, 3)))

    def test_symmetric_psd(self):
        rng = np.random.default_rng(5)
        cov = sample_covariance(rng.standard_normal((30, 5)))
        assert np.max(np.abs(cov - cov.T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-10


def column_softmax_on_axes(m):
    """The column softmax of a 2-d m three ways: softmax along axis 0 of m,
    along axis 1 of m.T (rows, as soft labels and logit adjustment use it)
    and along axis 2 of m.T as a (c, 1, r) tensor (as attention uses it)."""
    m = np.asarray(m, dtype=float)
    return [softmax(m, 0), softmax(m.T, 1).T,
            softmax(m.T[:, None, :], 2)[:, 0, :].T]


class TestColumnSoftmax:
    def test_symmetric_column(self):
        for out in column_softmax_on_axes([[0.0], [0.0]]):
            np.testing.assert_allclose(out, [[0.5], [0.5]])

    def test_no_overflow_on_large_inputs(self):
        for out in column_softmax_on_axes([[1000.0], [1000.0]]):
            np.testing.assert_allclose(out, [[0.5], [0.5]])

    def test_hand_values(self):
        for out in column_softmax_on_axes([[0.0], [np.log(3.0)]]):
            np.testing.assert_allclose(out, [[0.25], [0.75]], rtol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_columns_sum_to_one_and_argmax_preserved(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((int(rng.integers(1, 6)),
                                 int(rng.integers(1, 6)))) * 10
        for out in column_softmax_on_axes(m):
            np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)
            assert np.all(out > 0) and np.all(out < 1 + 1e-12)
            np.testing.assert_array_equal(np.argmax(out, axis=0),
                                          np.argmax(m, axis=0))
