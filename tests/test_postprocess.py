"""Tests for the inference-time scoring pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodkit import harness
from oodkit import postprocess as post
from oodkit.numerics import sample_covariance, scatter_covariance
from oodkit.postprocess import (DegenerateFeatures, adjust_logits,
                                default_d_prime, energy_score, msp_score,
                                score_report, vim_calibrate, vim_score)


class TestAdjustLogits:
    def test_ood_argmax_becomes_uniform(self):
        out = adjust_logits(np.array([[0.2, 0.1, 0.7]]), 2)
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_id_rows_softmax_normalized(self):
        out = adjust_logits(np.array([[2.0, 0.0, -1.0]]), 2)
        e = np.exp([2.0, 0.0])
        np.testing.assert_allclose(out, [e / e.sum()], rtol=1e-12)
        np.testing.assert_allclose(out[0], [0.8808, 0.1192], atol=1e-4)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((50, 4))
        out = adjust_logits(raw, 3)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_branch_condition_row_by_row(self):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((100, 5))
        out = adjust_logits(raw, 4)
        for row_in, row_out in zip(raw, out):
            if np.argmax(row_in) == 4:
                np.testing.assert_allclose(row_out, 0.25)
            else:
                e = np.exp(row_in[:4] - row_in[:4].max())
                np.testing.assert_allclose(row_out, e / e.sum(), rtol=1e-12)


class TestMspScore:
    def test_uniform(self):
        assert msp_score(np.array([0.5, 0.5])[None])[0] == 0.5

    def test_max_entry(self):
        assert msp_score(np.array([0.9, 0.1])[None])[0] == 0.9

    def test_simplex_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            row = rng.dirichlet(np.ones(k))
            assert 1.0 / k <= msp_score(row[None])[0] <= 1.0


class TestEnergyScore:
    def test_hand_value(self):
        assert energy_score(np.array([0.0, 0.0])[None])[0] == pytest.approx(
            np.log(2.0), rel=1e-12)

    def test_shift_covariance(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal(4)
        base = energy_score(logits[None])[0]
        assert energy_score((logits + 2.5)[None])[0] == pytest.approx(
            base + 2.5, rel=1e-10)

    def test_large_temperature_asymptote(self):
        logits = np.array([1.0, 2.0, 3.0])
        t = 1e6
        expected = t * np.log(3.0) + logits.mean()
        assert energy_score(logits[None], t)[0] == pytest.approx(expected,
                                                                 rel=1e-6)

    def test_no_overflow(self):
        assert np.isfinite(energy_score(np.array([1e4, 1e4])[None])[0])

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            energy_score(np.array([0.0])[None], 0.0)


BLOCK = harness.EVAL_BLOCK_ROWS


def blocks_of(features, logits):
    """The block source `vim_calibrate` takes, over in-memory arrays: each
    call returns a fresh iterator over consecutive BLOCK-row blocks, as
    `evaluate_model` feeds it from the model."""
    return lambda: ((features[i:i + BLOCK], logits[i:i + BLOCK])
                    for i in range(0, len(features), BLOCK))


class TestVim:
    def test_subspace_confined_features_degenerate(self):
        rng = np.random.default_rng(4)
        coords = rng.standard_normal((20, 1))
        feats = np.hstack([coords, 2.0 * coords])  # rank-1 in 2-d
        with pytest.raises(DegenerateFeatures):
            vim_calibrate(
                blocks_of(feats, rng.standard_normal((20, 3))), 1)

    def test_zero_dim_basis_residual_is_distance_to_mean(self):
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((30, 3))
        logits = np.abs(rng.standard_normal((30, 2)))
        calib = vim_calibrate(blocks_of(feats, logits), 0)
        x = feats[0]
        expected_res = np.linalg.norm(x - feats.mean(axis=0))
        adjusted = np.array([0.6, 0.4])
        lse = np.log(np.sum(np.exp(adjusted)))
        got = vim_score(x[None], adjusted[None], calib)[0]
        assert got == pytest.approx(lse - calib.alpha * expected_res,
                                    rel=1e-10)

    def test_alpha_two_pass_oracle(self):
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((50, 4))
        logits = rng.standard_normal((50, 3))
        d_prime = 2
        calib = vim_calibrate(blocks_of(feats, logits), d_prime)
        mean = feats.mean(axis=0)
        centered = feats - mean
        cov = centered.T @ centered / (len(feats) - 1)
        vals, vecs = np.linalg.eigh(cov)
        basis = vecs[:, np.argsort(vals)[::-1][:d_prime]].T
        res = np.linalg.norm(
            centered - (centered @ basis.T) @ basis, axis=1)
        alpha = np.sum(np.max(logits, axis=1)) / np.sum(res)
        assert calib.alpha == pytest.approx(alpha, rel=1e-10)

    def test_zero_residual_pure_logsumexp(self):
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((30, 2))
        calib = vim_calibrate(
            blocks_of(feats, np.abs(rng.standard_normal((30, 2)))), 1)
        adjusted = np.array([0.7, 0.3])
        got = vim_score(calib.feature_mean[None], adjusted[None], calib)[0]
        assert got == pytest.approx(np.log(np.sum(np.exp(adjusted))),
                                    rel=1e-10)

    def test_score_decreasing_in_residual(self):
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((40, 2))
        calib = vim_calibrate(
            blocks_of(feats, np.abs(rng.standard_normal((40, 2)))), 0)
        adjusted = np.array([0.5, 0.5])
        direction = np.array([1.0, 0.0])
        scores = [vim_score((calib.feature_mean + r * direction)[None],
                            adjusted[None], calib)[0] for r in (0.0, 1.0, 2.0)]
        assert scores[0] > scores[1] > scores[2]

    def test_hand_worked_example(self):
        feats = np.array([[1.0, 0.1], [-1.0, -0.1],
                          [2.0, -0.1], [-2.0, 0.1]])
        logits = np.full((4, 2), 1.0)
        calib = vim_calibrate(blocks_of(feats, logits), 1)
        # dominant variance lies on the x axis
        assert abs(abs(calib.principal_basis[0, 0]) - 1.0) <= 0.01
        # residual of a probe point, recomputed by hand from the basis
        probe = np.array([0.0, 3.0])
        centered = probe - calib.feature_mean
        proj = (centered @ calib.principal_basis.T) @ calib.principal_basis
        expected_res = np.linalg.norm(centered - proj)
        adjusted = np.array([0.5, 0.5])
        lse = np.log(np.sum(np.exp(adjusted)))
        got = vim_score(probe[None], adjusted[None], calib)[0]
        assert got == pytest.approx(lse - calib.alpha * expected_res,
                                    rel=1e-10)

    def test_default_d_prime(self):
        assert default_d_prime(64) == 63
        assert default_d_prime(128) == 64
        assert default_d_prime(8) == 4
        assert default_d_prime(3) == 1
        assert default_d_prime(2) == 1


def energy_row_oracle(logits, temperature):
    """The per-row energy formula the batched scorer replaced."""
    v = np.asarray(logits, dtype=float) / temperature
    m = np.max(v)
    return float(temperature * (m + np.log(np.sum(np.exp(v - m)))))


def vim_row_oracle(feature, adjusted, calib):
    """The per-row ViM formula the batched scorer replaced, plus the size of
    its two terms (the score itself can cancel to near zero)."""
    m = np.max(adjusted)
    lse = m + np.log(np.sum(np.exp(adjusted - m)))
    centered = feature - calib.feature_mean
    basis = calib.principal_basis
    res = np.linalg.norm(centered - (centered @ basis.T) @ basis)
    return float(lse - calib.alpha * res), abs(lse) + calib.alpha * res


class TestBatchedScorers:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300),
           st.integers(1, 6), st.floats(0.05, 20.0))
    @settings(max_examples=30, deadline=None)
    def test_energy_matches_per_row(self, seed, n, k, temperature):
        logits = 10.0 * np.random.default_rng(seed).standard_normal((n, k))
        got = energy_score(logits, temperature)
        want = [energy_row_oracle(row, temperature) for row in logits]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300),
           st.sampled_from([2, 8, 64]), st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_vim_matches_per_row(self, seed, n, s, k):
        rng = np.random.default_rng(seed)
        calib = vim_calibrate(
            blocks_of(rng.standard_normal((2 * s + 2, s)),
                      np.abs(rng.standard_normal((2 * s + 2, k)))),
            default_d_prime(s))
        feats = 3.0 * rng.standard_normal((n, s))
        adjusted = adjust_logits(rng.standard_normal((n, k + 1)), k)
        got = vim_score(feats, adjusted, calib)
        want, scale = np.array([vim_row_oracle(f, a, calib)
                                for f, a in zip(feats, adjusted)]).T
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_msp_is_row_max(self):
        adjusted = np.random.default_rng(10).dirichlet(np.ones(4), size=50)
        np.testing.assert_array_equal(msp_score(adjusted),
                                      [max(row) for row in adjusted])


def residuals_one_shot(features, mean, basis):
    """The residual formula over all rows at once, written out."""
    centered = features - mean
    return np.linalg.norm(centered - (centered @ basis.T) @ basis, axis=1)


@pytest.mark.parametrize("d_prime", [0, 3])
@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                               3 * BLOCK + 17])
class TestBlockedResiduals:
    """Blocked sums may differ from one-shot ones in the last bits."""

    def test_residuals_match_one_shot(self, n, d_prime):
        rng = np.random.default_rng(n + d_prime)
        feats = 3.0 * rng.standard_normal((n, 8))
        mean = rng.standard_normal(8)
        basis = np.linalg.qr(rng.standard_normal((8, 8)))[0][:d_prime]
        np.testing.assert_allclose(post._residuals(feats, mean, basis),
                                   residuals_one_shot(feats, mean, basis),
                                   rtol=1e-12)

    def test_calibration_matches_one_shot(self, n, d_prime):
        # the three blocked passes against numpy's one-shot mean,
        # sample_covariance, eigh and residuals; off-center features make
        # the centering matter
        rng = np.random.default_rng(n + d_prime)
        n_cal = max(n, d_prime + 2)
        train = 5.0 + 3.0 * rng.standard_normal((n_cal, 8))
        train_logits = np.abs(rng.standard_normal((n_cal, 3)))
        blocks = blocks_of(train, train_logits)
        calib = vim_calibrate(blocks, d_prime)
        mean = train.mean(axis=0)
        np.testing.assert_allclose(calib.feature_mean, mean, rtol=1e-12)
        cov = sample_covariance(train)
        got = scatter_covariance((feats for feats, _ in blocks()),
                                 calib.feature_mean, n_cal)
        assert np.max(np.abs(got - cov)) <= 1e-12 * np.max(np.abs(cov))
        vals, vecs = np.linalg.eigh(cov)
        basis = vecs[:, np.argsort(vals)[::-1][:d_prime]].T
        got_basis = calib.principal_basis
        np.testing.assert_allclose(got_basis.T @ got_basis, basis.T @ basis,
                                   atol=1e-10)
        alpha = (np.sum(np.max(train_logits, axis=1))
                 / np.sum(residuals_one_shot(train, mean, basis)))
        assert calib.alpha == pytest.approx(alpha, rel=1e-12)

    def test_vim_matches_one_shot(self, n, d_prime):
        # calibration needs d'+2 rows for a nonzero residual
        rng = np.random.default_rng(n + d_prime)
        n_cal = max(n, d_prime + 2)
        train = rng.standard_normal((n_cal, 8))
        train_logits = np.abs(rng.standard_normal((n_cal, 3)))
        calib = vim_calibrate(blocks_of(train, train_logits), d_prime)
        basis, mean = calib.principal_basis, calib.feature_mean
        assert basis.shape == (d_prime, 8)
        alpha = (np.sum(np.max(train_logits, axis=1))
                 / np.sum(residuals_one_shot(train, mean, basis)))
        assert calib.alpha == pytest.approx(alpha, rel=1e-12)

        feats = 3.0 * rng.standard_normal((n, 8))
        adjusted = adjust_logits(rng.standard_normal((n, 4)), 3)
        lse = np.log(np.sum(np.exp(adjusted), axis=1))
        res = calib.alpha * residuals_one_shot(feats, mean, basis)
        got = vim_score(feats, adjusted, calib)
        assert np.all(np.abs(got - (lse - res)) <= 1e-12 * (lse + res))


class TestScoreReport:
    def test_threshold_from_id_scores(self):
        id_scores = np.arange(1, 101, dtype=float)
        assert score_report(id_scores) == 5.0
