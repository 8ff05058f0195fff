"""Tests for the composite classification/ID-OOD loss and its gradient.

Single-row cases call batch_loss_and_grad on a batch of one row."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodkit.loss import LOG_CLAMP, batch_loss_and_grad


def softmax(v):
    e = np.exp(v - np.max(v))
    return e / e.sum()


def row_loss(y, logits, gamma=0.0):
    """(L1, L2, total, gradient) of one labelled row."""
    y = np.asarray(y, dtype=float)
    logits = np.asarray(logits, dtype=float)
    l1, l2, total, grad = batch_loss_and_grad(y[None], logits[None], gamma)
    return l1, l2, total, grad[0]


def reference_row(y, logits, gamma):
    """Per-row (L1, L2, gradient) written out independently of the batched
    code: cross-entropy, the binary loss on the phi_hat collapse
    [sum of the ID entries, OOD entry] with the log clamp, and the chain
    rule through the softmax."""
    y = np.asarray(y, dtype=float)
    p = softmax(np.asarray(logits, dtype=float))
    l1 = float(-np.dot(y, np.log(p)))
    phi_y = np.array([y[:-1].sum(), y[-1]])
    phi_p = np.array([p[:-1].sum(), p[-1]])
    l2 = float(-np.dot(phi_y, np.log(np.maximum(phi_p, LOG_CLAMP))))
    gp = np.zeros_like(p)
    if phi_p[0] > LOG_CLAMP:
        gp[:-1] = -phi_y[0] / phi_p[0]
    if phi_p[1] > LOG_CLAMP:
        gp[-1] = -phi_y[1] / phi_p[1]
    grad = (1.0 - gamma) * (p - y) + gamma * p * (gp - np.dot(p, gp))
    return l1, l2, grad


def finite_diff_grad(y, logits, gamma, step=1e-6):
    g = np.zeros_like(logits, dtype=float)
    for i in range(len(logits)):
        plus = np.array(logits, dtype=float)
        minus = np.array(logits, dtype=float)
        plus[i] += step
        minus[i] -= step
        g[i] = (row_loss(y, plus, gamma)[2]
                - row_loss(y, minus, gamma)[2]) / (2 * step)
    return g


class TestPhiHat:
    def test_collapse(self):
        # L2 is the binary cross-entropy of the collapsed label against the
        # collapsed prediction: phi_hat([0.2, 0.3, 0.5]) = [0.5, 0.5] and
        # phi_hat([1, 0, 0]) = [1, 0], with p = (0.1, 0.3, 0.6) collapsing
        # to [0.4, 0.6]
        logits = np.log([0.1, 0.3, 0.6])
        assert row_loss([0.2, 0.3, 0.5], logits)[1] == pytest.approx(
            -(0.5 * np.log(0.4) + 0.5 * np.log(0.6)), rel=1e-12)
        assert row_loss([1.0, 0.0, 0.0], logits)[1] == pytest.approx(
            -np.log(0.4), rel=1e-12)


class TestLossL1:
    def test_uniform_logits(self):
        assert row_loss([1, 0, 0], [0.0, 0.0, 0.0])[0] == pytest.approx(
            np.log(3.0), rel=1e-12)

    def test_confident_correct_goes_to_zero(self):
        assert row_loss([0, 1, 0], [0.0, 50.0, 0.0])[0] <= 1e-12

    def test_soft_label_equals_entropy(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal(4)
        p = softmax(logits)
        entropy = -np.sum(p * np.log(p))
        assert row_loss(p, logits)[0] == pytest.approx(entropy, rel=1e-12)


class TestLossL2:
    def test_hand_example(self):
        logits = np.log([0.7, 0.2, 0.1])
        assert row_loss([1, 0, 0], logits)[1] == pytest.approx(
            -np.log(0.9), rel=1e-9)

    def test_all_mass_on_ood_zero_loss(self):
        assert row_loss([0, 0, 1], [-50.0, -50.0, 50.0])[1] <= 1e-12

    def test_clamp_keeps_loss_finite(self):
        val = row_loss([0, 0, 1], [500.0, 0.0, -500.0])[1]
        assert np.isfinite(val)
        assert val == pytest.approx(-np.log(1e-12), rel=1e-6)

    def test_invariant_under_id_mass_redistribution(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal(4)
        y1 = np.array([0.6, 0.1, 0.1, 0.2])
        y2 = np.array([0.1, 0.3, 0.4, 0.2])   # same ID/OOD split
        assert row_loss(y1, logits)[1] == pytest.approx(
            row_loss(y2, logits)[1], rel=1e-12)


class TestLossTotal:
    def test_gamma_zero_is_l1(self):
        y, logits = [1, 0, 0], [0.3, -0.2, 0.1]
        l1, _, total, _ = row_loss(y, logits, 0.0)
        assert total == l1

    def test_gamma_one_is_l2(self):
        y, logits = [1, 0, 0], [0.3, -0.2, 0.1]
        _, l2, total, _ = row_loss(y, logits, 1.0)
        assert total == l2

    def test_convex_combination_hand_example(self):
        logits = np.log([0.7, 0.2, 0.1])
        y = [1, 0, 0]
        expected = 0.9 * (-np.log(0.7)) + 0.1 * (-np.log(0.9))
        assert row_loss(y, logits, 0.1)[2] == pytest.approx(expected,
                                                            rel=1e-9)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            batch_loss_and_grad([[1, 0]], [[0.0, 0.0]], 1.5)
        with pytest.raises(ValueError):
            batch_loss_and_grad([[1, 0]], [[0.0, 0.0]], -0.1)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        y = rng.dirichlet(np.ones(k + 1))
        logits = rng.standard_normal(k + 1) * 5
        gamma = float(rng.uniform(0, 1))
        assert row_loss(y, logits, gamma)[2] >= -1e-12

    def test_pairwise_id_loss_below_ood_loss_at_uniform_logits(self):
        # at uniform logits the one-hot loss of predicting another ID class
        # never exceeds the loss of predicting the OOD class, for gamma > 0
        k = 3
        logits = np.zeros(k + 1)
        for k1 in range(k):
            y = np.zeros(k + 1)
            y[k1] = 1.0
            l_ood = row_loss(y, logits + np.eye(k + 1)[k] * 10, 0.3)[2]
            for k2 in range(k):
                l_id = row_loss(y, logits + np.eye(k + 1)[k2] * 10, 0.3)[2]
                assert l_id <= l_ood + 1e-12


class TestGradient:
    def test_gamma_zero_closed_form(self):
        rng = np.random.default_rng(2)
        y = rng.dirichlet(np.ones(4))
        logits = rng.standard_normal(4)
        np.testing.assert_allclose(row_loss(y, logits, 0.0)[3],
                                   softmax(logits) - y, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            k = int(rng.integers(1, 5))
            y = rng.dirichlet(np.ones(k + 1))
            logits = rng.standard_normal(k + 1) * 3
            gamma = float(rng.uniform(0, 1))
            a = row_loss(y, logits, gamma)[3]
            n = finite_diff_grad(y, logits, gamma)
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-4)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
        assert worst <= 1e-6

    def test_zero_at_exact_optimum(self):
        y = np.array([0.0, 1.0, 0.0])
        logits = np.log(np.maximum(y, 1e-300))  # softmax == y in the limit
        logits = np.array([-40.0, 0.0, -40.0])
        g = row_loss(y, logits, 0.5)[3]
        assert np.max(np.abs(g)) <= 1e-8


class TestBatch:
    def test_matches_per_row_functions(self):
        rng = np.random.default_rng(4)
        n, k = 6, 3
        labels = rng.dirichlet(np.ones(k + 1), size=n)
        logits = rng.standard_normal((n, k + 1))
        gamma = 0.3
        l1, l2, total, grad = batch_loss_and_grad(labels, logits, gamma)
        rows = [reference_row(y, lg, gamma) for y, lg in zip(labels, logits)]
        exp_l1 = np.mean([r[0] for r in rows])
        exp_l2 = np.mean([r[1] for r in rows])
        assert l1 == pytest.approx(exp_l1, rel=1e-12)
        assert l2 == pytest.approx(exp_l2, rel=1e-12)
        assert total == pytest.approx((1 - gamma) * exp_l1 + gamma * exp_l2,
                                      rel=1e-12)
        for i in range(n):
            np.testing.assert_allclose(grad[i], rows[i][2] / n, atol=1e-12)

    def test_gamma_zero_reduces_to_cross_entropy(self):
        rng = np.random.default_rng(5)
        labels = np.eye(3)[rng.integers(0, 3, size=5)]
        logits = rng.standard_normal((5, 3))
        l1, l2, total, _ = batch_loss_and_grad(labels, logits, 0.0)
        assert total == l1
