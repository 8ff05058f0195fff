"""Tests for the OOD evaluation metrics against brute-force oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oodkit.metrics import (EmptyClass, LengthMismatch, NonFiniteScore,
                            _average_ranks, aupr, aupr_out, auroc,
                            fpr_at_tpr, id_accuracy, pick_threshold)


def auroc_oracle(id_scores, ood_scores):
    """O(n^2) pairwise count with 0.5 tie credit."""
    total = 0.0
    for a in id_scores:
        for b in ood_scores:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(id_scores) * len(ood_scores))


def aupr_oracle(pos, neg):
    """Exhaustive threshold enumeration with step interpolation."""
    pos = np.asarray(pos, dtype=float)
    neg = np.asarray(neg, dtype=float)
    thresholds = sorted(set(pos) | set(neg), reverse=True)
    area, prev_recall = 0.0, 0.0
    for thr in thresholds:
        tp = np.sum(pos >= thr)
        fp = np.sum(neg >= thr)
        recall = tp / len(pos)
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def fpr_oracle(id_scores, ood_scores):
    """Exact rational order-statistic index for TPR = 95%."""
    srt = sorted(id_scores)
    thr = srt[max(1, math.ceil(Fraction(1, 20) * len(srt))) - 1]
    return sum(1 for v in ood_scores if v >= thr) / len(ood_scores)


def average_ranks_loop(values):
    """The Python tie loop that the numpy `_average_ranks` replaced."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def draw_scores(seed, n_id, n_ood, tied):
    rng = np.random.default_rng(seed)
    if tied:
        return (rng.integers(0, 6, size=n_id).astype(float),
                rng.integers(0, 6, size=n_ood).astype(float))
    return rng.standard_normal(n_id), rng.standard_normal(n_ood)


class TestSortBasedMetrics:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 500),
           st.integers(1, 500), st.booleans())
    @example(seed=1, n_id=500, n_ood=500, tied=False)
    @example(seed=2, n_id=500, n_ood=500, tied=True)
    @settings(max_examples=30, deadline=None)
    def test_match_bruteforce_oracles(self, seed, n_id, n_ood, tied):
        a, b = draw_scores(seed, n_id, n_ood, tied)
        assert abs(auroc(a, b) - auroc_oracle(a, b)) <= 1e-12
        assert abs(aupr(a, b) - aupr_oracle(a, b)) <= 1e-12
        assert abs(aupr_out(a, b) - aupr_oracle(-b, -a)) <= 1e-12
        assert abs(fpr_at_tpr(a, b) - fpr_oracle(a, b)) <= 1e-12

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 500), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_average_ranks_equal_tie_loop(self, seed, n, tied):
        values, _ = draw_scores(seed, n, 1, tied)
        np.testing.assert_array_equal(_average_ranks(values),
                                      average_ranks_loop(values))

    def test_run_at_n_1e5(self):
        a, b = draw_scores(11, 10 ** 5, 10 ** 5, False)
        assert auroc(a, b) + auroc(b, a) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= aupr(a, b) <= 1.0
        a, b = draw_scores(12, 10 ** 5, 10 ** 5, True)
        assert auroc(a, b) + auroc(b, a) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= aupr(a, b) <= 1.0


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8], [0.1, 0.2]) == 1.0

    def test_pairwise_counting(self):
        assert auroc([0.9, 0.4], [0.5, 0.1]) == pytest.approx(0.75)

    def test_all_ties(self):
        assert auroc([0.5, 0.5], [0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_complement_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(20)
        b = rng.standard_normal(30)
        assert auroc(a, b) + auroc(b, a) == pytest.approx(1.0, abs=1e-12)

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.integers(0, 5, size=15).astype(float)
            b = rng.integers(0, 5, size=12).astype(float)
            assert auroc(a, b) == pytest.approx(auroc_oracle(a, b),
                                                abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(10)
        b = rng.standard_normal(10)
        assert auroc(np.exp(a), np.exp(b)) == pytest.approx(auroc(a, b),
                                                            abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptyClass):
            auroc([], [0.1])


class TestPickThreshold:
    def test_hundred_distinct(self):
        scores = np.arange(100, dtype=float)
        rng = np.random.default_rng(3)
        rng.shuffle(scores)
        assert pick_threshold(scores, 0.95) == 4.0  # 5th smallest of 0..99

    def test_all_equal(self):
        assert pick_threshold([2.5] * 17) == 2.5

    def test_twenty_scores(self):
        assert pick_threshold(np.arange(1, 21, dtype=float), 0.95) == 1.0

    def test_tpr_achieved_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            scores = rng.standard_normal(int(rng.integers(1, 200)))
            thr = pick_threshold(scores, 0.95)
            assert np.mean(scores >= thr) >= 0.95


class TestFprAtTpr:
    def test_perfect_separation(self):
        assert fpr_at_tpr([1.0, 2.0, 3.0], [-1.0, -2.0]) == 0.0

    def test_identical_distributions(self):
        scores = np.arange(100, dtype=float)
        assert fpr_at_tpr(scores, scores) == pytest.approx(0.96)

    def test_all_ood_above_threshold(self):
        id_scores = np.arange(1, 21, dtype=float)
        ood_scores = np.full(10, 50.0)
        assert fpr_at_tpr(id_scores, ood_scores) == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptyClass):
            fpr_at_tpr([1.0], [])


class TestAupr:
    def test_perfect_separation(self):
        assert aupr([3.0, 4.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_small_instance_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            pos = rng.integers(0, 4, size=int(rng.integers(1, 5))).astype(float)
            neg = rng.integers(0, 4, size=int(rng.integers(1, 5))).astype(float)
            assert aupr(pos, neg) == pytest.approx(aupr_oracle(pos, neg),
                                                   abs=1e-12)

    def test_random_scores_near_prevalence(self):
        rng = np.random.default_rng(6)
        vals = [aupr(rng.standard_normal(200), rng.standard_normal(200))
                for _ in range(10)]
        assert abs(np.mean(vals) - 0.5) <= 0.1

    def test_aupr_out_swaps_roles(self):
        rng = np.random.default_rng(7)
        id_scores = rng.standard_normal(30)
        ood_scores = rng.standard_normal(25)
        assert aupr_out(id_scores, ood_scores) == pytest.approx(
            aupr(-ood_scores, -id_scores), abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptyClass):
            aupr([], [1.0])


class TestIdAccuracy:
    def test_all_correct(self):
        assert id_accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_all_wrong(self):
        assert id_accuracy([2, 3, 1], [1, 2, 3]) == 0.0

    def test_half_correct(self):
        pred = [1] * 5 + [2] * 5
        true = [1] * 5 + [3] * 5
        assert id_accuracy(pred, true) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            id_accuracy([1, 2], [1])


class TestMonotoneInvariance:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_all_metrics_invariant(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(int(rng.integers(2, 40)))
        b = rng.standard_normal(int(rng.integers(2, 40)))

        def t(v):
            return 3.0 * np.asarray(v) + 1.0   # strictly increasing

        assert auroc(t(a), t(b)) == pytest.approx(auroc(a, b), abs=1e-12)
        assert fpr_at_tpr(t(a), t(b)) == pytest.approx(fpr_at_tpr(a, b),
                                                       abs=1e-12)
        assert aupr(t(a), t(b)) == pytest.approx(aupr(a, b), abs=1e-12)


class TestNonFiniteScores:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn,arg", [
        (auroc, 0), (auroc, 1), (aupr, 0), (aupr, 1), (aupr_out, 0),
        (aupr_out, 1), (fpr_at_tpr, 0), (fpr_at_tpr, 1), (pick_threshold, 0)])
    def test_rejected_naming_argument_and_index(self, fn, arg, bad):
        args = [np.array([0.5, 1.0, 2.0]), np.array([0.0, 0.25])]
        args[arg][1] = bad
        names = ("pos_scores", "neg_scores") if fn is aupr else \
            ("id_scores", "ood_scores")
        with pytest.raises(NonFiniteScore, match=rf"{names[arg]}\[1\]"):
            fn(*args[:1 if fn is pick_threshold else 2])
