"""OOD evaluation metrics: ID accuracy, FPR@95, AUROC, AUPR_IN, AUPR_OUT.

Each metric is one O(n log n) computation on a sort of the scores: AUROC
from average ranks, AUPR from cumulative TP/FP counts.  Conventions are fixed
for cross-run reproducibility: ties get 0.5 credit in AUROC, the TPR
threshold uses the lower (no interpolation) percentile, and AUPR uses step
interpolation over the distinct score thresholds, summed from high to low.
"""

from dataclasses import dataclass

import numpy as np


class EmptyClass(Exception):
    pass


class LengthMismatch(Exception):
    pass


class NonFiniteScore(ValueError):
    """A score is NaN or infinite."""


@dataclass
class MetricSummary:
    id_acc: float
    fpr_at_95: float
    auroc: float
    aupr_in: float
    aupr_out: float


def _finite(name, scores):
    """scores as a float array; raises NonFiniteScore at the first NaN/inf."""
    scores = np.asarray(scores, dtype=float)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise NonFiniteScore(f"{name}[{bad[0]}] is {scores[bad[0]]}")
    return scores


def _average_ranks(values):
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], len(values)]     # one past each tied run
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


def auroc(id_scores, ood_scores):
    """P(random ID score > random OOD score), ties counted 0.5."""
    id_scores = _finite("id_scores", id_scores)
    ood_scores = _finite("ood_scores", ood_scores)
    if id_scores.size == 0 or ood_scores.size == 0:
        raise EmptyClass("auroc needs nonempty ID and OOD scores")
    ranks = _average_ranks(np.concatenate([id_scores, ood_scores]))
    n_id, n_ood = id_scores.size, ood_scores.size
    u = ranks[:n_id].sum() - n_id * (n_id + 1) / 2.0
    return u / (n_id * n_ood)


def pick_threshold(id_scores, tpr=0.95):
    """Score threshold keeping at least `tpr` of the ID scores above it.

    Lower-interpolation percentile: the ceil((1-tpr)*n)-th smallest score.
    """
    id_scores = _finite("id_scores", id_scores)
    if id_scores.size == 0:
        raise EmptyClass("pick_threshold needs nonempty scores")
    # the small backoff keeps e.g. ceil(0.05 * 100) at 5 despite float noise
    k = max(1, int(np.ceil((1.0 - tpr) * id_scores.size - 1e-9)))
    return float(np.sort(id_scores)[k - 1])


def fpr_at_tpr(id_scores, ood_scores, tpr=0.95):
    """Fraction of OOD scores at or above the TPR threshold of the ID scores."""
    ood_scores = _finite("ood_scores", ood_scores)
    if ood_scores.size == 0:
        raise EmptyClass("fpr_at_tpr needs nonempty OOD scores")
    thr = pick_threshold(id_scores, tpr)
    return float(np.mean(ood_scores >= thr))


def aupr(pos_scores, neg_scores):
    """Area under precision-recall by step interpolation over all thresholds.

    A sample is predicted positive when its score >= threshold; thresholds
    sweep the distinct scores from high to low.  The TP/FP counts at each
    threshold are the cumulative counts of a stable descending sort, read at
    the last index of each run of tied scores.
    """
    pos_scores = _finite("pos_scores", pos_scores)
    neg_scores = _finite("neg_scores", neg_scores)
    if pos_scores.size == 0 or neg_scores.size == 0:
        raise EmptyClass("aupr needs nonempty positive and negative scores")
    scores = np.concatenate([pos_scores, neg_scores])
    order = np.argsort(-scores, kind="stable")
    is_pos = order < pos_scores.size
    sorted_scores = scores[order]
    last = np.flatnonzero(np.r_[sorted_scores[1:] != sorted_scores[:-1], True])
    tp = np.cumsum(is_pos)[last]
    recall = tp / pos_scores.size
    precision = tp / (last + 1)
    # a running sum keeps the high-to-low order of the step-wise terms
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def aupr_out(id_scores, ood_scores):
    """AUPR with OOD as the positive class (scores negated)."""
    return aupr(-_finite("ood_scores", ood_scores),
                -_finite("id_scores", id_scores))


def id_accuracy(pred_labels, true_labels):
    """Fraction of rows whose predicted label equals the true one."""
    pred_labels = np.asarray(pred_labels)
    true_labels = np.asarray(true_labels)
    if pred_labels.shape != true_labels.shape:
        raise LengthMismatch(
            f"{pred_labels.shape} vs {true_labels.shape}")
    if true_labels.size == 0:
        raise EmptyClass("no ID-labeled samples")
    return float(np.mean(pred_labels == true_labels))
