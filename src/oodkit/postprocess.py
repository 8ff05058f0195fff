"""Inference-time pipeline: logit adjustment, batched OOD scoring functions
(MSP, energy, VIM-style; one score per row) and score-threshold selection."""

from dataclasses import dataclass

import numpy as np

from .metrics import pick_threshold
from .numerics import scatter_covariance, softmax


class DegenerateFeatures(Exception):
    """All calibration residuals are zero; reduce the subspace dimension."""


@dataclass
class VimCalibration:
    principal_basis: np.ndarray   # (d', s), orthonormal rows
    feature_mean: np.ndarray
    alpha: float


def adjust_logits(raw, n_id_classes):
    """Collapse (K+1)-way logits to K-way rows summing to 1.

    Rows whose argmax is the OOD class become the uniform 1/K row; all other
    rows keep their first K values, softmax-normalized.
    """
    raw = np.asarray(raw, dtype=float)
    k = n_id_classes
    out = softmax(raw[:, :k], axis=1)
    ood_rows = np.argmax(raw, axis=1) == k
    out[ood_rows] = 1.0 / k
    return out


def _logsumexp_rows(m):
    top = m.max(axis=1)
    return top + np.log(np.sum(np.exp(m - top[:, None]), axis=1))


def msp_score(adjusted):
    """Maximum entry of each normalized K-way row."""
    return np.max(adjusted, axis=1)


def energy_score(logits, temperature=1.0):
    """Row-wise T * logsumexp(logits / T), stabilized."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    return temperature * _logsumexp_rows(
        np.asarray(logits, dtype=float) / temperature)


def _residuals(features, mean, basis):
    """Norm of each centered row minus its projection on the rows of basis;
    its temporaries are the size of `features`, so callers pass row
    blocks."""
    centered = features - mean
    if basis.shape[0]:
        centered -= (centered @ basis.T) @ basis
    return np.linalg.norm(centered, axis=1)


def vim_calibrate(blocks, d_prime):
    """Principal-subspace calibration over ID features, streamed.

    `blocks` is a zero-argument callable that returns a fresh iterator of
    (features, adjusted_logits) row blocks; it is called once per pass, so
    memory is one block plus (s, s) whatever the number of rows:
      1. row count, feature sum and the sum of per-row max logits;
      2. the (n-1) sample covariance, `numerics.scatter_covariance` of
         the blocks about that mean, for the top-d' principal basis;
      3. the sum and the maximum of the residual norms, where a residual
         is the distance from the centered feature to its projection on
         the basis.
    alpha = (sum of max logits) / (sum of residual norms).
    """
    n, feature_sum, logit_sum = 0, 0.0, 0.0
    for feats, logits in blocks():
        n += feats.shape[0]
        feature_sum = feature_sum + feats.sum(axis=0)
        logit_sum += float(np.sum(np.max(logits, axis=1)))
    if n < d_prime + 1:
        raise ValueError(f"need at least d'+1={d_prime + 1} samples, got {n}")
    mean = feature_sum / n
    s = mean.shape[0]
    basis = np.zeros((0, s))
    if d_prime > 0:
        vals, vecs = np.linalg.eigh(
            scatter_covariance((feats for feats, _ in blocks()), mean, n))
        basis = vecs[:, np.argsort(vals)[::-1][:d_prime]].T
    res_sum, res_max = 0.0, 0.0
    for feats, _ in blocks():
        res = _residuals(feats, mean, basis)
        res_sum += float(np.sum(res))
        res_max = np.max(res, initial=res_max)
    if res_max < 1e-12:
        raise DegenerateFeatures(
            "all calibration residuals are zero; reduce d_prime")
    return VimCalibration(principal_basis=basis, feature_mean=mean,
                          alpha=logit_sum / res_sum)


def vim_score(features, adjusted_logits, calib):
    """Row-wise logsumexp(adjusted logits) - alpha * residual; higher = ID."""
    lse = _logsumexp_rows(np.asarray(adjusted_logits, dtype=float))
    res = _residuals(np.asarray(features, dtype=float), calib.feature_mean,
                     calib.principal_basis)
    return lse - calib.alpha * res


def default_d_prime(s):
    return min(s - 1, 64) if s > 8 else max(1, s // 2)


def score_report(id_scores, tpr=0.95):
    """The threshold that keeps `tpr` of the ID scores, `pick_threshold`'s."""
    return pick_threshold(id_scores, tpr)
