"""Evaluation: every forward pass a block of EVAL_BLOCK_ROWS rows at a
time, OOD scores by the configured scorer, and the metrics of the ID test
and OOD sets."""

import numpy as np

from . import metrics as metrics_mod
from . import postprocess as post
from . import transformer as tfm
from .metrics import id_accuracy


def _as_inputs(features, d_hat0, tau):
    return np.asarray(features, dtype=float).reshape(-1, d_hat0, tau)


# rows per block of every eval-time forward pass: 0.5 MB per block at s=64
EVAL_BLOCK_ROWS = 1024


def _model_outputs(model, features):
    x = _as_inputs(features, model.d_hat0, model.tau)
    hidden, _ = tfm.forward_trunk(model, x)
    logits, _ = tfm.head_forward(model, hidden)
    return hidden.reshape(x.shape[0], -1), logits


def _forward_blocks(model, features):
    """(hidden, logits) of each EVAL_BLOCK_ROWS-row block of features, in
    row order.  A row's outputs do not depend on the rows beside it, so
    the blocks equal the one-shot forward pass bit for bit."""
    for start in range(0, features.shape[0], EVAL_BLOCK_ROWS):
        yield _model_outputs(model, features[start:start + EVAL_BLOCK_ROWS])


def _scores(scorer, adjusted, raw_logits, features, calib, temperature):
    if scorer == "msp":
        return post.msp_score(adjusted)
    if scorer == "energy":
        return post.energy_score(raw_logits[:, :adjusted.shape[1]],
                                 temperature)
    return post.vim_score(features, adjusted, calib)


def _vim_calibration(model, train_batch, k):
    """ViM's calibration on the train rows, which go through the model
    once per calibration pass, a block at a time."""
    def blocks():
        for hidden, logits in _forward_blocks(model, train_batch.features):
            yield hidden, post.adjust_logits(logits, k)

    return post.vim_calibrate(
        blocks, post.default_d_prime(model.budget.d_hat * model.tau))


def _score_set(model, batch, k, scorer, calib, temperature):
    """(predictions, scores) of one set, a block at a time; a prediction is
    the argmax of the row's adjusted logits, counted from 1."""
    preds, scores = [], []
    for hidden, logits in _forward_blocks(model, batch.features):
        adjusted = post.adjust_logits(logits, k)
        preds.append(np.argmax(adjusted, axis=1) + 1)
        scores.append(_scores(scorer, adjusted, logits, hidden, calib,
                              temperature))
    return np.concatenate(preds), np.concatenate(scores)


def evaluate_model(model, train_batch, test_batch, ood_batch, n_id_classes,
                   scorer="vim", temperature=1.0):
    """(MetricSummary, threshold) of the ID test and OOD sets, the threshold
    the score that keeps 95% of the ID test scores.  Beyond its inputs it
    holds the (n,) predictions and scores and one forward block."""
    k = n_id_classes
    calib = None
    if scorer == "vim":    # only ViM calibrates on the train rows
        calib = _vim_calibration(model, train_batch, k)
    test_preds, id_scores = _score_set(model, test_batch, k, scorer, calib,
                                       temperature)
    _, ood_scores = _score_set(model, ood_batch, k, scorer, calib,
                               temperature)
    summary = metrics_mod.MetricSummary(
        id_acc=id_accuracy(test_preds, test_batch.labels),
        fpr_at_95=metrics_mod.fpr_at_tpr(id_scores, ood_scores),
        auroc=metrics_mod.auroc(id_scores, ood_scores),
        aupr_in=metrics_mod.aupr(id_scores, ood_scores),
        aupr_out=metrics_mod.aupr_out(id_scores, ood_scores))
    return summary, post.score_report(id_scores)
