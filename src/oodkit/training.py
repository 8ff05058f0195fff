"""The fine-tuning loop with synthetic-outlier augmentation, on the model
that `model_shape` gives for the config and the feature width."""

import math

import numpy as np

from . import loss as loss_mod
from . import synthdata
from . import transformer as tfm
from .evaluation import _as_inputs, _score_set
from .featurefile import FormatError
from .metrics import id_accuracy
from .outliers import (FALLBACK_REASONS, GrodState, grod_augment_batch,
                       one_hot)


class TrainingDiverged(Exception):
    """A batch's hidden features or loss, or a parameter, is not finite."""


def model_shape(config, width):
    """(depth, budget) of the model trained on `width`-wide features: for
    task=ingest only the head, on a frozen identity input map (depth 0,
    d_hat = width, the other budget entries 1); else the config's."""
    if config.task == "ingest":
        return 0, tfm.Budget(d_hat=width, h=1, m_h=1, m_V=1, r=1)
    return config.depth, tfm.Budget(config.d_hat, config.heads, config.m_h,
                                    config.m_v, config.ff)


def train_model(config, seed, train_batch, n_id_classes):
    """Fine-tuning loop shared by the 2-d task and the ingestion path, on
    the `model_shape` model with the features' width as input.  Each step
    joins the gradients into one vector and updates the tail of
    `model.flat` that it covers; the frozen input map of a head-only model
    leads the vector and gets no gradient, no step and no decay.

    Returns (model, grod_state, log), the model as it is after the last
    configured epoch.  Each log row's `val_quality` is the ID accuracy of
    eval's `_score_set` predictions for the held-out rows, a diagnostic.
    Raises TrainingDiverged, naming the epoch and batch (both counted from
    0 as in the log), at the first batch whose hidden features or loss are
    not finite, and at the end of an epoch whose parameters are not.
    """
    k = n_id_classes
    tau = 1
    d_hat0 = train_batch.features.shape[1]
    depth, budget = model_shape(config, d_hat0)
    model = tfm.init_model(d_hat0, tau, depth, budget, k, seed * 7 + 1)
    head_only = config.task == "ingest"
    if head_only:    # in place, so the parameters stay views of flat
        model.params["input.W"][...] = np.eye(d_hat0)

    grod_state = (GrodState(n_id_classes=k, dim=budget.d_hat * tau)
                  if config.grod_enabled else None)
    grod_rng = np.random.Generator(np.random.Philox(seed * 7 + 3))
    shuffle_rng = np.random.Generator(np.random.Philox(seed * 7 + 2))

    n = train_batch.features.shape[0]
    n_val = max(1, int(round(config.val_fraction * n)))
    if n - n_val < 2:
        raise FormatError(f"val_fraction={config.val_fraction} leaves "
                          f"{n - n_val} of {n} rows for training")
    perm = np.random.Generator(np.random.Philox(seed * 7 + 5)).permutation(n)
    val, fit = (synthdata.FeatureBatch(train_batch.features[rows],
                                       train_batch.labels[rows])
                for rows in (perm[:n_val], perm[n_val:]))
    fit_x = _as_inputs(fit.features, d_hat0, tau)

    opt_state = tfm.adamw_init(model)
    use_adamw = config.optimizer == "adamw"

    log = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(fit_x.shape[0])
        ep_l1, ep_l2, ep_fake, n_batches = 0.0, 0.0, 0, 0
        ep_fallbacks = dict.fromkeys(FALLBACK_REASONS, 0)
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            if idx.size < 2:
                continue
            xb, yb = fit_x[idx], fit.labels[idx]
            hidden, cache = tfm.forward_trunk(model, xb)
            feats = hidden.reshape(idx.size, -1)
            if not np.isfinite(feats).all():
                raise TrainingDiverged(f"epoch {epoch}, batch {n_batches}: "
                                       f"hidden features not finite")
            if config.grod_enabled:
                f_all, labels_all, info = grod_augment_batch(
                    feats, yb, grod_state, config, grod_rng)
            else:
                f_all, labels_all = feats, one_hot(yb, k)
                info = {"warmup": False, "n_fake": 0, "fallback": None}
            hidden_all = f_all.reshape(-1, budget.d_hat, tau)
            logits, g = tfm.head_forward(model, hidden_all)
            gamma_eff = 0.0 if info["warmup"] else config.gamma
            l1, l2, _, dlogits = loss_mod.batch_loss_and_grad(
                labels_all, logits, gamma_eff)
            if not (math.isfinite(l1) and math.isfinite(l2)):
                raise TrainingDiverged(f"epoch {epoch}, batch {n_batches}: "
                                       f"loss not finite")
            grads, dhidden = tfm.head_backward(model, hidden_all, g, dlogits)
            if not head_only:
                grads.update(tfm.trunk_backward(model, cache,
                                                dhidden[:idx.size]))
            grad = np.concatenate([grads[name].ravel()
                                   for name in model.params if name in grads])
            if use_adamw:
                tfm.adamw_step(model, grad, opt_state, lr=config.lr,
                               weight_decay=config.weight_decay)
            else:
                tfm.sgd_step(model, grad, config.lr,
                             weight_decay=config.weight_decay)
            ep_l1 += l1
            ep_l2 += l2
            ep_fake += info["n_fake"]
            if info["fallback"]:
                ep_fallbacks[info["fallback"]] += 1
            n_batches += 1
        if not np.isfinite(model.flat).all():
            name = next(name for name, value in model.params.items()
                        if not np.isfinite(value).all())
            raise TrainingDiverged(f"epoch {epoch}: parameter {name} "
                                   f"not finite")
        val_preds, _ = _score_set(model, val, k, "msp", None, 1.0)
        log.append({"epoch": epoch, "loss_l1": ep_l1 / max(1, n_batches),
                    "loss_l2": ep_l2 / max(1, n_batches),
                    "fake_ood_retained": ep_fake,
                    "grod_fallbacks": ep_fallbacks,
                    "val_quality": id_accuracy(val_preds, val.labels)})
    return model, grod_state, log
