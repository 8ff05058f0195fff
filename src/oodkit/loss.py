"""Composite training loss: (1-gamma) * cross-entropy over K+1 classes plus
gamma * binary ID/OOD cross-entropy after collapsing the label and prediction
with phi_hat(y) = [sum_{1..K} y_i, y_{K+1}]."""

import numpy as np

LOG_CLAMP = 1e-12


def batch_loss_and_grad(labels, logits, gamma):
    """Mean loss over a batch plus per-row gradients already scaled by 1/n.

    labels: (n, K+1) rows, logits: (n, K+1).  Returns (mean L1, mean L2,
    mean total, grad (n, K+1)).  L2 clamps its log arguments at 1e-12 so
    confidently wrong early-training predictions stay finite.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    labels = np.asarray(labels, dtype=float)
    logits = np.asarray(logits, dtype=float)
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    p = np.exp(logp)
    l1 = float(-(labels * logp).sum() / n)

    phi_y = np.stack([labels[:, :-1].sum(axis=1), labels[:, -1]], axis=1)
    phi_p = np.stack([p[:, :-1].sum(axis=1), p[:, -1]], axis=1)
    safe = np.maximum(phi_p, LOG_CLAMP)
    l2 = float(-(phi_y * np.log(safe)).sum() / n)

    grad = (1.0 - gamma) * (p - labels)
    if gamma > 0.0:
        # d(L2)/dp_i = -phi_y_side / phi_p_side; zero where the log is clamped
        gp = np.zeros_like(p)
        id_ok = phi_p[:, 0] > LOG_CLAMP
        ood_ok = phi_p[:, 1] > LOG_CLAMP
        gp[id_ok, :-1] = (-phi_y[id_ok, 0] / phi_p[id_ok, 0])[:, None]
        gp[ood_ok, -1] = -phi_y[ood_ok, 1] / phi_p[ood_ok, 1]
        grad += gamma * p * (gp - (p * gp).sum(axis=1, keepdims=True))
    return l1, l2, (1.0 - gamma) * l1 + gamma * l2, grad / n
