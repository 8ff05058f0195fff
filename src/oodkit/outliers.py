"""Synthetic-outlier engine used during fine-tuning.

Per batch it: picks a class subset sized to the batch budget, EMA-updates
global/per-class centers, covariances and reference Mahalanobis distances,
factoring each covariance once for all of the batch's distances, mines
projection-boundary samples, pushes them outward to get outlier centers,
samples Gaussian candidates around those centers, deletes the ID-like ones
by a Mahalanobis margin, caps the survivors, and attaches distance-ratio
soft labels over K+1 classes.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (NotPositiveDefinite, TooFewSamples,
                       mahalanobis_sq_rows, regularized_cholesky,
                       sample_covariance, softmax)
from .projections import DegenerateScatter, lda_fit, mine_boundary, pca_fit


class UninitializedState(Exception):
    pass


class AllFiltered(Exception):
    """Every candidate was deleted; the batch proceeds ID-only."""


FALLBACK_REASONS = ("all_filtered", "degenerate_scatter", "not_pd")


@dataclass
class GrodConfig:
    a: float = 0.1                 # boundary extension length, > 0
    gamma: float = 0.1             # loss mix weight, in [0, 1]
    gamma_opt: float = 0.1         # EMA rate for centers/covs/dists, (0, 1]
    num: int = 0                   # candidates per cluster group, 0 -> auto
    warmup_batches: int = 5
    lambda_filter: float = 0.1     # filter margin weight, >= 0
    eps: float = 1e-7
    eps0: float = 1e-4
    pca_axes: int = 0              # 0 -> min(s, 8)
    lda_axes: int = 0              # 0 -> min(K-1, 4)

    def __post_init__(self):
        for name, ok in (("a", self.a > 0), ("gamma", 0 <= self.gamma <= 1),
                         ("gamma_opt", 0 < self.gamma_opt <= 1),
                         ("lambda_filter", self.lambda_filter >= 0)):
            if not ok:
                raise ValueError(f"{name} out of range: {getattr(self, name)}")


@dataclass
class GrodState:
    n_id_classes: int
    dim: int
    mu_pca: np.ndarray | None = None
    cov_pca: np.ndarray | None = None
    dist_id_pca: float | None = None
    mu_lda: dict = field(default_factory=dict)      # class -> center
    cov_lda: dict = field(default_factory=dict)
    dist_id_lda: dict = field(default_factory=dict)
    batch_index: int = 0
    initialized: bool = False
    pool_f: list = field(default_factory=list)
    pool_y: list = field(default_factory=list)


def save_grod_state(state, path):
    """npz archive: a JSON `meta` record, the tracked statistics once
    initialized (`mu_pca`, `cov_pca`, `dist_id_pca`, `mu_lda_<c>`,
    `cov_lda_<c>`, `dist_lda_<c>`) and the stacked warmup pool (`pool_f`,
    `pool_y`) while it is non-empty.  A None state saves an empty archive."""
    arrays = {}
    if state is not None:
        classes = sorted(state.mu_lda)
        arrays["meta"] = np.frombuffer(json.dumps(
            {"n_id_classes": state.n_id_classes, "dim": state.dim,
             "batch_index": state.batch_index,
             "initialized": state.initialized, "classes": classes},
            sort_keys=True).encode(), dtype=np.uint8)
        if state.initialized:
            arrays.update(mu_pca=state.mu_pca, cov_pca=state.cov_pca,
                          dist_id_pca=np.array(state.dist_id_pca))
            for c in classes:
                arrays[f"mu_lda_{c}"] = state.mu_lda[c]
                arrays[f"cov_lda_{c}"] = state.cov_lda[c]
                arrays[f"dist_lda_{c}"] = np.array(state.dist_id_lda[c])
        if state.pool_f:
            arrays["pool_f"] = np.vstack(state.pool_f)
            arrays["pool_y"] = np.concatenate(state.pool_y)
    np.savez(path, **arrays)


def load_grod_state(path):
    """Inverse of save_grod_state; the pool comes back as one batch."""
    with np.load(path) as data:
        if "meta" not in data.files:
            return None
        meta = json.loads(bytes(data["meta"]).decode())
        state = GrodState(n_id_classes=meta["n_id_classes"], dim=meta["dim"],
                          batch_index=meta["batch_index"],
                          initialized=meta["initialized"])
        if state.initialized:
            state.mu_pca = data["mu_pca"]
            state.cov_pca = data["cov_pca"]
            state.dist_id_pca = float(data["dist_id_pca"])
            for c in meta["classes"]:
                state.mu_lda[c] = data[f"mu_lda_{c}"]
                state.cov_lda[c] = data[f"cov_lda_{c}"]
                state.dist_id_lda[c] = float(data[f"dist_lda_{c}"])
        if "pool_f" in data.files:
            state.pool_f = [data["pool_f"]]
            state.pool_y = [data["pool_y"]]
    return state


def _class_cov(rows, eps0, dim):
    try:
        return sample_covariance(rows)
    except TooFewSamples:
        return eps0 * np.eye(dim)


def select_classes(class_counts, batch_size, n_id_classes):
    """Budgeted class subset: kappa = min(|eligible|, max(1, floor(2B/K))),
    top-kappa classes by count, ties broken toward smaller class index."""
    eligible = sorted(c for c, n in class_counts.items() if n > 1)
    kappa = min(len(eligible),
                max(1, (2 * batch_size) // n_id_classes))
    ranked = sorted(eligible, key=lambda c: (-class_counts[c], c))
    return kappa, sorted(ranked[:kappa])


def _ema(old, new, rate):
    return (1.0 - rate) * old + rate * new


def factor_snapshot(state, eps0=1e-4):
    """One inverted regularized Cholesky factor per tracked center, as
    {None: (mu_pca, L_pca^-1), c: (mu_c, L_c^-1), ...} with classes sorted,
    so every distance to a center is one matmul.  The distance functions
    below build it from state when not passed one."""
    if not state.initialized:
        raise UninitializedState("state not initialized; run warmup first")
    centers = [(None, state.mu_pca, state.cov_pca)] + [
        (c, state.mu_lda[c], state.cov_lda[c]) for c in sorted(state.mu_lda)]
    return {key: (mu, np.linalg.inv(regularized_cholesky(cov, eps0)))
            for key, mu, cov in centers}


def class_distances(points, snapshot):
    """(points x tracked classes) squared distances, classes sorted."""
    return np.column_stack([mahalanobis_sq_rows(points, *snapshot[c])
                            for c in snapshot if c is not None])


def id_reference_distances(f, y, state, eps0=1e-4, snapshot=None):
    """Batch-mean squared Mahalanobis distances to the tracked centers."""
    if snapshot is None:
        snapshot = factor_snapshot(state, eps0)
    dist_pca = float(np.mean(mahalanobis_sq_rows(f, *snapshot[None])))
    dist_lda = {c: float(np.mean(mahalanobis_sq_rows(f[y == c], *snapshot[c])))
                for c in sorted(state.mu_lda) if np.any(y == c)}
    return dist_pca, dist_lda


def update_centers(state, f, y, subset, gamma_opt, eps0=1e-4):
    """EMA update of centers, covariances and reference distances; returns
    the factor snapshot of the updated covariances.  On NotPositiveDefinite
    the centers and covariances are updated, the distances are not."""
    if not state.initialized:
        raise UninitializedState("state not initialized; run warmup first")
    state.mu_pca = _ema(state.mu_pca, f.mean(axis=0), gamma_opt)
    state.cov_pca = _ema(state.cov_pca, _class_cov(f, eps0, state.dim),
                         gamma_opt)
    for c in subset:
        rows = f[y == c]
        if rows.shape[0] == 0:
            continue
        mu_new, cov_new = rows.mean(axis=0), _class_cov(rows, eps0, state.dim)
        if c in state.mu_lda:
            mu_new = _ema(state.mu_lda[c], mu_new, gamma_opt)
            cov_new = _ema(state.cov_lda[c], cov_new, gamma_opt)
        state.mu_lda[c], state.cov_lda[c] = mu_new, cov_new
    snapshot = factor_snapshot(state, eps0)
    dist_pca, dist_lda = id_reference_distances(f, y, state, eps0, snapshot)
    state.dist_id_pca = _ema(state.dist_id_pca, dist_pca, gamma_opt)
    for c, d in dist_lda.items():
        state.dist_id_lda[c] = (_ema(state.dist_id_lda[c], d, gamma_opt)
                                if c in state.dist_id_lda else d)
    return snapshot


def initialize_state(state, f, y, eps0=1e-4):
    """Seed centers/covariances/distances from a pooled warmup feature set."""
    f = np.asarray(f, dtype=float)
    y = np.asarray(y)
    state.mu_pca = f.mean(axis=0)
    state.cov_pca = _class_cov(f, eps0, state.dim)
    for c in sorted(np.unique(y)):
        rows = f[y == c]
        state.mu_lda[int(c)] = rows.mean(axis=0)
        state.cov_lda[int(c)] = _class_cov(rows, eps0, state.dim)
    state.initialized = True
    dist_pca, dist_lda = id_reference_distances(f, y, state, eps0)
    state.dist_id_pca = dist_pca
    state.dist_id_lda = dist_lda
    state.pool_f = []
    state.pool_y = []
    return state


def build_ood_centers(boundaries, state, a, eps=1e-7):
    """Extend each boundary point outward from its cluster center by length a.

    boundaries: list of (BoundarySet, class_or_None).  Returns a list of
    (center, class_or_None) pairs, one per boundary point.
    """
    if not state.initialized:
        raise UninitializedState("state not initialized; run warmup first")
    centers = []
    for bset, cls in boundaries:
        mu = state.mu_pca if cls is None else state.mu_lda[cls]
        for v in bset.points:
            direction = (v - mu) / (np.linalg.norm(v - mu) + eps)
            centers.append((v + a * direction, cls))
    return centers


def sample_fake_ood(ood_centers, a, num, rng):
    """Per provenance group, draw num points ~ N(center, (a/3) I) round-robin
    over that group's centers.  Returns (points, provenance list)."""
    if not ood_centers:
        raise ValueError("no outlier centers")
    groups = {}
    for center, cls in ood_centers:
        groups.setdefault(cls, []).append(center)
    std = math.sqrt(a / 3.0)
    points, provenance = [], []
    keys = sorted(groups, key=lambda c: (c is not None, c))
    for key in keys:
        members = groups[key]
        for j in range(num):
            center = members[j % len(members)]
            points.append(center + std * rng.standard_normal(center.size))
            provenance.append(key)
    return np.array(points), provenance


def filter_fake_ood(candidates, state, lambda_filter, batch_size,
                    n_id_classes, rng, subset, eps0=1e-4, snapshot=None):
    """Delete ID-like candidates by the Mahalanobis margin, then randomly
    downsample the survivors to at most floor(B/K) + 2 points."""
    candidates = np.asarray(candidates, dtype=float)
    if snapshot is None:
        snapshot = factor_snapshot(state, eps0)
    if len(subset) == 0:    # global center route
        dist_ood = mahalanobis_sq_rows(candidates, *snapshot[None])
        dist_ref = state.dist_id_pca
    else:                   # nearest tracked class, first one on ties
        dists = class_distances(candidates, snapshot)
        nearest = np.argmin(dists, axis=1)
        dist_ood = dists[np.arange(len(dists)), nearest]
        refs = np.array([state.dist_id_lda[c] for c in sorted(state.mu_lda)])
        dist_ref = refs[nearest]
    margin = lambda_filter * (10.0 / len(candidates)) * float(
        np.sum(dist_ood / np.maximum(dist_ref, 1e-12) - 1.0))
    keep = dist_ood >= (1.0 + margin) * dist_ref
    kept_idx = np.nonzero(keep)[0]
    if kept_idx.size == 0:
        raise AllFiltered("no candidate survived the Mahalanobis margin")
    cap = batch_size // n_id_classes + 2
    if kept_idx.size > cap:
        kept_idx = np.sort(rng.choice(kept_idx, size=cap, replace=False))
    return candidates[kept_idx]


def soft_labels(points, state, n_id_classes, eps0=1e-4, snapshot=None):
    """Distance-ratio soft labels over K+1 classes, normalized to sum 1.

    Per class j the raw label is exp(ratio_j - 1) with
    ratio_j = reference distance of class j / distance of the point to
    class j; the OOD entry is exp(1 - max_j ratio_j).  The normalized
    result is the softmax of those exponents, which keeps far points
    concentrated on K+1 without overflow.
    """
    if snapshot is None:
        snapshot = factor_snapshot(state, eps0)
    classes = sorted(state.mu_lda)
    dists = class_distances(np.asarray(points, dtype=float), snapshot)
    ratios = (np.array([state.dist_id_lda[c] for c in classes])
              / np.maximum(dists, 1e-12))
    exponents = np.full((len(dists), n_id_classes + 1), -np.inf)
    exponents[:, np.array(classes) - 1] = ratios - 1.0
    exponents[:, n_id_classes] = 1.0 - ratios.max(axis=1)
    return softmax(exponents, axis=1)


def one_hot(y, n_id_classes):
    """ID labels as one-hot rows over K+1 classes (zero mass at K+1)."""
    out = np.zeros((len(y), n_id_classes + 1))
    out[np.arange(len(y)), np.asarray(y, dtype=int) - 1] = 1.0
    return out


def grod_augment_batch(f, y, state, config, rng):
    """Full per-batch pipeline; returns (f_all, labels_all, info).

    During warmup the batch passes through unchanged (one-hot labels) while
    statistics accumulate.  Degraded batches name their FALLBACK_REASONS
    entry in info["fallback"]: "not_pd" and "all_filtered" give ID-only
    output, "degenerate_scatter" mines PCA boundaries only (a later
    "all_filtered" overwrites it).  A too-small batch is ID-only.
    """
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=int)
    k = state.n_id_classes
    id_labels = one_hot(y, k)
    batch_size = f.shape[0]

    if not state.initialized:
        state.pool_f.append(f.copy())
        state.pool_y.append(y.copy())
        state.batch_index += 1
        if state.batch_index >= config.warmup_batches:
            initialize_state(state, np.vstack(state.pool_f),
                             np.concatenate(state.pool_y), config.eps0)
        return f, id_labels, {"warmup": True, "n_fake": 0, "kappa": 0,
                              "fallback": None}

    state.batch_index += 1
    counts = {int(c): int(n) for c, n in zip(*np.unique(y, return_counts=True))}
    kappa, subset = select_classes(counts, batch_size, k)
    info = {"warmup": False, "n_fake": 0, "kappa": kappa, "fallback": None}
    try:
        snapshot = update_centers(state, f, y, subset, config.gamma_opt,
                                  config.eps0)
    except NotPositiveDefinite:
        info["fallback"] = "not_pd"
        return f, id_labels, info
    if batch_size < 2:
        return f, id_labels, info

    s = f.shape[1]
    p_pca = min(config.pca_axes or min(s, 8), s, batch_size - 1)
    boundaries = [(mine_boundary(f, pca_fit(f, p_pca)), None)]
    if kappa > 0:
        n_eligible = sum(1 for n in counts.values() if n >= 2)
        if n_eligible >= 2:
            p_lda = min(config.lda_axes or min(k - 1, 4), n_eligible - 1)
            try:
                for basis in lda_fit(f, y, p_lda, config.eps0):
                    if basis.class_id in subset:
                        boundaries.append(
                            (mine_boundary(f[y == basis.class_id], basis),
                             basis.class_id))
            except DegenerateScatter:
                info["fallback"] = "degenerate_scatter"

    centers = build_ood_centers(boundaries, state, config.a, config.eps)
    num = config.num or max(8, math.ceil(batch_size / (kappa + 1)))
    candidates, _ = sample_fake_ood(centers, config.a, num, rng)
    try:
        kept = filter_fake_ood(candidates, state, config.lambda_filter,
                               batch_size, k, rng, subset, config.eps0,
                               snapshot)
    except AllFiltered:
        info["fallback"] = "all_filtered"
        return f, id_labels, info

    if kappa > 0 and state.mu_lda:
        fake_labels = soft_labels(kept, state, k, config.eps0, snapshot)
    else:
        fake_labels = np.zeros((len(kept), k + 1))
        fake_labels[:, k] = 1.0
    info["n_fake"] = len(kept)
    return (np.vstack([f, kept]), np.vstack([id_labels, fake_labels]), info)
