"""Synthetic-outlier engine used during fine-tuning.

Per batch it: picks a class subset sized to the batch budget, EMA-updates
the centers, covariances and reference Mahalanobis distances (stacks over
K+1 centers: row 0 global, row c class c), factoring the whole covariance
stack once into the snapshot that every distance of the batch reads, mines
boundary rows (the batch's in its PCA basis, each selected class's in the
one LDA basis), pushes them outward to get outlier centers, samples
Gaussian candidates around those centers, deletes the ID-like ones by a
Mahalanobis margin, caps the survivors, and attaches distance-ratio soft
labels over K+1 classes.  Every covariance is regularized by the fixed
ridge numerics.EPS0 before it is factored.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (EPS0, NotPositiveDefinite, TooFewSamples,
                       mahalanobis_sq_rows, regularized_cholesky,
                       sample_covariance, softmax)
from .projections import DegenerateScatter, lda_fit, mine_boundary, pca_fit


class UninitializedState(Exception):
    pass


class AllFiltered(Exception):
    """Every candidate was deleted; the batch proceeds ID-only."""


FALLBACK_REASONS = ("all_filtered", "degenerate_scatter", "not_pd")
STATISTICS = ("mu", "cov", "dist", "tracked")


@dataclass
class GrodConfig:
    a: float = 0.1                 # boundary extension length, > 0
    gamma: float = 0.1             # loss mix weight, in [0, 1]
    gamma_opt: float = 0.1         # EMA rate for centers/covs/dists, (0, 1]
    num: int = 0                   # candidates per cluster group, 0 -> auto
    warmup_batches: int = 5
    lambda_filter: float = 0.1     # filter margin weight, >= 0
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
    """Statistics stacked over the K+1 centers, None until warmup ends:
    `mu` (K+1, d), `cov` (K+1, d, d), reference distances `dist` (K+1,)
    and the `tracked` mask.  Row 0 is the global center, row c class c; an
    untracked row holds no statistics.  Warmup fills `pool_f`/`pool_y`."""
    n_id_classes: int
    dim: int
    mu: np.ndarray | None = None
    cov: np.ndarray | None = None
    dist: np.ndarray | None = None
    tracked: np.ndarray | None = None
    batch_index: int = 0
    pool_f: list = field(default_factory=list)
    pool_y: list = field(default_factory=list)

    @property
    def initialized(self):
        return self.mu is not None


def save_grod_state(state, path):
    """npz archive: a JSON `meta` record, the STATISTICS stacks once
    initialized and the stacked warmup pool (`pool_f`, `pool_y`) while it
    is non-empty.  A None state saves an empty archive."""
    arrays = {}
    if state is not None:
        arrays["meta"] = np.frombuffer(json.dumps(
            {"n_id_classes": state.n_id_classes, "dim": state.dim,
             "batch_index": state.batch_index},
            sort_keys=True).encode(), dtype=np.uint8)
        if state.initialized:
            arrays.update({key: getattr(state, key) for key in STATISTICS})
        if state.pool_f:
            arrays["pool_f"] = np.vstack(state.pool_f)
            arrays["pool_y"] = np.concatenate(state.pool_y)
    np.savez(path, **arrays)


def load_grod_state(path):
    """Inverse of save_grod_state; the pool comes back as one batch, so
    it counts as one of the warmup_batches that initialization waits for."""
    with np.load(path) as data:
        if "meta" not in data.files:
            return None
        meta = json.loads(bytes(data["meta"]).decode())
        state = GrodState(n_id_classes=meta["n_id_classes"], dim=meta["dim"],
                          batch_index=meta["batch_index"])
        if "mu" in data.files:
            for key in STATISTICS:
                setattr(state, key, data[key])
        if "pool_f" in data.files:
            state.pool_f, state.pool_y = [data["pool_f"]], [data["pool_y"]]
    return state


def _class_cov(rows, dim):
    try:
        return sample_covariance(rows)
    except TooFewSamples:
        return EPS0 * np.eye(dim)


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


def factor_snapshot(state):
    """(mu, L^-1): a copy of the (K+1, d) centers and the inverted
    regularized Cholesky factors of the (K+1, d, d) covariances, from one
    stacked factorization, so every distance to a center is one matmul.
    The distance functions below take it as their `snapshot`."""
    if not state.initialized:
        raise UninitializedState("state not initialized; run warmup first")
    return state.mu.copy(), np.linalg.inv(regularized_cholesky(state.cov))


def class_distances(points, snapshot):
    """(points x K+1) squared distances to every center, untracked ones
    included."""
    return mahalanobis_sq_rows(points, *snapshot).T


def id_reference_distances(f, y, state, snapshot):
    """(K+1,) batch-mean squared Mahalanobis distances: row 0 over all of
    f, row c over the rows of class c; NaN for a class that is untracked
    or absent from the batch."""
    mu, linv = snapshot
    out = np.full(len(mu), np.nan)
    for c in np.flatnonzero(state.tracked):
        rows = f if c == 0 else f[y == c]
        if len(rows):   # on its own rows: a 1-row product rounds apart
            out[c] = np.mean(mahalanobis_sq_rows(rows, mu[c], linv[c]))
    return out


def update_centers(state, f, y, subset, gamma_opt):
    """Update of the global center and the subset's classes: a center not
    yet tracked takes the batch's mean and covariance, a tracked one their
    EMA; the reference distances likewise.  Returns the factor snapshot of
    the updated covariances.  On NotPositiveDefinite the centers and
    covariances are updated, the distances are not."""
    if not state.initialized:
        raise UninitializedState("state not initialized; run warmup first")
    was_tracked = state.tracked.copy()
    for i, rows in [(0, f)] + [(c, f[y == c]) for c in subset]:
        if rows.shape[0] == 0:
            continue
        mu, cov = rows.mean(axis=0), _class_cov(rows, state.dim)
        if state.tracked[i]:
            mu = _ema(state.mu[i], mu, gamma_opt)
            cov = _ema(state.cov[i], cov, gamma_opt)
        state.mu[i], state.cov[i], state.tracked[i] = mu, cov, True
    snapshot = factor_snapshot(state)
    new = id_reference_distances(f, y, state, snapshot)
    new = np.where(was_tracked, _ema(state.dist, new, gamma_opt), new)
    state.dist = np.where(np.isnan(new), state.dist, new)
    return snapshot


def initialize_state(state, f, y):
    """Seed the statistics from a pooled warmup feature set: empty stacks,
    then one update over the pool's classes.  The pool is emptied either
    way.  On NotPositiveDefinite (at a large enough feature scale the
    EPS0 ridge rounds away) the statistics are dropped before it is
    re-raised, so the state is uninitialized and warmup starts over."""
    k1, d = state.n_id_classes + 1, state.dim
    state.mu, state.cov = np.zeros((k1, d)), np.zeros((k1, d, d))
    state.dist, state.tracked = np.zeros(k1), np.zeros(k1, dtype=bool)
    y = np.asarray(y)
    try:
        update_centers(state, np.asarray(f, dtype=float), y, np.unique(y),
                       1.0)
    except NotPositiveDefinite:
        state.mu = state.cov = state.dist = state.tracked = None
        raise
    finally:
        state.pool_f, state.pool_y = [], []
    return state


def build_ood_centers(boundaries, state, a):
    """Extend each boundary point outward from its center by length a.

    boundaries: list of (rows (m_i, d), center row: 0 global, c class c).
    Returns (centers (m, d), provenance (m,)), one row per boundary point.
    """
    if not state.initialized:
        raise UninitializedState("state not initialized; run warmup first")
    points = np.vstack([rows for rows, _ in boundaries])
    provenance = np.concatenate([np.full(len(rows), center)
                                 for rows, center in boundaries])
    diff = points - state.mu[provenance]
    # one dot product per row: bitwise equal to np.linalg.norm of each
    norm = np.sqrt(diff[:, None, :] @ diff[:, :, None])[:, 0]
    return points + a * (diff / (norm + 1e-7)), provenance


def sample_fake_ood(ood_centers, a, num, rng):
    """Per provenance group, in increasing row order, draw num points
    ~ N(center, (a/3) I) round-robin over that group's centers, given
    build_ood_centers' (centers, provenance).  Returns the same pair."""
    centers, provenance = ood_centers
    if len(centers) == 0:
        raise ValueError("no outlier centers")
    std = math.sqrt(a / 3.0)
    keys = np.unique(provenance)
    points = []
    for key in keys:
        members = centers[provenance == key]
        points.append(members[np.arange(num) % len(members)]
                      + std * rng.standard_normal((num, centers.shape[1])))
    return np.vstack(points), np.repeat(keys, num)


def filter_fake_ood(candidates, state, lambda_filter, batch_size,
                    n_id_classes, rng, subset, snapshot):
    """Delete ID-like candidates by the Mahalanobis margin, then randomly
    downsample the survivors to at most floor(B/K) + 2 points.  Each
    candidate is measured against the global center when subset is empty,
    else against its nearest tracked class (the first one on ties)."""
    candidates = np.asarray(candidates, dtype=float)
    dists = class_distances(candidates, snapshot)
    nearest = np.zeros(len(dists), dtype=int)
    if len(subset):
        nearest += 1 + np.argmin(
            np.where(state.tracked[1:], dists[:, 1:], np.inf), axis=1)
    dist_ood = dists[np.arange(len(dists)), nearest]
    dist_ref = state.dist[nearest]
    margin = lambda_filter * (10.0 / len(candidates)) * float(
        np.sum(dist_ood / np.maximum(dist_ref, 1e-12) - 1.0))
    kept_idx = np.flatnonzero(dist_ood >= (1.0 + margin) * dist_ref)
    if kept_idx.size == 0:
        raise AllFiltered("no candidate survived the Mahalanobis margin")
    cap = batch_size // n_id_classes + 2
    if kept_idx.size > cap:
        kept_idx = np.sort(rng.choice(kept_idx, size=cap, replace=False))
    return candidates[kept_idx]


def soft_labels(points, state, n_id_classes, snapshot):
    """Distance-ratio soft labels over K+1 classes, normalized to sum 1.

    Per tracked class j the raw label is exp(ratio_j - 1) with
    ratio_j = reference distance of class j / distance of the point to
    class j; an untracked class gets zero mass.  The OOD entry is
    exp(1 - max_j ratio_j).  The normalized result is the softmax of those
    exponents, which keeps far points concentrated on K+1 without overflow.
    """
    k = n_id_classes
    dists = class_distances(np.asarray(points, dtype=float), snapshot)
    ratios = np.where(state.tracked[1:],
                      state.dist[1:] / np.maximum(dists[:, 1:], 1e-12),
                      -np.inf)
    exponents = np.empty((len(dists), k + 1))
    exponents[:, :k] = ratios - 1.0
    exponents[:, k] = 1.0 - ratios.max(axis=1)
    return softmax(exponents, axis=1)


def one_hot(y, n_id_classes):
    """ID labels as one-hot rows over K+1 classes (zero mass at K+1)."""
    out = np.zeros((len(y), n_id_classes + 1))
    out[np.arange(len(y)), np.asarray(y, dtype=int) - 1] = 1.0
    return out


def grod_augment_batch(f, y, state, config, rng):
    """Full per-batch pipeline; returns (f_all, labels_all, info).

    During warmup the batch passes through unchanged (one-hot labels) while
    it joins the pool; once the pool holds warmup_batches batches it seeds
    the statistics.  Degraded batches name their FALLBACK_REASONS entry in
    info["fallback"]: "not_pd" and "all_filtered" give ID-only output,
    "degenerate_scatter" mines PCA boundaries only (a later "all_filtered"
    overwrites it).  A "not_pd" at the end of warmup leaves the state
    uninitialized with an empty pool, so warmup starts over.  A too-small
    batch is ID-only.
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
        info = {"warmup": True, "n_fake": 0, "kappa": 0, "fallback": None}
        if len(state.pool_f) >= config.warmup_batches:
            try:
                initialize_state(state, np.vstack(state.pool_f),
                                 np.concatenate(state.pool_y))
            except NotPositiveDefinite:
                info["fallback"] = "not_pd"
        return f, id_labels, info

    state.batch_index += 1
    counts = {int(c): int(n) for c, n in zip(*np.unique(y, return_counts=True))}
    kappa, subset = select_classes(counts, batch_size, k)
    info = {"warmup": False, "n_fake": 0, "kappa": kappa, "fallback": None}
    try:
        snapshot = update_centers(state, f, y, subset, config.gamma_opt)
    except NotPositiveDefinite:
        info["fallback"] = "not_pd"
        return f, id_labels, info
    if batch_size < 2:
        return f, id_labels, info

    s = f.shape[1]
    p_pca = min(config.pca_axes or min(s, 8), s, batch_size - 1)
    boundaries = [(f[mine_boundary(f, pca_fit(f, p_pca))], 0)]
    n_eligible = sum(1 for n in counts.values() if n >= 2)
    if n_eligible >= 2:    # then kappa > 0 too
        p_lda = min(config.lda_axes or min(k - 1, 4), n_eligible - 1)
        try:
            basis = lda_fit(f, y, p_lda)
        except DegenerateScatter:
            info["fallback"] = "degenerate_scatter"
        else:   # lda_fit's classes are select_classes' eligible ones
            for c in subset:
                rows = f[y == c]
                boundaries.append((rows[mine_boundary(rows, basis)], c))

    centers = build_ood_centers(boundaries, state, config.a)
    num = config.num or max(8, math.ceil(batch_size / (kappa + 1)))
    candidates, _ = sample_fake_ood(centers, config.a, num, rng)
    try:
        kept = filter_fake_ood(candidates, state, config.lambda_filter,
                               batch_size, k, rng, subset, snapshot)
    except AllFiltered:
        info["fallback"] = "all_filtered"
        return f, id_labels, info

    # with kappa > 0, update_centers tracked the subset's classes
    fake_labels = (soft_labels(kept, state, k, snapshot)
                   if kappa > 0 else one_hot(np.full(len(kept), k + 1), k))
    info["n_fake"] = len(kept)
    return (np.vstack([f, kept]), np.vstack([id_labels, fake_labels]), info)
