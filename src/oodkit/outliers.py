"""Synthetic-outlier engine used during fine-tuning.

Per batch it: takes the batch's moments once (stacks over K+1 centers:
row 0 global, row c class c), picks a class subset sized to the batch
budget, EMA-updates the centers, covariances and reference Mahalanobis
distances, factoring the covariance stack once into the inverted factors
that every distance of the batch reads, mines boundary rows (the batch's
in the PCA basis of its covariance, each selected class's in the LDA basis
of all class moments), pushes them outward to get outlier centers, samples
Gaussian candidates around those centers, deletes the ID-like ones by a
Mahalanobis margin, caps the survivors, and attaches distance-ratio soft
labels over K+1 classes.  Every covariance is regularized by the fixed
ridge numerics.EPS0 before it is factored.  The hyperparameters are the
fields of the experiment config, harness.ExperimentConfig.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (NotPositiveDefinite, batch_moments,
                       mahalanobis_sq_rows, regularized_cholesky, softmax,
                       tril_inverse)
from .projections import DegenerateScatter, lda_fit, mine_boundary, pca_fit


class UninitializedState(Exception):
    pass


class AllFiltered(Exception):
    """Every candidate was deleted; the batch proceeds ID-only."""


FALLBACK_REASONS = ("all_filtered", "degenerate_scatter", "not_pd")


@dataclass
class GrodState:
    """Statistics stacked over the K+1 centers, None until warmup ends:
    `mu` (K+1, d), `cov` (K+1, d, d), `linv` (K+1, d, d) the inverted
    regularized Cholesky factors of `cov` as of the last update that
    factored, reference distances `dist` (K+1,) and the `tracked` mask.
    Row 0 is the global center, row c class c; an untracked row holds no
    statistics.  Warmup fills `pool_f`/`pool_y`."""
    n_id_classes: int
    dim: int
    mu: np.ndarray | None = None
    cov: np.ndarray | None = None
    linv: np.ndarray | None = None
    dist: np.ndarray | None = None
    tracked: np.ndarray | None = None
    batch_index: int = 0
    pool_f: list = field(default_factory=list)
    pool_y: list = field(default_factory=list)

    @property
    def initialized(self):
        return self.mu is not None


def select_classes(count):
    """(eligible, subset) from batch_moments' (K+1,) counts, count[0] the
    batch size B: the classes with 2 rows or more, and the top kappa =
    min(|eligible|, max(1, floor(2B/K))) of them by count, ties broken
    toward smaller class index; both in increasing class order."""
    eligible = np.flatnonzero(count[1:] > 1) + 1
    kappa = min(len(eligible), max(1, (2 * int(count[0])) // (len(count) - 1)))
    ranked = eligible[np.argsort(-count[eligible], kind="stable")]
    return eligible, sorted(ranked[:kappa].tolist())


def _ema(old, new, rate):
    return (1.0 - rate) * old + rate * new


def class_distances(points, state):
    """(points x K+1) squared distances to every center, untracked ones
    included, each one matmul with the state's inverted factors."""
    return mahalanobis_sq_rows(points, state.mu, state.linv).T


def id_reference_distances(f, y, state):
    """(K+1,) batch-mean squared Mahalanobis distances: row 0 over all of
    f, row c over the rows of class c; NaN for a class that is untracked
    or absent from the batch."""
    out = np.full(len(state.mu), np.nan)
    for c in np.flatnonzero(state.tracked):
        rows = f if c == 0 else f[y == c]
        if len(rows):   # on its own rows: a 1-row product rounds apart
            out[c] = np.mean(mahalanobis_sq_rows(rows, state.mu[c],
                                                 state.linv[c]))
    return out


def update_centers(state, f, y, moments, subset, gamma_opt):
    """Update of the global center and the subset's classes from the
    batch's moments, batch_moments(f, y, K): a center not yet tracked
    takes the batch's mean and covariance, a tracked one their EMA, one
    expression over the updated rows; the reference distances likewise.
    Then the whole covariance stack is factored once into `state.linv`.
    On NotPositiveDefinite the centers and covariances are updated, the
    factors and distances are not."""
    if not state.initialized:
        raise UninitializedState("state not initialized; run warmup first")
    was_tracked = state.tracked.copy()
    rows = [c for c in (0, *subset) if moments.count[c]]
    old, mu, cov = was_tracked[rows], moments.mean[rows], moments.cov[rows]
    state.mu[rows] = np.where(old[:, None],
                              _ema(state.mu[rows], mu, gamma_opt), mu)
    state.cov[rows] = np.where(old[:, None, None],
                               _ema(state.cov[rows], cov, gamma_opt), cov)
    state.tracked[rows] = True
    state.linv = tril_inverse(regularized_cholesky(state.cov))
    new = id_reference_distances(f, y, state)
    new = np.where(was_tracked, _ema(state.dist, new, gamma_opt), new)
    state.dist = np.where(np.isnan(new), state.dist, new)


def initialize_state(state, f, y):
    """Seed the statistics from a pooled warmup feature set: empty stacks,
    then one update over the pool's classes.  The pool is emptied either
    way.  On NotPositiveDefinite (at a large enough feature scale the
    EPS0 ridge rounds away) the statistics are dropped before it is
    re-raised, so the state is uninitialized and warmup starts over."""
    k1, d = state.n_id_classes + 1, state.dim
    state.mu, state.cov = np.zeros((k1, d)), np.zeros((k1, d, d))
    state.dist, state.tracked = np.zeros(k1), np.zeros(k1, dtype=bool)
    f, y = np.asarray(f, dtype=float), np.asarray(y)
    try:
        update_centers(state, f, y, batch_moments(f, y, state.n_id_classes),
                       np.unique(y), 1.0)
    except NotPositiveDefinite:
        state.mu = state.cov = state.linv = state.dist = state.tracked = None
        raise
    finally:
        state.pool_f, state.pool_y = [], []
    return state


def build_ood_centers(boundaries, state, a):
    """Extend each boundary point outward from its center by length a.

    boundaries: list of (rows (m_i, d), center row: 0 global, c class c).
    Returns (centers (m, d), sizes), one center per boundary point, each
    boundary's points a group of sizes[i] consecutive centers.
    """
    if not state.initialized:
        raise UninitializedState("state not initialized; run warmup first")
    points = np.vstack([rows for rows, _ in boundaries])
    sizes = np.array([len(rows) for rows, _ in boundaries])
    diff = points - state.mu[np.repeat([c for _, c in boundaries], sizes)]
    # one dot product per row: bitwise equal to np.linalg.norm of each
    norm = np.sqrt(diff[:, None, :] @ diff[:, :, None])[:, 0]
    return points + a * (diff / (norm + 1e-7)), sizes


def sample_fake_ood(ood_centers, a, num, rng):
    """Per group of build_ood_centers' (centers, sizes), in order, draw
    num points ~ N(center, (a/3) I) round-robin over the group's centers.
    The noise of all groups is one draw.  Returns the candidates."""
    centers, sizes = ood_centers
    if len(sizes) == 0 or np.min(sizes) < 1:
        raise ValueError(f"outlier center groups must not be empty: {sizes}")
    starts = np.cumsum(sizes) - sizes
    picks = starts[:, None] + np.arange(num) % sizes[:, None]
    noise = rng.standard_normal((len(sizes) * num, centers.shape[1]))
    return centers[picks.ravel()] + math.sqrt(a / 3.0) * noise


def filter_fake_ood(candidates, state, lambda_filter, batch_size, rng,
                    subset):
    """Delete ID-like candidates by the Mahalanobis margin, then randomly
    downsample the survivors to at most floor(B/K) + 2 points.  Each
    candidate is measured against the global center when subset is empty,
    else against its nearest tracked class (the first one on ties)."""
    candidates = np.asarray(candidates, dtype=float)
    dists = class_distances(candidates, state)
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
    cap = batch_size // state.n_id_classes + 2
    if kept_idx.size > cap:
        kept_idx = np.sort(rng.choice(kept_idx, size=cap, replace=False))
    return candidates[kept_idx]


def soft_labels(points, state):
    """Distance-ratio soft labels over K+1 classes, normalized to sum 1.

    Per tracked class j the raw label is exp(ratio_j - 1) with
    ratio_j = reference distance of class j / distance of the point to
    class j; an untracked class gets zero mass.  The OOD entry is
    exp(1 - max_j ratio_j).  The normalized result is the softmax of those
    exponents, which keeps far points concentrated on K+1 without overflow.
    """
    k = state.n_id_classes
    dists = class_distances(np.asarray(points, dtype=float), state)
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
    moments = batch_moments(f, y, k)
    eligible, subset = select_classes(moments.count)
    kappa = len(subset)
    info = {"warmup": False, "n_fake": 0, "kappa": kappa, "fallback": None}
    try:
        update_centers(state, f, y, moments, subset, config.gamma_opt)
    except NotPositiveDefinite:
        info["fallback"] = "not_pd"
        return f, id_labels, info
    if batch_size < 2:
        return f, id_labels, info

    s = f.shape[1]
    p_pca = min(config.pca_axes or min(s, 8), s, batch_size - 1)
    boundaries = [(f[mine_boundary(f, pca_fit(moments, p_pca))], 0)]
    if len(eligible) >= 2:    # then kappa > 0 too
        p_lda = min(config.lda_axes or min(k - 1, 4), len(eligible) - 1)
        try:
            basis = lda_fit(moments, p_lda)
        except DegenerateScatter:
            info["fallback"] = "degenerate_scatter"
        else:   # lda_fit's classes are the eligible ones
            for c in subset:
                rows = f[y == c]
                boundaries.append((rows[mine_boundary(rows, basis)], c))

    centers = build_ood_centers(boundaries, state, config.a)
    num = config.num or max(8, math.ceil(batch_size / (kappa + 1)))
    candidates = sample_fake_ood(centers, config.a, num, rng)
    try:
        kept = filter_fake_ood(candidates, state, config.lambda_filter,
                               batch_size, rng, subset)
    except AllFiltered:
        info["fallback"] = "all_filtered"
        return f, id_labels, info

    # with kappa > 0, update_centers tracked the subset's classes
    fake_labels = (soft_labels(kept, state)
                   if kappa > 0 else one_hot(np.full(len(kept), k + 1), k))
    info["n_fake"] = len(kept)
    return (np.vstack([f, kept]), np.vstack([id_labels, fake_labels]), info)
