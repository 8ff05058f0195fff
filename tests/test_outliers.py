"""Tests for the synthetic-outlier engine: class selection, EMA statistics,
boundary extension, candidate sampling, filtering and soft labels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodkit.numerics import (mahalanobis_sq, mahalanobis_sq_rows,
                             regularized_inverse, sample_covariance, softmax)
from oodkit.outliers import (AllFiltered, GrodConfig, GrodState,
                             UninitializedState, build_ood_centers,
                             class_distances, factor_snapshot,
                             filter_fake_ood, grod_augment_batch,
                             id_reference_distances, initialize_state,
                             load_grod_state, one_hot, sample_fake_ood,
                             save_grod_state, select_classes, soft_labels,
                             update_centers)
from oodkit.projections import (DegenerateScatter, lda_fit, mine_boundary,
                                pca_fit)


def make_state(rng, k=2, dim=2, spread=6.0, n=200):
    """Initialized state from k well-separated clusters; returns (state, f, y)."""
    f, y = [], []
    for c in range(1, k + 1):
        center = np.zeros(dim)
        center[(c - 1) % dim] = spread * c
        f.append(center + rng.standard_normal((n, dim)))
        y.extend([c] * n)
    f = np.vstack(f)
    y = np.array(y)
    state = GrodState(n_id_classes=k, dim=dim)
    initialize_state(state, f, y)
    return state, f, y


def tracked_classes(state):
    return [int(c) for c in np.flatnonzero(state.tracked[1:]) + 1]


# Reference copies of the per-row engine that the batched distances replaced:
# one scalar Mahalanobis distance per (point, center) against an explicit
# regularized inverse.

def ref_ood_distance(v, state, subset, eps0=1e-4):
    """(distance, nearest class) of one point; class None when subset is
    empty (global center route)."""
    if len(subset) == 0:
        return mahalanobis_sq(v, state.mu[0],
                              regularized_inverse(state.cov[0], eps0)), None
    best, best_c = None, None
    for c in tracked_classes(state):
        d = mahalanobis_sq(v, state.mu[c],
                           regularized_inverse(state.cov[c], eps0))
        if best is None or d < best:
            best, best_c = d, c
    return best, best_c


def ref_filter_fake_ood(candidates, state, lambda_filter, batch_size,
                        n_id_classes, rng, subset, eps0=1e-4):
    candidates = np.asarray(candidates, dtype=float)
    dist_ood = np.empty(len(candidates))
    dist_ref = np.empty(len(candidates))
    for i, v in enumerate(candidates):
        d, c = ref_ood_distance(v, state, subset, eps0)
        dist_ood[i] = d
        dist_ref[i] = state.dist[0 if c is None else c]
    margin = lambda_filter * (10.0 / len(candidates)) * float(
        np.sum(dist_ood / np.maximum(dist_ref, 1e-12) - 1.0))
    kept_idx = np.nonzero(dist_ood >= (1.0 + margin) * dist_ref)[0]
    if kept_idx.size == 0:
        raise AllFiltered("no candidate survived the Mahalanobis margin")
    cap = batch_size // n_id_classes + 2
    if kept_idx.size > cap:
        kept_idx = np.sort(rng.choice(kept_idx, size=cap, replace=False))
    return candidates[kept_idx]


def ref_soft_labels(points, state, n_id_classes, eps0=1e-4):
    classes = tracked_classes(state)
    inv = {c: regularized_inverse(state.cov[c], eps0) for c in classes}
    k = n_id_classes
    labels = np.zeros((len(points), k + 1))
    for i, v in enumerate(points):
        exponents = np.full(k + 1, -np.inf)
        ratios = []
        for c in classes:
            d = max(mahalanobis_sq(v, state.mu[c], inv[c]), 1e-12)
            ratios.append(state.dist[c] / d)
            exponents[c - 1] = ratios[-1] - 1.0
        exponents[k] = 1.0 - max(ratios)
        e = np.exp(exponents - np.max(exponents))
        labels[i] = e / e.sum()
    return labels


# Dict-based copy of the engine from before its statistics became stacks
# over K+1 centers: the global center apart (key None), the classes in
# dicts, and the factors, distances, filter and soft labels in the same
# order of arithmetic.  The stacked engine must reproduce it bit for bit.

class RefState:
    def __init__(self, k, dim):
        self.n_id_classes, self.dim, self.batch_index = k, dim, 0
        self.mu_pca = self.cov_pca = self.dist_id_pca = None
        self.mu_lda, self.cov_lda, self.dist_id_lda = {}, {}, {}
        self.pool_f, self.pool_y = [], []


def ref_class_cov(rows, eps0, dim):
    return sample_covariance(rows) if len(rows) > 1 else eps0 * np.eye(dim)


def ref_ema(old, new, rate):
    return (1.0 - rate) * old + rate * new


def ref_snapshot(state, eps0):
    def linv(cov):
        sym = 0.5 * (cov + cov.T) + eps0 * np.eye(len(cov))
        return np.linalg.inv(np.linalg.cholesky(sym))
    snap = {None: (state.mu_pca, linv(state.cov_pca))}
    snap.update((c, (state.mu_lda[c], linv(state.cov_lda[c])))
                for c in sorted(state.mu_lda))
    return snap


def ref_rows(x, mu, linv):
    z = (np.asarray(x, dtype=float) - mu) @ linv.T
    return np.einsum("ij,ij->i", z, z)


def ref_reference_distances(f, y, state, snap):
    dist_lda = {c: float(np.mean(ref_rows(f[y == c], *snap[c])))
                for c in sorted(state.mu_lda) if np.any(y == c)}
    return float(np.mean(ref_rows(f, *snap[None]))), dist_lda


def ref_initialize_state(state, f, y, eps0=1e-4):
    f, y = np.asarray(f, dtype=float), np.asarray(y)
    state.mu_pca = f.mean(axis=0)
    state.cov_pca = ref_class_cov(f, eps0, state.dim)
    for c in sorted(np.unique(y)):
        state.mu_lda[int(c)] = f[y == c].mean(axis=0)
        state.cov_lda[int(c)] = ref_class_cov(f[y == c], eps0, state.dim)
    state.dist_id_pca, state.dist_id_lda = ref_reference_distances(
        f, y, state, ref_snapshot(state, eps0))
    state.pool_f, state.pool_y = [], []


def ref_update_centers(state, f, y, subset, gamma_opt, eps0=1e-4):
    state.mu_pca = ref_ema(state.mu_pca, f.mean(axis=0), gamma_opt)
    state.cov_pca = ref_ema(state.cov_pca,
                            ref_class_cov(f, eps0, state.dim), gamma_opt)
    for c in subset:
        rows = f[y == c]
        mu, cov = rows.mean(axis=0), ref_class_cov(rows, eps0, state.dim)
        if c in state.mu_lda:
            mu = ref_ema(state.mu_lda[c], mu, gamma_opt)
            cov = ref_ema(state.cov_lda[c], cov, gamma_opt)
        state.mu_lda[c], state.cov_lda[c] = mu, cov
    snap = ref_snapshot(state, eps0)
    dist_pca, dist_lda = ref_reference_distances(f, y, state, snap)
    state.dist_id_pca = ref_ema(state.dist_id_pca, dist_pca, gamma_opt)
    for c, d in dist_lda.items():
        state.dist_id_lda[c] = (ref_ema(state.dist_id_lda[c], d, gamma_opt)
                                if c in state.dist_id_lda else d)
    return snap


def ref_boundary(rows, basis):
    return [rows[i] for i in mine_boundary(rows, basis)]


def ref_build_ood_centers(boundaries, state, a, eps=1e-7):
    centers = []
    for points, cls in boundaries:
        mu = state.mu_pca if cls is None else state.mu_lda[cls]
        for v in points:
            direction = (v - mu) / (np.linalg.norm(v - mu) + eps)
            centers.append((v + a * direction, cls))
    return centers


def ref_sample_fake_ood(ood_centers, a, num, rng):
    groups = {}
    for center, cls in ood_centers:
        groups.setdefault(cls, []).append(center)
    points = []
    for key in sorted(groups, key=lambda c: (c is not None, c)):
        for j in range(num):
            center = groups[key][j % len(groups[key])]
            points.append(center + math.sqrt(a / 3.0)
                          * rng.standard_normal(center.size))
    return np.array(points)


def ref_augment(f, y, state, config, rng):
    """The per-batch pipeline of grod_augment_batch on a RefState."""
    k, n = state.n_id_classes, len(y)
    id_labels = one_hot(y, k)
    state.batch_index += 1
    if state.mu_pca is None:
        state.pool_f.append(f.copy())
        state.pool_y.append(y.copy())
        if state.batch_index >= config.warmup_batches:
            ref_initialize_state(state, np.vstack(state.pool_f),
                                 np.concatenate(state.pool_y))
        return f, id_labels, {"warmup": True, "n_fake": 0, "kappa": 0,
                              "fallback": None}
    counts = {int(c): int(m) for c, m in zip(*np.unique(y, return_counts=True))}
    kappa, subset = select_classes(counts, n, k)
    info = {"warmup": False, "n_fake": 0, "kappa": kappa, "fallback": None}
    snap = ref_update_centers(state, f, y, subset, config.gamma_opt)
    p_pca = min(config.pca_axes or min(f.shape[1], 8), f.shape[1], n - 1)
    boundaries = [(ref_boundary(f, pca_fit(f, p_pca)), None)]
    n_eligible = sum(1 for m in counts.values() if m >= 2)
    if kappa > 0 and n_eligible >= 2:
        p_lda = min(config.lda_axes or min(k - 1, 4), n_eligible - 1)
        try:
            basis = lda_fit(f, y, p_lda)
            boundaries += [(ref_boundary(f[y == c], basis), c)
                           for c in subset]
        except DegenerateScatter:
            info["fallback"] = "degenerate_scatter"
    num = config.num or max(8, math.ceil(n / (kappa + 1)))
    cands = ref_sample_fake_ood(
        ref_build_ood_centers(boundaries, state, config.a),
        config.a, num, rng)
    classes = sorted(state.mu_lda)
    if not subset:
        dist_ood = ref_rows(cands, *snap[None])
        dist_ref = state.dist_id_pca
    else:
        dists = np.column_stack([ref_rows(cands, *snap[c]) for c in classes])
        nearest = np.argmin(dists, axis=1)
        dist_ood = dists[np.arange(len(dists)), nearest]
        dist_ref = np.array([state.dist_id_lda[c] for c in classes])[nearest]
    margin = config.lambda_filter * (10.0 / len(cands)) * float(
        np.sum(dist_ood / np.maximum(dist_ref, 1e-12) - 1.0))
    kept_idx = np.nonzero(dist_ood >= (1.0 + margin) * dist_ref)[0]
    if kept_idx.size == 0:
        info["fallback"] = "all_filtered"
        return f, id_labels, info
    if kept_idx.size > n // k + 2:
        kept_idx = np.sort(rng.choice(kept_idx, size=n // k + 2,
                                      replace=False))
    kept = cands[kept_idx]
    if kappa > 0:
        dists = np.column_stack([ref_rows(kept, *snap[c]) for c in classes])
        ratios = (np.array([state.dist_id_lda[c] for c in classes])
                  / np.maximum(dists, 1e-12))
        exponents = np.full((len(kept), k + 1), -np.inf)
        exponents[:, np.array(classes) - 1] = ratios - 1.0
        exponents[:, k] = 1.0 - ratios.max(axis=1)
        fake_labels = softmax(exponents, axis=1)
    else:
        fake_labels = np.zeros((len(kept), k + 1))
        fake_labels[:, k] = 1.0
    info["n_fake"] = len(kept)
    return np.vstack([f, kept]), np.vstack([id_labels, fake_labels]), info


def random_cov(rng, dim):
    """Random SPD covariance with spectrum in (1e-6, 1]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    vals = np.exp(rng.uniform(np.log(1e-6), 0.0, size=dim))
    vals[rng.integers(dim)] = 1.0
    return (q * vals) @ q.T


class TestSelectClasses:
    def test_full_budget(self):
        counts = {c: 7 for c in range(1, 11)}
        kappa, subset = select_classes(counts, 64, 10)
        assert kappa == 10
        assert subset == list(range(1, 11))

    def test_no_eligible_classes(self):
        kappa, subset = select_classes({1: 1, 2: 0}, 64, 10)
        assert kappa == 0
        assert subset == []

    def test_tiny_batch_picks_largest(self):
        counts = {5: 3, 7: 9, 9: 2}
        kappa, subset = select_classes(counts, 4, 100)
        assert kappa == 1
        assert subset == [7]

    def test_count_ties_break_to_smaller_index(self):
        counts = {1: 5, 2: 5, 3: 5}
        kappa, subset = select_classes(counts, 2, 4)
        assert kappa == 1
        assert subset == [1]

    def test_singletons_excluded(self):
        counts = {1: 1, 2: 10, 3: 1, 4: 4}
        _, subset = select_classes(counts, 64, 4)
        assert 1 not in subset and 3 not in subset


class TestUpdateCenters:
    def test_single_step_recurrence(self):
        rng = np.random.default_rng(0)
        state, f, y = make_state(rng)
        state.mu[0] = np.zeros(2)
        batch = np.ones((10, 2))
        update_centers(state, batch, np.array([1] * 10), [], 0.1)
        np.testing.assert_allclose(state.mu[0], [0.1, 0.1], atol=1e-12)

    def test_full_replacement(self):
        rng = np.random.default_rng(1)
        state, f, y = make_state(rng)
        batch = rng.standard_normal((20, 2)) + 5.0
        yb = np.array([1] * 20)
        update_centers(state, batch, yb, [1], 1.0)
        np.testing.assert_allclose(state.mu[0], batch.mean(axis=0),
                                   atol=1e-12)
        np.testing.assert_allclose(state.mu[1], batch.mean(axis=0),
                                   atol=1e-12)

    def test_geometric_convergence_to_fixed_point(self):
        rng = np.random.default_rng(2)
        state, _, _ = make_state(rng)
        batch = np.full((10, 2), 3.0)
        yb = np.array([1] * 10)
        for _ in range(200):
            update_centers(state, batch, yb, [1], 0.1)
        np.testing.assert_allclose(state.mu[0], [3.0, 3.0], atol=1e-6)

    def test_uninitialized_raises(self):
        state = GrodState(n_id_classes=2, dim=2)
        with pytest.raises(UninitializedState):
            update_centers(state, np.zeros((4, 2)), np.array([1] * 4),
                           [], 0.1)


class TestIdReferenceDistances:
    def test_all_samples_at_center_zero(self):
        rng = np.random.default_rng(3)
        state, _, _ = make_state(rng)
        f = np.tile(state.mu[0], (10, 1))
        d_pca = id_reference_distances(f, np.array([1] * 10), state,
                                       factor_snapshot(state))[0]
        assert d_pca <= 1e-6

    def test_standard_normal_chi_square_expectation(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((5000, 2))
        y = np.array([1] * 5000)
        state = GrodState(n_id_classes=1, dim=2)
        initialize_state(state, f, y)
        d_pca, *d_lda = id_reference_distances(f, y, state,
                                               factor_snapshot(state))
        assert abs(d_pca - 2.0) <= 0.2
        assert abs(d_lda[0] - 2.0) <= 0.2

    def test_class_restriction(self):
        rng = np.random.default_rng(5)
        state, f, y = make_state(rng)
        d_lda = id_reference_distances(f, y, state, factor_snapshot(state))
        # restricted mean must match a manual recomputation for class 1
        inv = regularized_inverse(state.cov[1])
        expected = np.mean([mahalanobis_sq(v, state.mu[1], inv)
                            for v in f[y == 1]])
        assert d_lda[1] == pytest.approx(expected, rel=1e-10)


class TestBuildOodCenters:
    def test_hand_extension(self):
        rng = np.random.default_rng(6)
        state, _, _ = make_state(rng)
        state.mu[0] = np.zeros(2)
        centers, provenance = build_ood_centers(
            [(np.array([[2.0, 0.0]]), 0)], state, a=0.1)
        np.testing.assert_allclose(centers[0], [2.1, 0.0], atol=1e-6)
        assert provenance.tolist() == [0]

    def test_degenerate_direction_guard(self):
        rng = np.random.default_rng(7)
        state, _, _ = make_state(rng)
        v = state.mu[0].copy()
        centers, _ = build_ood_centers([(v[None], 0)], state, a=0.1)
        np.testing.assert_allclose(centers[0], v, atol=1e-6)

    def test_extension_within_a(self):
        rng = np.random.default_rng(8)
        state, f, _ = make_state(rng)
        for center in build_ood_centers([(f[:5], 0)], state, a=0.1)[0]:
            matched = min(np.linalg.norm(center - f[i]) for i in range(5))
            assert matched <= 0.1 + 1e-9

    def test_lda_source_labeling(self):
        # each class's rows, mined in the shared LDA basis, are extended
        # from that class's center and keep the class as provenance
        rng = np.random.default_rng(10)
        state, f, y = make_state(rng)
        basis = lda_fit(f, y, 1)
        boundaries = [(f[mine_boundary(f, pca_fit(f, 2))], 0)]
        for c in (1, 2):
            rows = f[y == c]
            boundaries.append((rows[mine_boundary(rows, basis)], c))
        centers, provenance = build_ood_centers(boundaries, state, a=0.1)
        assert provenance.tolist() == [key for rows, key in boundaries
                                       for _ in rows]
        points = np.vstack([rows for rows, _ in boundaries])
        for center, point, key in zip(centers, points, provenance):
            out = point - state.mu[key]
            expected = point + 0.1 * out / (np.linalg.norm(out) + 1e-7)
            np.testing.assert_allclose(center, expected, rtol=0, atol=1e-12)
            if key:
                assert np.all(y[np.flatnonzero(
                    np.all(f == point, axis=1))] == key)


class TestSampleFakeOod:
    def test_single_center_single_sample(self):
        rng = np.random.default_rng(9)
        pts, prov = sample_fake_ood((np.zeros((1, 2)), np.array([0])),
                                    a=0.1, num=1, rng=rng)
        assert pts.shape == (1, 2)
        assert prov.tolist() == [0]

    def test_monte_carlo_variance(self):
        rng = np.random.default_rng(10)
        pts, _ = sample_fake_ood((np.zeros((1, 2)), np.array([0])), a=0.3,
                                 num=20000, rng=rng)
        var = pts.var(axis=0)
        np.testing.assert_allclose(var, 0.1, atol=0.01)

    def test_round_robin_and_group_counts(self):
        rng = np.random.default_rng(11)
        centers = (np.array([np.zeros(2), np.full(2, 100.0),
                             np.full(2, -100.0)]), np.array([0, 0, 1]))
        pts, prov = sample_fake_ood(centers, a=0.01, num=4, rng=rng)
        assert len(pts) == 8           # 4 per provenance group
        assert prov.tolist().count(0) == 4 and prov.tolist().count(1) == 4
        near_zero = np.sum(np.linalg.norm(pts[:4], axis=1) < 50)
        assert near_zero == 2          # round-robin over the two PCA centers

    def test_determinism(self):
        centers = (np.zeros((1, 3)), np.array([0]))
        a = sample_fake_ood(centers, 0.1, 5,
                            np.random.Generator(np.random.Philox(42)))[0]
        b = sample_fake_ood(centers, 0.1, 5,
                            np.random.Generator(np.random.Philox(42)))[0]
        np.testing.assert_array_equal(a, b)


class TestOodDistance:
    """Batched distances from the factor snapshot (global center route and
    the candidates x classes matrix the filter takes its argmin over)."""

    def test_empty_subset_uses_global_center(self):
        rng = np.random.default_rng(12)
        state, _, _ = make_state(rng)
        mu, linv = factor_snapshot(state)
        d = mahalanobis_sq_rows(state.mu[0][None], mu[0], linv[0])
        assert d.shape == (1,)
        assert d[0] <= 1e-6

    def test_at_class_center(self):
        rng = np.random.default_rng(13)
        state, _, _ = make_state(rng)
        dists = class_distances(state.mu[2][None], factor_snapshot(state))
        assert np.argmin(dists[0, 1:]) + 1 == 2
        assert dists[0, 1:].min() <= 1e-6

    def test_bruteforce_min_oracle(self):
        rng = np.random.default_rng(14)
        state, _, _ = make_state(rng, k=3, dim=3)
        points = rng.standard_normal((20, 3)) * 10
        dists = class_distances(points, factor_snapshot(state))[:, 1:]
        for v, row in zip(points, dists):
            per_class = {
                cc: mahalanobis_sq(v, state.mu[cc],
                                   regularized_inverse(state.cov[cc]))
                for cc in (1, 2, 3)}
            best = min(per_class, key=per_class.get)
            assert np.argmin(row) + 1 == best
            assert row.min() == pytest.approx(per_class[best], rel=1e-10)

    @given(st.sampled_from([1, 2, 8, 64]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batched_matches_scalar_oracle(self, dim, seed):
        # spectra down to 1e-6; both the global center route (row 0,
        # used with an empty class subset) and every class center
        rng = np.random.default_rng(seed)
        state = GrodState(n_id_classes=2, dim=dim,
                          tracked=np.ones(3, dtype=bool))
        centers = [(rng.standard_normal(dim), random_cov(rng, dim))
                   for _ in range(3)]
        state.mu = np.array([mu for mu, _ in centers])
        state.cov = np.array([cov for _, cov in centers])
        snapshot = factor_snapshot(state)
        points = rng.standard_normal((12, dim)) * rng.uniform(0.01, 10.0)
        columns = {0: mahalanobis_sq_rows(points, snapshot[0][0],
                                          snapshot[1][0])}
        columns.update(zip((1, 2), class_distances(points, snapshot)[:, 1:].T))
        for key, got in columns.items():
            want = [mahalanobis_sq(v, state.mu[key],
                                   regularized_inverse(state.cov[key]))
                    for v in points]
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


class TestFilterFakeOod:
    def test_candidate_at_class_center_deleted(self):
        rng = np.random.default_rng(15)
        state, _, _ = make_state(rng)
        grng = np.random.default_rng(0)
        far = state.mu[1] + 1000.0
        kept = filter_fake_ood(np.vstack([state.mu[1], far]), state,
                               0.1, 64, 2, grng, [1, 2],
                               factor_snapshot(state))
        assert len(kept) == 1
        np.testing.assert_allclose(kept[0], far)

    def test_far_candidate_retained(self):
        # a single far candidate sits exactly at its own margin threshold
        # and survives the >= comparison
        rng = np.random.default_rng(16)
        state, _, _ = make_state(rng)
        kept = filter_fake_ood(state.mu[0][None] + 500.0, state, 0.1, 64, 2,
                               np.random.default_rng(1), [1, 2],
                               factor_snapshot(state))
        assert len(kept) == 1

    def test_zero_margin_keeps_all_far_candidates(self):
        rng = np.random.default_rng(30)
        state, _, _ = make_state(rng)
        cands = np.stack([state.mu[0] + 500.0, state.mu[0] - 500.0])
        kept = filter_fake_ood(cands, state, 0.0, 64, 2,
                               np.random.default_rng(1), [1, 2],
                               factor_snapshot(state))
        assert len(kept) == 2

    def test_cap_applied(self):
        rng = np.random.default_rng(17)
        state, _, _ = make_state(rng, k=2)
        cands = state.mu[0] + 500.0 + rng.standard_normal((100, 2))
        kept = filter_fake_ood(cands, state, 0.1, 32, 10,
                               np.random.default_rng(2), [1, 2],
                               factor_snapshot(state))
        assert len(kept) <= 32 // 10 + 2   # = 5

    def test_all_filtered_raises(self):
        # with a large filter weight, uniformly distant candidates inflate
        # the margin past their own distance and every one is deleted
        rng = np.random.default_rng(18)
        state, f, _ = make_state(rng)
        inv = regularized_inverse(state.cov[1])
        unit = np.array([1.0, 0.0])
        scale = np.sqrt(2.0 * state.dist[1]
                        / mahalanobis_sq(state.mu[1] + unit,
                                         state.mu[1], inv))
        cands = np.vstack([state.mu[1] + scale * unit] * 5)
        with pytest.raises(AllFiltered):
            filter_fake_ood(cands, state, 0.5, 64, 2,
                            np.random.default_rng(3), [1, 2],
                            factor_snapshot(state))

    def test_retention_inequality_post_hoc(self):
        rng = np.random.default_rng(19)
        state, _, _ = make_state(rng)
        cands = state.mu[0] + rng.standard_normal((50, 2)) * 20
        try:
            kept = filter_fake_ood(cands, state, 0.1, 64, 2,
                                   np.random.default_rng(4), [1, 2],
                                   factor_snapshot(state))
        except AllFiltered:
            return
        # recompute the margin over the full candidate set
        dist_ood = np.empty(len(cands))
        dist_ref = np.empty(len(cands))
        for i, v in enumerate(cands):
            d, c = ref_ood_distance(v, state, [1, 2])
            dist_ood[i] = d
            dist_ref[i] = state.dist[c]
        margin = 0.1 * (10.0 / len(cands)) * np.sum(
            dist_ood / dist_ref - 1.0)
        for v in kept:
            d, c = ref_ood_distance(v, state, [1, 2])
            assert d >= (1.0 + margin) * state.dist[c] - 1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_row_reference(self, seed):
        # same kept rows as the per-row engine, and the same soft labels
        rng = np.random.default_rng(600 + seed)
        k = 2 + seed % 3
        dim = (2, 3, 8)[seed % 3]
        state, _, _ = make_state(rng, k=k, dim=dim, spread=4.0)
        subset = [] if seed % 4 == 0 else list(range(1, k + 1))
        cands = state.mu[0] + rng.standard_normal((80, dim)) * (4.0 * k)
        args = (cands, state, 0.1, 64, k)
        snapshot = factor_snapshot(state)
        want = ref_filter_fake_ood(
            *args, np.random.Generator(np.random.Philox(seed)), subset)
        got = filter_fake_ood(
            *args, np.random.Generator(np.random.Philox(seed)), subset,
            snapshot)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(soft_labels(got, state, k, snapshot),
                                   ref_soft_labels(want, state, k),
                                   rtol=0, atol=1e-10)


class TestSoftLabels:
    def test_rows_sum_to_one_positive(self):
        rng = np.random.default_rng(20)
        state, _, _ = make_state(rng)
        pts = rng.standard_normal((10, 2)) * 10
        labels = soft_labels(pts, state, 2, factor_snapshot(state))
        np.testing.assert_allclose(labels.sum(axis=1), 1.0, atol=1e-8)
        assert np.all(labels > 0)

    def test_far_point_concentrates_on_ood(self):
        rng = np.random.default_rng(21)
        state, _, _ = make_state(rng)
        labels = soft_labels(np.array([state.mu[0] + 1e6]), state, 2,
                             factor_snapshot(state))
        assert np.argmax(labels[0]) == 2     # the K+1 slot for K=2
        assert labels[0, 2] >= 0.4

    def test_id_argmax_matches_nearest_class(self):
        rng = np.random.default_rng(22)
        state, _, _ = make_state(rng, k=3, dim=3)
        snapshot = factor_snapshot(state)
        for _ in range(20):
            v = rng.standard_normal(3) * 8
            labels = soft_labels(np.array([v]), state, 3, snapshot)
            per_class = {
                c: state.dist[c] / max(
                    mahalanobis_sq(v, state.mu[c],
                                   regularized_inverse(state.cov[c])),
                    1e-12)
                for c in (1, 2, 3)}
            best = max(per_class, key=per_class.get)
            assert np.argmax(labels[0, :3]) + 1 == best

    def test_equal_ratio_gives_uniform(self):
        state = GrodState(n_id_classes=2, dim=2)
        rng = np.random.default_rng(23)
        f = rng.standard_normal((100, 2))
        y = np.array([1, 2] * 50)
        initialize_state(state, f, y)
        # force identical references/covariances/centers: every ratio is the
        # same for both classes, and picking the point at distance == ref
        state.mu[2] = state.mu[1].copy()
        state.cov[2] = state.cov[1].copy()
        state.dist[2] = state.dist[1]
        inv = regularized_inverse(state.cov[1])
        # find a point whose squared distance equals the reference distance
        direction = np.array([1.0, 0.0])
        scale = np.sqrt(state.dist[1]
                        / mahalanobis_sq(state.mu[1] + direction,
                                         state.mu[1], inv))
        v = state.mu[1] + scale * direction
        labels = soft_labels(np.array([v]), state, 2, factor_snapshot(state))
        np.testing.assert_allclose(labels[0], 1.0 / 3.0, atol=1e-6)


class TestOneHot:
    def test_rows(self):
        out = one_hot(np.array([1, 3, 2]), 3)
        np.testing.assert_array_equal(
            out, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]])


class TestAugmentBatch:
    def cfg(self, **kw):
        return GrodConfig(**kw)

    def test_warmup_passthrough(self):
        rng = np.random.default_rng(24)
        state = GrodState(n_id_classes=2, dim=2)
        f = rng.standard_normal((32, 2))
        y = np.array([1, 2] * 16)
        f_all, labels, info = grod_augment_batch(
            f, y, state, self.cfg(), np.random.default_rng(0))
        assert info["warmup"] and info["n_fake"] == 0
        np.testing.assert_array_equal(f_all, f)
        np.testing.assert_array_equal(labels, one_hot(y, 2))

    def run_post_warmup(self, seed, batch_size=32, k=2, spread=6.0):
        rng = np.random.default_rng(seed)
        state = GrodState(n_id_classes=k, dim=2)
        config = self.cfg()
        grng = np.random.Generator(np.random.Philox(seed))
        out = None
        for _ in range(config.warmup_batches + 3):
            f, y = [], []
            for c in range(1, k + 1):
                center = np.zeros(2)
                center[(c - 1) % 2] = spread * c
                f.append(center + rng.standard_normal((batch_size // k, 2)))
                y.extend([c] * (batch_size // k))
            out = grod_augment_batch(np.vstack(f), np.array(y), state,
                                     config, grng)
        return out, state

    def test_cap_and_id_rows_untouched(self):
        (f_all, labels, info), _ = self.run_post_warmup(seed=25)
        assert len(f_all) <= 32 + (32 // 2 + 2)
        assert info["n_fake"] == len(f_all) - 32
        # ID labels stay one-hot with zero OOD mass
        assert np.all(labels[:32, 2] == 0.0)
        np.testing.assert_allclose(labels.sum(axis=1), 1.0, atol=1e-8)

    def test_generates_fake_outliers(self):
        (f_all, labels, info), _ = self.run_post_warmup(seed=26)
        assert info["n_fake"] > 0
        assert info["kappa"] == 2

    def test_determinism(self):
        a, _ = self.run_post_warmup(seed=27)
        b, _ = self.run_post_warmup(seed=27)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_not_pd_covariance_falls_back_to_id_only(self):
        _, state = self.run_post_warmup(seed=29)
        state.cov[1] = -np.eye(2)
        rng = np.random.default_rng(29)
        f = np.vstack([rng.standard_normal((16, 2)) + [6.0, 0.0],
                       rng.standard_normal((16, 2)) + [0.0, 12.0]])
        y = np.array([1] * 16 + [2] * 16)
        f_all, labels, info = grod_augment_batch(
            f, y, state, self.cfg(), np.random.default_rng(0))
        assert info["fallback"] == "not_pd" and info["n_fake"] == 0
        np.testing.assert_array_equal(f_all, f)
        np.testing.assert_array_equal(labels, one_hot(y, 2))

    def test_not_pd_pool_restarts_warmup(self):
        # a finite pool whose global covariance is exactly singular at a
        # scale where the EPS0 ridge rounds away: t = 2^250 swamps the
        # N(0,1) rows, so every entry is 2 t^2 / (9 - 1) = 2^498, whose
        # Cholesky pivot sqrt(2^498) = 2^249 leaves exactly 0
        rng = np.random.default_rng(30)
        t = 2.0 ** 250
        poisoned = np.vstack([[t, t], [-t, -t], rng.standard_normal((2, 2))])
        config = self.cfg(warmup_batches=2)
        state = GrodState(n_id_classes=2, dim=2)
        grng = np.random.default_rng(0)

        def batch(f):
            y = np.array([1, 2] * (len(f) // 2) + [1] * (len(f) % 2))
            return grod_augment_batch(f, y, state, config, grng)

        assert batch(rng.standard_normal((5, 2)))[2]["fallback"] is None
        f_all, labels, info = batch(poisoned)
        assert info == {"warmup": True, "n_fake": 0, "kappa": 0,
                        "fallback": "not_pd"}
        np.testing.assert_array_equal(f_all, poisoned)
        np.testing.assert_array_equal(labels, one_hot([1, 2, 1, 2], 2))
        assert not state.initialized and state.pool_f == []
        assert state.cov is None and state.tracked is None
        # warmup starts over: the next warmup_batches batches pool again
        clean = [rng.standard_normal((6, 2)) for _ in range(2)]
        assert batch(clean[0])[2] == {"warmup": True, "n_fake": 0,
                                      "kappa": 0, "fallback": None}
        assert not state.initialized
        batch(clean[1])
        assert state.initialized and state.batch_index == 4
        np.testing.assert_array_equal(state.mu[0],
                                      np.vstack(clean).mean(axis=0))

    def test_state_round_trip(self, tmp_path):
        _, state = self.run_post_warmup(seed=28)
        save_grod_state(state, tmp_path / "state.npz")
        clone = load_grod_state(tmp_path / "state.npz")
        np.testing.assert_array_equal(clone.mu[0], state.mu[0])
        np.testing.assert_array_equal(clone.cov[0], state.cov[0])
        assert clone.dist[0] == state.dist[0]
        np.testing.assert_array_equal(clone.tracked, state.tracked)
        for c in tracked_classes(state):
            np.testing.assert_array_equal(clone.mu[c], state.mu[c])
            assert clone.dist[c] == state.dist[c]


class TestStackedStateMatchesDictOracle:
    @pytest.mark.parametrize("dim,k", [(2, 2), (8, 3), (64, 4)])
    def test_bitwise_equal_to_dict_engine(self, dim, k):
        # class k first appears two batches after warmup; every seventh
        # batch holds one row per class, so no class is eligible and the
        # filter takes the global center route
        rng = np.random.default_rng(700 + dim)
        config = GrodConfig(warmup_batches=3)
        state, ref = GrodState(n_id_classes=k, dim=dim), RefState(k, dim)
        grng = np.random.Generator(np.random.Philox(dim))
        ref_rng = np.random.Generator(np.random.Philox(dim))
        means = 6.0 * rng.standard_normal((k, dim))
        routes = set()
        for b in range(45):
            if b % 7 == 6:
                y = np.arange(1, k + 1)
            else:
                y = rng.integers(1, k + (b >= 5), size=48)
            f = means[y - 1] + rng.standard_normal((len(y), dim))
            got = grod_augment_batch(f, y, state, config, grng)
            want = ref_augment(f, y, ref, config, ref_rng)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            assert got[2] == want[2]
            routes.add((got[2]["warmup"], got[2]["kappa"] > 0))
            if ref.mu_pca is None:
                assert not state.initialized
                continue
            classes = sorted(ref.mu_lda)
            assert np.flatnonzero(state.tracked).tolist() == [0] + classes
            rows = [0] + classes
            np.testing.assert_array_equal(
                state.mu[rows], [ref.mu_pca] + [ref.mu_lda[c] for c in classes])
            np.testing.assert_array_equal(
                state.cov[rows],
                [ref.cov_pca] + [ref.cov_lda[c] for c in classes])
            np.testing.assert_array_equal(
                state.dist[rows],
                [ref.dist_id_pca] + [ref.dist_id_lda[c] for c in classes])
        assert k in ref.mu_lda
        assert routes == {(True, False), (False, False), (False, True)}


class TestGrodConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GrodConfig(a=0.0)
        with pytest.raises(ValueError):
            GrodConfig(gamma=1.5)
        with pytest.raises(ValueError):
            GrodConfig(gamma_opt=0.0)
        with pytest.raises(ValueError):
            GrodConfig(lambda_filter=-0.1)
