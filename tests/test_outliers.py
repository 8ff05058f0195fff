"""Tests for the synthetic-outlier engine: class selection, EMA statistics,
boundary extension, candidate sampling, filtering and soft labels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodkit.numerics import (mahalanobis_sq, mahalanobis_sq_rows,
                             regularized_inverse)
from oodkit.outliers import (AllFiltered, GrodConfig, GrodState,
                             UninitializedState, build_ood_centers,
                             class_distances, factor_snapshot,
                             filter_fake_ood, grod_augment_batch,
                             id_reference_distances, initialize_state,
                             load_grod_state, one_hot, sample_fake_ood,
                             save_grod_state, select_classes, soft_labels,
                             update_centers)
from oodkit.projections import BoundarySet


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


# Reference copies of the per-row engine that the batched distances replaced:
# one scalar Mahalanobis distance per (point, center) against an explicit
# regularized inverse.

def ref_ood_distance(v, state, subset, eps0=1e-4):
    """(distance, nearest class) of one point; class None when subset is
    empty (global center route)."""
    if len(subset) == 0:
        return mahalanobis_sq(v, state.mu_pca,
                              regularized_inverse(state.cov_pca, eps0)), None
    best, best_c = None, None
    for c in sorted(state.mu_lda):
        d = mahalanobis_sq(v, state.mu_lda[c],
                           regularized_inverse(state.cov_lda[c], eps0))
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
        dist_ref[i] = state.dist_id_pca if c is None else state.dist_id_lda[c]
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
    classes = sorted(state.mu_lda)
    inv = {c: regularized_inverse(state.cov_lda[c], eps0) for c in classes}
    k = n_id_classes
    labels = np.zeros((len(points), k + 1))
    for i, v in enumerate(points):
        exponents = np.full(k + 1, -np.inf)
        ratios = []
        for c in classes:
            d = max(mahalanobis_sq(v, state.mu_lda[c], inv[c]), 1e-12)
            ratios.append(state.dist_id_lda[c] / d)
            exponents[c - 1] = ratios[-1] - 1.0
        exponents[k] = 1.0 - max(ratios)
        e = np.exp(exponents - np.max(exponents))
        labels[i] = e / e.sum()
    return labels


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
        state.mu_pca = np.zeros(2)
        batch = np.ones((10, 2))
        update_centers(state, batch, np.array([1] * 10), [], 0.1)
        np.testing.assert_allclose(state.mu_pca, [0.1, 0.1], atol=1e-12)

    def test_full_replacement(self):
        rng = np.random.default_rng(1)
        state, f, y = make_state(rng)
        batch = rng.standard_normal((20, 2)) + 5.0
        yb = np.array([1] * 20)
        update_centers(state, batch, yb, [1], 1.0)
        np.testing.assert_allclose(state.mu_pca, batch.mean(axis=0),
                                   atol=1e-12)
        np.testing.assert_allclose(state.mu_lda[1], batch.mean(axis=0),
                                   atol=1e-12)

    def test_geometric_convergence_to_fixed_point(self):
        rng = np.random.default_rng(2)
        state, _, _ = make_state(rng)
        batch = np.full((10, 2), 3.0)
        yb = np.array([1] * 10)
        for _ in range(200):
            update_centers(state, batch, yb, [1], 0.1)
        np.testing.assert_allclose(state.mu_pca, [3.0, 3.0], atol=1e-6)

    def test_uninitialized_raises(self):
        state = GrodState(n_id_classes=2, dim=2)
        with pytest.raises(UninitializedState):
            update_centers(state, np.zeros((4, 2)), np.array([1] * 4),
                           [], 0.1)


class TestIdReferenceDistances:
    def test_all_samples_at_center_zero(self):
        rng = np.random.default_rng(3)
        state, _, _ = make_state(rng)
        f = np.tile(state.mu_pca, (10, 1))
        d_pca, _ = id_reference_distances(f, np.array([1] * 10), state)
        assert d_pca <= 1e-6

    def test_standard_normal_chi_square_expectation(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((5000, 2))
        y = np.array([1] * 5000)
        state = GrodState(n_id_classes=1, dim=2)
        initialize_state(state, f, y)
        d_pca, d_lda = id_reference_distances(f, y, state)
        assert abs(d_pca - 2.0) <= 0.2
        assert abs(d_lda[1] - 2.0) <= 0.2

    def test_class_restriction(self):
        rng = np.random.default_rng(5)
        state, f, y = make_state(rng)
        _, d_lda = id_reference_distances(f, y, state)
        # restricted mean must match a manual recomputation for class 1
        inv = regularized_inverse(state.cov_lda[1])
        expected = np.mean([mahalanobis_sq(v, state.mu_lda[1], inv)
                            for v in f[y == 1]])
        assert d_lda[1] == pytest.approx(expected, rel=1e-10)


class TestBuildOodCenters:
    def test_hand_extension(self):
        rng = np.random.default_rng(6)
        state, _, _ = make_state(rng)
        state.mu_pca = np.zeros(2)
        bset = BoundarySet(points=[np.array([2.0, 0.0])], indices=[0],
                           source="PCA")
        centers = build_ood_centers([(bset, None)], state, a=0.1)
        np.testing.assert_allclose(centers[0][0], [2.1, 0.0], atol=1e-6)
        assert centers[0][1] is None

    def test_degenerate_direction_guard(self):
        rng = np.random.default_rng(7)
        state, _, _ = make_state(rng)
        v = state.mu_pca.copy()
        bset = BoundarySet(points=[v], indices=[0], source="PCA")
        centers = build_ood_centers([(bset, None)], state, a=0.1)
        np.testing.assert_allclose(centers[0][0], v, atol=1e-6)

    def test_extension_within_a(self):
        rng = np.random.default_rng(8)
        state, f, _ = make_state(rng)
        bset = BoundarySet(points=[f[i] for i in range(5)],
                           indices=list(range(5)), source="PCA")
        for center, _ in build_ood_centers([(bset, None)], state, a=0.1):
            matched = min(np.linalg.norm(center - f[i]) for i in range(5))
            assert matched <= 0.1 + 1e-9


class TestSampleFakeOod:
    def test_single_center_single_sample(self):
        rng = np.random.default_rng(9)
        pts, prov = sample_fake_ood([(np.zeros(2), None)], a=0.1, num=1,
                                    rng=rng)
        assert pts.shape == (1, 2)
        assert prov == [None]

    def test_monte_carlo_variance(self):
        rng = np.random.default_rng(10)
        pts, _ = sample_fake_ood([(np.zeros(2), None)], a=0.3, num=20000,
                                 rng=rng)
        var = pts.var(axis=0)
        np.testing.assert_allclose(var, 0.1, atol=0.01)

    def test_round_robin_and_group_counts(self):
        rng = np.random.default_rng(11)
        centers = [(np.zeros(2), None), (np.full(2, 100.0), None),
                   (np.full(2, -100.0), 1)]
        pts, prov = sample_fake_ood(centers, a=0.01, num=4, rng=rng)
        assert len(pts) == 8           # 4 per provenance group
        assert prov.count(None) == 4 and prov.count(1) == 4
        near_zero = np.sum(np.linalg.norm(pts[:4], axis=1) < 50)
        assert near_zero == 2          # round-robin over the two PCA centers

    def test_determinism(self):
        centers = [(np.zeros(3), None)]
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
        d = mahalanobis_sq_rows(state.mu_pca[None],
                                *factor_snapshot(state)[None])
        assert d.shape == (1,)
        assert d[0] <= 1e-6

    def test_at_class_center(self):
        rng = np.random.default_rng(13)
        state, _, _ = make_state(rng)
        dists = class_distances(state.mu_lda[2][None], factor_snapshot(state))
        assert np.argmin(dists[0]) + 1 == 2
        assert dists[0].min() <= 1e-6

    def test_bruteforce_min_oracle(self):
        rng = np.random.default_rng(14)
        state, _, _ = make_state(rng, k=3, dim=3)
        points = rng.standard_normal((20, 3)) * 10
        dists = class_distances(points, factor_snapshot(state))
        for v, row in zip(points, dists):
            per_class = {
                cc: mahalanobis_sq(v, state.mu_lda[cc],
                                   regularized_inverse(state.cov_lda[cc]))
                for cc in (1, 2, 3)}
            best = min(per_class, key=per_class.get)
            assert np.argmin(row) + 1 == best
            assert row.min() == pytest.approx(per_class[best], rel=1e-10)

    @given(st.sampled_from([1, 2, 8, 64]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batched_matches_scalar_oracle(self, dim, seed):
        # spectra down to 1e-6; both the global center route (key None,
        # used with an empty class subset) and every class center
        rng = np.random.default_rng(seed)
        state = GrodState(n_id_classes=2, dim=dim, initialized=True,
                          mu_pca=rng.standard_normal(dim),
                          cov_pca=random_cov(rng, dim))
        for c in (1, 2):
            state.mu_lda[c] = rng.standard_normal(dim)
            state.cov_lda[c] = random_cov(rng, dim)
        snapshot = factor_snapshot(state)
        points = rng.standard_normal((12, dim)) * rng.uniform(0.01, 10.0)
        columns = {None: mahalanobis_sq_rows(points, *snapshot[None])}
        columns.update(zip((1, 2), class_distances(points, snapshot).T))
        for key, got in columns.items():
            mu = state.mu_pca if key is None else state.mu_lda[key]
            cov = state.cov_pca if key is None else state.cov_lda[key]
            want = [mahalanobis_sq(v, mu, regularized_inverse(cov))
                    for v in points]
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


class TestFilterFakeOod:
    def test_candidate_at_class_center_deleted(self):
        rng = np.random.default_rng(15)
        state, _, _ = make_state(rng)
        grng = np.random.default_rng(0)
        far = state.mu_lda[1] + 1000.0
        kept = filter_fake_ood(np.vstack([state.mu_lda[1], far]), state,
                               0.1, 64, 2, grng, [1, 2])
        assert len(kept) == 1
        np.testing.assert_allclose(kept[0], far)

    def test_far_candidate_retained(self):
        # a single far candidate sits exactly at its own margin threshold
        # and survives the >= comparison
        rng = np.random.default_rng(16)
        state, _, _ = make_state(rng)
        kept = filter_fake_ood(state.mu_pca[None] + 500.0, state, 0.1, 64, 2,
                               np.random.default_rng(1), [1, 2])
        assert len(kept) == 1

    def test_zero_margin_keeps_all_far_candidates(self):
        rng = np.random.default_rng(30)
        state, _, _ = make_state(rng)
        cands = np.stack([state.mu_pca + 500.0, state.mu_pca - 500.0])
        kept = filter_fake_ood(cands, state, 0.0, 64, 2,
                               np.random.default_rng(1), [1, 2])
        assert len(kept) == 2

    def test_cap_applied(self):
        rng = np.random.default_rng(17)
        state, _, _ = make_state(rng, k=2)
        cands = state.mu_pca + 500.0 + rng.standard_normal((100, 2))
        kept = filter_fake_ood(cands, state, 0.1, 32, 10,
                               np.random.default_rng(2), [1, 2])
        assert len(kept) <= 32 // 10 + 2   # = 5

    def test_all_filtered_raises(self):
        # with a large filter weight, uniformly distant candidates inflate
        # the margin past their own distance and every one is deleted
        rng = np.random.default_rng(18)
        state, f, _ = make_state(rng)
        inv = regularized_inverse(state.cov_lda[1])
        unit = np.array([1.0, 0.0])
        scale = np.sqrt(2.0 * state.dist_id_lda[1]
                        / mahalanobis_sq(state.mu_lda[1] + unit,
                                         state.mu_lda[1], inv))
        cands = np.vstack([state.mu_lda[1] + scale * unit] * 5)
        with pytest.raises(AllFiltered):
            filter_fake_ood(cands, state, 0.5, 64, 2,
                            np.random.default_rng(3), [1, 2])

    def test_retention_inequality_post_hoc(self):
        rng = np.random.default_rng(19)
        state, _, _ = make_state(rng)
        cands = state.mu_pca + rng.standard_normal((50, 2)) * 20
        try:
            kept = filter_fake_ood(cands, state, 0.1, 64, 2,
                                   np.random.default_rng(4), [1, 2])
        except AllFiltered:
            return
        # recompute the margin over the full candidate set
        dist_ood = np.empty(len(cands))
        dist_ref = np.empty(len(cands))
        for i, v in enumerate(cands):
            d, c = ref_ood_distance(v, state, [1, 2])
            dist_ood[i] = d
            dist_ref[i] = state.dist_id_lda[c]
        margin = 0.1 * (10.0 / len(cands)) * np.sum(
            dist_ood / dist_ref - 1.0)
        for v in kept:
            d, c = ref_ood_distance(v, state, [1, 2])
            assert d >= (1.0 + margin) * state.dist_id_lda[c] - 1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_row_reference(self, seed):
        # same kept rows as the per-row engine, and the same soft labels
        rng = np.random.default_rng(600 + seed)
        k = 2 + seed % 3
        dim = (2, 3, 8)[seed % 3]
        state, _, _ = make_state(rng, k=k, dim=dim, spread=4.0)
        subset = [] if seed % 4 == 0 else list(range(1, k + 1))
        cands = state.mu_pca + rng.standard_normal((80, dim)) * (4.0 * k)
        args = (cands, state, 0.1, 64, k)
        want = ref_filter_fake_ood(
            *args, np.random.Generator(np.random.Philox(seed)), subset)
        got = filter_fake_ood(
            *args, np.random.Generator(np.random.Philox(seed)), subset)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(soft_labels(got, state, k),
                                   ref_soft_labels(want, state, k),
                                   rtol=0, atol=1e-10)


class TestSoftLabels:
    def test_rows_sum_to_one_positive(self):
        rng = np.random.default_rng(20)
        state, _, _ = make_state(rng)
        pts = rng.standard_normal((10, 2)) * 10
        labels = soft_labels(pts, state, 2)
        np.testing.assert_allclose(labels.sum(axis=1), 1.0, atol=1e-8)
        assert np.all(labels > 0)

    def test_far_point_concentrates_on_ood(self):
        rng = np.random.default_rng(21)
        state, _, _ = make_state(rng)
        labels = soft_labels(np.array([state.mu_pca + 1e6]), state, 2)
        assert np.argmax(labels[0]) == 2     # the K+1 slot for K=2
        assert labels[0, 2] >= 0.4

    def test_id_argmax_matches_nearest_class(self):
        rng = np.random.default_rng(22)
        state, _, _ = make_state(rng, k=3, dim=3)
        for _ in range(20):
            v = rng.standard_normal(3) * 8
            labels = soft_labels(np.array([v]), state, 3)
            per_class = {
                c: state.dist_id_lda[c] / max(
                    mahalanobis_sq(v, state.mu_lda[c],
                                   regularized_inverse(state.cov_lda[c])),
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
        state.mu_lda[2] = state.mu_lda[1].copy()
        state.cov_lda[2] = state.cov_lda[1].copy()
        state.dist_id_lda[2] = state.dist_id_lda[1]
        inv = regularized_inverse(state.cov_lda[1])
        # find a point whose squared distance equals the reference distance
        direction = np.array([1.0, 0.0])
        scale = np.sqrt(state.dist_id_lda[1]
                        / mahalanobis_sq(state.mu_lda[1] + direction,
                                         state.mu_lda[1], inv))
        v = state.mu_lda[1] + scale * direction
        labels = soft_labels(np.array([v]), state, 2)
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
        state.cov_lda[1] = -np.eye(2)
        rng = np.random.default_rng(29)
        f = np.vstack([rng.standard_normal((16, 2)) + [6.0, 0.0],
                       rng.standard_normal((16, 2)) + [0.0, 12.0]])
        y = np.array([1] * 16 + [2] * 16)
        f_all, labels, info = grod_augment_batch(
            f, y, state, self.cfg(), np.random.default_rng(0))
        assert info["fallback"] == "not_pd" and info["n_fake"] == 0
        np.testing.assert_array_equal(f_all, f)
        np.testing.assert_array_equal(labels, one_hot(y, 2))

    def test_state_round_trip(self, tmp_path):
        _, state = self.run_post_warmup(seed=28)
        save_grod_state(state, tmp_path / "state.npz")
        clone = load_grod_state(tmp_path / "state.npz")
        np.testing.assert_array_equal(clone.mu_pca, state.mu_pca)
        np.testing.assert_array_equal(clone.cov_pca, state.cov_pca)
        assert clone.dist_id_pca == state.dist_id_pca
        for c in state.mu_lda:
            np.testing.assert_array_equal(clone.mu_lda[c], state.mu_lda[c])
            assert clone.dist_id_lda[c] == state.dist_id_lda[c]


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
