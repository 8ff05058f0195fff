"""Tests for PCA/LDA fitting and boundary-sample mining."""

import numpy as np
import pytest
from scipy.linalg import eigh

from oodkit.numerics import TooFewSamples, sample_covariance
from oodkit.projections import (DegenerateScatter, EmptyInput, _fix_signs,
                                lda_fit, mine_boundary, pca_fit)


class TestPcaFit:
    def test_variance_confined_to_one_axis(self):
        f = np.array([[x, 0.0] for x in (-2.0, -1.0, 1.0, 2.0)])
        basis = pca_fit(f, 1)
        np.testing.assert_allclose(basis.axes, [[1.0, 0.0]], atol=1e-12)

    def test_collinear_diagonal_data(self):
        f = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        basis = pca_fit(f, 1)
        np.testing.assert_allclose(basis.axes,
                                   [[1 / np.sqrt(2), 1 / np.sqrt(2)]],
                                   atol=1e-12)

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((50, 4)) @ np.diag([3.0, 2.0, 1.0, 0.5])
        basis = pca_fit(f, 4)
        centered = f - f.mean(axis=0)
        cov = centered.T @ centered / (f.shape[0] - 1)
        vals, vecs = np.linalg.eigh(cov)
        order = np.argsort(vals)[::-1]
        for j in range(4):
            expected = vecs[:, order[j]]
            got = basis.axes[j]
            # same axis up to sign
            assert min(np.max(np.abs(got - expected)),
                       np.max(np.abs(got + expected))) <= 1e-10

    @pytest.mark.parametrize("n,s,p", [(200, 64, 8), (200, 64, 64),
                                       (40, 64, 39)])
    def test_top_p_matches_full_eigh(self, n, s, p):
        # the top-p solve against a full eigendecomposition, at the edge
        # p = min(n-1, s) too, both under the same sign convention
        rng = np.random.default_rng(n + p)
        f = rng.standard_normal((n, s)) * np.linspace(0.5, 3.0, s)
        vals, vecs = np.linalg.eigh(sample_covariance(f))
        expected = _fix_signs(vecs[:, np.argsort(vals)[::-1][:p]].T)
        np.testing.assert_allclose(pca_fit(f, p).axes, expected, rtol=0,
                                   atol=1e-10)

    def test_axes_orthonormal(self):
        rng = np.random.default_rng(1)
        basis = pca_fit(rng.standard_normal((30, 5)), 5)
        np.testing.assert_allclose(basis.axes @ basis.axes.T, np.eye(5),
                                   atol=1e-8)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((40, 3))
        basis = pca_fit(f, 3)
        centered = f - basis.mean
        recon = (centered @ basis.axes.T) @ basis.axes
        np.testing.assert_allclose(recon, centered, atol=1e-8)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((20, 3))
        a = pca_fit(f, 3)
        b = pca_fit(f.copy(), 3)
        np.testing.assert_array_equal(a.axes, b.axes)
        for axis in a.axes:
            nz = axis[np.abs(axis) > 1e-12]
            assert nz[0] > 0

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            pca_fit(np.zeros((1, 2)), 1)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            pca_fit(np.zeros((5, 2)), 3)


class TestLdaFit:
    def test_one_dimensional_clusters(self):
        f = np.array([[0.0], [0.1], [5.0], [5.1]])
        y = np.array([1, 1, 2, 2])
        bases = lda_fit(f, y, 1)
        assert len(bases) == 2
        assert {b.class_id for b in bases} == {1, 2}
        for b in bases:
            unit = b.axes / np.linalg.norm(b.axes)
            np.testing.assert_allclose(np.abs(unit), [[1.0]], atol=1e-8)

    def test_separation_direction_two_clusters(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((100, 2))
        b = rng.standard_normal((100, 2)) + [10.0, 0.0]
        f = np.vstack([a, b])
        y = np.array([1] * 100 + [2] * 100)
        bases = lda_fit(f, y, 1)
        axis = bases[0].axes[0] / np.linalg.norm(bases[0].axes[0])
        assert abs(abs(axis[0]) - 1.0) <= 0.05
        assert abs(axis[1]) <= 0.05

    def test_collinear_class_centers(self):
        rng = np.random.default_rng(5)
        f, y = [], []
        for i, cx in enumerate((0.0, 5.0, 10.0), start=1):
            f.append(rng.standard_normal((50, 2)) * 0.2 + [cx, 0.0])
            y.extend([i] * 50)
        bases = lda_fit(np.vstack(f), np.array(y), 2)
        axis = bases[0].axes[0] / np.linalg.norm(bases[0].axes[0])
        assert abs(abs(axis[0]) - 1.0) <= 0.05

    def test_all_bases_share_axes(self):
        rng = np.random.default_rng(6)
        f = rng.standard_normal((60, 3))
        y = np.array([1, 2, 3] * 20)
        bases = lda_fit(f, y, 2)
        for b in bases[1:]:
            np.testing.assert_array_equal(b.axes, bases[0].axes)

    def test_degenerate_single_class(self):
        with pytest.raises(DegenerateScatter):
            lda_fit(np.zeros((4, 2)), np.array([1, 1, 1, 1]), 1)

    def test_singleton_classes_not_counted(self):
        f = np.zeros((3, 2))
        with pytest.raises(DegenerateScatter):
            lda_fit(f, np.array([1, 2, 3]), 1)


def scipy_lda_axes(f, y, p, eps0=1e-4):
    """Oracle: the generalized symmetric eigensolver on the same scatter
    matrices as lda_fit, top p axes under the same sign convention."""
    mean = f.mean(axis=0)
    sw = np.zeros((f.shape[1], f.shape[1]))
    sb = np.zeros_like(sw)
    for c in np.unique(y):
        rows = f[y == c]
        centered = rows - rows.mean(axis=0)
        sw += centered.T @ centered
        diff = (rows.mean(axis=0) - mean)[:, None]
        sb += rows.shape[0] * (diff @ diff.T)
    vals, vecs = eigh(0.5 * (sb + sb.T),
                      0.5 * (sw + sw.T) + eps0 * np.eye(f.shape[1]))
    return _fix_signs(vecs[:, np.argsort(vals)[::-1][:p]].T)


@pytest.mark.parametrize("constant_column", [False, True])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("s", [2, 8, 64])
def test_numpy_solvers_match_scipy(s, k, constant_column):
    # 16 rows per class, so at s=64 the within-class scatter is singular
    # up to the eps0 shift, as in a training batch
    rng = np.random.default_rng(100 * s + 10 * k + constant_column)
    y = np.repeat(np.arange(1, k + 1), 16)
    f = (rng.standard_normal((y.size, s)) * rng.uniform(0.5, 3.0, s)
         + 2.0 * rng.standard_normal((k, s))[y - 1])
    if constant_column:
        f[:, 0] = 1.5
    p = min(s, 8)
    _, vecs = eigh(sample_covariance(f), subset_by_index=[s - p, s - 1])
    np.testing.assert_allclose(pca_fit(f, p).axes,
                               _fix_signs(vecs[:, ::-1].T), rtol=0,
                               atol=1e-10)
    want = scipy_lda_axes(f, y, min(k - 1, 4))
    for basis in lda_fit(f, y, min(k - 1, 4)):
        np.testing.assert_allclose(basis.axes, want, rtol=0,
                                   atol=1e-8 * np.max(np.abs(want)))


class TestMineBoundary:
    def test_diamond_returns_all_points(self):
        f = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
        basis = pca_fit(f, 2)
        bset = mine_boundary(f, basis)
        assert sorted(bset.indices) == [0, 1, 2, 3]

    def test_unique_extremes_single_axis(self):
        f = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [2.0, 0.0]])
        basis = pca_fit(f, 1)
        bset = mine_boundary(f, basis)
        assert sorted(bset.indices) == [0, 2]

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(7)
        f = rng.standard_normal((50, 3))
        basis = pca_fit(f, 3)
        bset = mine_boundary(f, basis)
        proj = (f - basis.mean) @ basis.axes.T
        expected = []
        for j in range(3):
            for idx in (int(np.argmax(proj[:, j])),
                        int(np.argmin(proj[:, j]))):
                if idx not in expected:
                    expected.append(idx)
        assert bset.indices == expected

    def test_points_are_rows_of_input(self):
        rng = np.random.default_rng(8)
        f = rng.standard_normal((30, 4))
        bset = mine_boundary(f, pca_fit(f, 2))
        for point, idx in zip(bset.points, bset.indices):
            np.testing.assert_array_equal(point, f[idx])
        assert len(bset.points) <= 4

    def test_every_point_extremal_on_some_axis(self):
        rng = np.random.default_rng(9)
        f = rng.standard_normal((40, 3))
        basis = pca_fit(f, 3)
        bset = mine_boundary(f, basis)
        proj = (f - basis.mean) @ basis.axes.T
        for idx in bset.indices:
            extremal = any(
                proj[idx, j] == proj[:, j].max()
                or proj[idx, j] == proj[:, j].min()
                for j in range(proj.shape[1]))
            assert extremal

    def test_lda_source_labeling(self):
        rng = np.random.default_rng(10)
        f = np.vstack([rng.standard_normal((20, 2)),
                       rng.standard_normal((20, 2)) + 5.0])
        y = np.array([1] * 20 + [2] * 20)
        bases = lda_fit(f, y, 1)
        for b in bases:
            bset = mine_boundary(f[y == b.class_id], b)
            assert bset.source == f"LDA({b.class_id})"

    def test_empty_input(self):
        basis = pca_fit(np.eye(2), 1)
        with pytest.raises(EmptyInput):
            mine_boundary(np.zeros((0, 2)), basis)
