"""Tests for PCA/LDA fitting and boundary-sample mining."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from oodkit.numerics import TooFewSamples, batch_moments, sample_covariance
from oodkit.projections import (DegenerateScatter, EmptyInput,
                                ProjectionBasis, _fix_signs, lda_fit,
                                mine_boundary, pca_fit)


def moments(f):
    """The batch moments of unlabelled rows: row 0 alone."""
    return batch_moments(f, np.zeros(len(f), dtype=int), 0)


class TestPcaFit:
    def test_variance_confined_to_one_axis(self):
        f = np.array([[x, 0.0] for x in (-2.0, -1.0, 1.0, 2.0)])
        basis = pca_fit(moments(f), 1)
        np.testing.assert_allclose(basis.axes, [[1.0, 0.0]], atol=1e-12)

    def test_collinear_diagonal_data(self):
        f = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        basis = pca_fit(moments(f), 1)
        np.testing.assert_allclose(basis.axes,
                                   [[1 / np.sqrt(2), 1 / np.sqrt(2)]],
                                   atol=1e-12)

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((50, 4)) @ np.diag([3.0, 2.0, 1.0, 0.5])
        basis = pca_fit(moments(f), 4)
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
        np.testing.assert_allclose(pca_fit(moments(f), p).axes,
                                   expected, rtol=0, atol=1e-10)

    def test_axes_orthonormal(self):
        rng = np.random.default_rng(1)
        basis = pca_fit(moments(rng.standard_normal((30, 5))), 5)
        np.testing.assert_allclose(basis.axes @ basis.axes.T, np.eye(5),
                                   atol=1e-8)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((40, 3))
        basis = pca_fit(moments(f), 3)
        centered = f - basis.mean
        recon = (centered @ basis.axes.T) @ basis.axes
        np.testing.assert_allclose(recon, centered, atol=1e-8)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((20, 3))
        a = pca_fit(moments(f), 3)
        b = pca_fit(moments(f.copy()), 3)
        np.testing.assert_array_equal(a.axes, b.axes)
        for axis in a.axes:
            nz = axis[np.abs(axis) > 1e-12]
            assert nz[0] > 0

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            pca_fit(moments(np.zeros((1, 2))), 1)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            pca_fit(moments(np.zeros((5, 2))), 3)


class TestLdaFit:
    def test_one_dimensional_clusters(self):
        f = np.array([[0.0], [0.1], [5.0], [5.1]])
        y = np.array([1, 1, 2, 2])
        basis = lda_fit(batch_moments(f, y, 2), 1)
        unit = basis.axes / np.linalg.norm(basis.axes)
        np.testing.assert_allclose(np.abs(unit), [[1.0]], atol=1e-8)

    def test_separation_direction_two_clusters(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((100, 2))
        b = rng.standard_normal((100, 2)) + [10.0, 0.0]
        f = np.vstack([a, b])
        y = np.array([1] * 100 + [2] * 100)
        axis = lda_fit(batch_moments(f, y, 2), 1).axes[0]
        axis = axis / np.linalg.norm(axis)
        assert abs(abs(axis[0]) - 1.0) <= 0.05
        assert abs(axis[1]) <= 0.05

    def test_collinear_class_centers(self):
        rng = np.random.default_rng(5)
        f, y = [], []
        for i, cx in enumerate((0.0, 5.0, 10.0), start=1):
            f.append(rng.standard_normal((50, 2)) * 0.2 + [cx, 0.0])
            y.extend([i] * 50)
        axis = lda_fit(batch_moments(np.vstack(f), np.array(y), 3),
                       2).axes[0]
        axis = axis / np.linalg.norm(axis)
        assert abs(abs(axis[0]) - 1.0) <= 0.05

    def test_all_bases_share_axes(self):
        # one basis serves every class: p axes over all features, centered
        # at the mean of all rows, not at any class mean
        rng = np.random.default_rng(6)
        f = rng.standard_normal((60, 3))
        y = np.array([1, 2, 3] * 20)
        basis = lda_fit(batch_moments(f, y, 3), 2)
        assert isinstance(basis, ProjectionBasis)
        assert basis.axes.shape == (2, 3)
        np.testing.assert_array_equal(basis.mean, f.mean(axis=0))

    def test_degenerate_single_class(self):
        with pytest.raises(DegenerateScatter):
            lda_fit(batch_moments(np.zeros((4, 2)), np.array([1, 1, 1, 1]),
                                  1), 1)

    def test_singleton_classes_not_counted(self):
        f = np.zeros((3, 2))
        with pytest.raises(DegenerateScatter):
            lda_fit(batch_moments(f, np.array([1, 2, 3]), 3), 1)

    def test_coincident_class_means_raise(self):
        # both classes centered exactly at the mean of all rows: Sb = 0
        ring = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
        f = np.vstack([ring, 2.0 * ring])
        y = np.array([1] * 4 + [2] * 4)
        with pytest.raises(DegenerateScatter):
            lda_fit(batch_moments(f, y, 2), 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_permuted_rows_raise(self, seed):
        # two classes of the same 8 rows in different orders: their means
        # are equal or a rounding apart, and the mean of all rows rounds
        # apart from them, so the top Fisher ratio is ~1e-32, not 0
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((8, 2 + seed % 2))
        f = np.vstack([rows, rows[rng.permutation(8)]])
        m = batch_moments(f, np.repeat([1, 2], 8), 2)
        if seed == 0:   # a case with exactly equal class means
            np.testing.assert_array_equal(m.mean[1], m.mean[2])
        with pytest.raises(DegenerateScatter):
            lda_fit(m, 1)

    @pytest.mark.parametrize("s,k,rank", [(2, 4, 2), (3, 3, 1)])
    def test_only_positive_lambda_axes_return(self, s, k, rank):
        # p = k - 1 exceeds rank(Sb): at s=2 with four classes, and with
        # three class means on one line (exactly collinear, with exactly
        # symmetric rows about each mean); axis 0 is the oracle's
        rng = np.random.default_rng(10 * s + k)
        y = np.repeat(np.arange(1, k + 1), 8)
        if rank == 1:
            half = rng.standard_normal((4, s))
            f = np.vstack([np.vstack([half, -half]) + [4.0 * c, 0.0, 0.0]
                           for c in range(k)])
        else:
            f = rng.standard_normal((len(y), s)) + 3.0 * rng.standard_normal(
                (k, s))[y - 1]
        basis = lda_fit(batch_moments(f, y, k), k - 1)
        assert basis.axes.shape == (rank, s)
        want = scipy_lda_axes(f, y, k - 1)
        np.testing.assert_allclose(basis.axes, want, rtol=0,
                                   atol=1e-8 * np.max(np.abs(want)))


def fix_signs_oracle(axes):
    """The per-axis loop: flip a row whose first entry with |x| > 1e-12
    is negative."""
    out = axes.copy()
    for j in range(out.shape[0]):
        nz = np.nonzero(np.abs(out[j]) > 1e-12)[0]
        if nz.size and out[j, nz[0]] < 0:
            out[j] = -out[j]
    return out


class TestFixSigns:
    def test_leading_tiny_entries_and_all_tiny_row(self):
        axes = np.array([[1e-13, -1e-12, -0.5, 2.0],    # tiny lead, flipped
                         [-1e-13, 3e-12, -1.0, 0.0],    # tiny lead, kept
                         [-1e-13, 5e-13, -1e-12, 0.0],  # all tiny: kept
                         [-2.0, 1.0, 0.0, 0.0],         # flipped
                         [0.0, 0.0, 0.0, 0.0]])
        got = _fix_signs(axes)
        np.testing.assert_array_equal(got, fix_signs_oracle(axes))
        np.testing.assert_array_equal(got[[1, 2, 4]], axes[[1, 2, 4]])
        np.testing.assert_array_equal(got[[0, 3]], -axes[[0, 3]])

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_bitwise_equal_to_loop(self, seed):
        rng = np.random.default_rng(seed)
        axes = rng.standard_normal((int(rng.integers(1, 6)),
                                    int(rng.integers(1, 6))))
        axes *= 10.0 ** rng.integers(-14, 2, size=axes.shape)
        got = _fix_signs(axes)
        want = fix_signs_oracle(axes)
        assert got.tobytes() == want.tobytes()


def scipy_lda_axes(f, y, p, eps0=1e-4):
    """Oracle: the generalized symmetric eigensolver on the same scatter
    matrices as lda_fit, top p axes under the same sign convention; an
    axis whose eigenvalue is 0 to 1e-10 of the top one is not returned."""
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
    order = np.argsort(vals)[::-1][:p]
    order = order[vals[order] > 1e-10 * vals.max()]
    return _fix_signs(vecs[:, order].T)


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
    np.testing.assert_allclose(pca_fit(moments(f), p).axes,
                               _fix_signs(vecs[:, ::-1].T), rtol=0,
                               atol=1e-10)
    want = scipy_lda_axes(f, y, min(k - 1, 4))
    np.testing.assert_allclose(
        lda_fit(batch_moments(f, y, k), min(k - 1, 4)).axes, want,
        rtol=0, atol=1e-8 * np.max(np.abs(want)))


def boundary_oracle(f, basis):
    """The per-axis loop: argmax then argmin of each axis's projections,
    a row already picked skipped."""
    proj = (f - basis.mean) @ basis.axes.T
    expected = []
    for j in range(proj.shape[1]):
        for idx in (int(np.argmax(proj[:, j])), int(np.argmin(proj[:, j]))):
            if idx not in expected:
                expected.append(idx)
    return expected


GAUSSIAN_50x3 = np.random.default_rng(7).standard_normal((50, 3))


@st.composite
def tied_batches(draw):
    """Small batches with duplicated rows, constant columns and one row
    extreme on several axes at once, under a PCA or a random basis."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n, s = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    rng = np.random.default_rng(seed)
    f = rng.integers(-2, 3, size=(n, s)).astype(float)   # ties are common
    if draw(st.booleans()):
        f[rng.integers(n, size=n // 2)] = f[rng.integers(n)]   # duplicates
    if draw(st.booleans()):
        f[:, rng.integers(s)] = 1.5                           # constant column
    if draw(st.booleans()):
        f[rng.integers(n)] = 10.0                  # extreme on several axes
    p = draw(st.integers(1, s))
    if n >= 2 and p <= n - 1 and draw(st.booleans()):
        return f, pca_fit(moments(f), p)
    return f, ProjectionBasis(axes=rng.standard_normal((p, s)),
                              mean=rng.standard_normal(s))


class TestMineBoundary:
    def test_diamond_returns_all_points(self):
        f = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
        basis = pca_fit(moments(f), 2)
        assert sorted(mine_boundary(f, basis)) == [0, 1, 2, 3]

    def test_unique_extremes_single_axis(self):
        f = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [2.0, 0.0]])
        basis = pca_fit(moments(f), 1)
        assert sorted(mine_boundary(f, basis)) == [0, 2]

    @given(tied_batches())
    @example((GAUSSIAN_50x3, pca_fit(moments(GAUSSIAN_50x3), 3)))
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce_oracle(self, batch):
        # same rows, same first-hit order, same tie-breaking as the loop
        f, basis = batch
        picked = mine_boundary(f, basis)
        assert picked.dtype.kind == "i"
        assert picked.tolist() == boundary_oracle(f, basis)

    def test_points_are_rows_of_input(self):
        rng = np.random.default_rng(8)
        f = rng.standard_normal((30, 4))
        picked = mine_boundary(f, pca_fit(moments(f), 2))
        assert len(picked) <= 4
        assert len(set(picked.tolist())) == len(picked)
        assert np.all((0 <= picked) & (picked < len(f)))

    def test_every_point_extremal_on_some_axis(self):
        rng = np.random.default_rng(9)
        f = rng.standard_normal((40, 3))
        basis = pca_fit(moments(f), 3)
        proj = (f - basis.mean) @ basis.axes.T
        for idx in mine_boundary(f, basis):
            extremal = any(
                proj[idx, j] == proj[:, j].max()
                or proj[idx, j] == proj[:, j].min()
                for j in range(proj.shape[1]))
            assert extremal

    def test_empty_input(self):
        basis = pca_fit(moments(np.eye(2)), 1)
        with pytest.raises(EmptyInput):
            mine_boundary(np.zeros((0, 2)), basis)
