"""PCA / LDA projections and boundary-sample mining.

A fit takes a batch's numerics.batch_moments and returns one
ProjectionBasis; mine_boundary returns the indices of the rows extreme
along its axes.  The outlier engine mines the whole batch in the PCA basis
and each selected class's rows in the shared LDA basis.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import (NotPositiveDefinite, TooFewSamples,
                       regularized_cholesky, tril_inverse)

LDA_RANK_TOL = 1e-10   # an LDA eigenvalue below this share of the top is 0
LDA_FISHER_FLOOR = 1e-12   # a top Fisher ratio at or below this is rounding


class DegenerateScatter(Exception):
    pass


class EmptyInput(Exception):
    pass


@dataclass
class ProjectionBasis:
    axes: np.ndarray            # p x s
    mean: np.ndarray            # s


def _fix_signs(axes):
    """Deterministic sign convention: first nonzero component positive.
    A row's first entry with |x| > 1e-12 decides; a row without one has
    |x| <= 1e-12 at index 0, so it is never flipped."""
    first = axes[np.arange(len(axes)), np.argmax(np.abs(axes) > 1e-12, axis=1)]
    return np.where((first < -1e-12)[:, None], -axes, axes)


def pca_fit(moments, p):
    """Top-p principal axes of a batch, descending eigenvalue order, from
    the covariance of all its rows (row 0 of numerics.batch_moments)."""
    n, s = int(moments.count[0]), moments.mean.shape[1]
    if n < 2:
        raise TooFewSamples(f"pca_fit needs n >= 2, got {n}")
    if not 1 <= p <= min(n - 1, s):
        raise ValueError(f"p={p} out of range for n={n}, s={s}")
    _, vecs = np.linalg.eigh(moments.cov[0])
    axes = _fix_signs(vecs[:, :-p - 1:-1].T)   # top p, descending
    return ProjectionBasis(axes=axes, mean=moments.mean[0])


def lda_fit(moments, p):
    """Fisher discriminant axes over the C classes with at least 2 rows of
    numerics.batch_moments, centered at the mean of all rows.

    Sb = D D^T, D's columns sqrt(n_c) (mu_c - mu), has rank <= C: with
    Sw + EPS0*I = L L^T and B = L^-1 D, Sb v = lambda Sw v is the C x C
    eigh(B^T B) a = lambda a, v = L^-T B a / sqrt(lambda).  Of the top p
    axes those with lambda <= LDA_RANK_TOL * lambda_max are dropped.  Equal
    class means give lambda_max ~1e-32, real batches 1e-4 and up: a
    lambda_max <= LDA_FISHER_FLOOR raises DegenerateScatter."""
    classes = np.flatnonzero(moments.count[1:] >= 2) + 1
    if len(classes) < 2:
        raise DegenerateScatter(
            f"lda_fit needs >=2 classes with >=2 samples, got {len(classes)}")
    if not 1 <= p <= len(classes) - 1:
        raise ValueError(f"p={p} out of range for {len(classes)} classes")
    n, mean = moments.count[classes], moments.mean[0]
    sw = np.einsum("c,cij->ij", n - 1.0, moments.cov[classes])
    try:
        linv = tril_inverse(regularized_cholesky(sw))
        b = linv @ ((moments.mean[classes] - mean).T * np.sqrt(n))
        vals, a = np.linalg.eigh(b.T @ b)
    except (NotPositiveDefinite, np.linalg.LinAlgError) as exc:
        raise DegenerateScatter(str(exc)) from exc
    if not vals[-1] > LDA_FISHER_FLOOR:
        raise DegenerateScatter("class means coincide")
    top = np.flatnonzero(vals > LDA_RANK_TOL * vals[-1])[::-1][:p]
    vecs = linv.T @ (b @ a[:, top]) / np.sqrt(vals[top])
    return ProjectionBasis(axes=_fix_signs(vecs.T), mean=mean)


def mine_boundary(f, basis):
    """Indices of the rows of f attaining the max and then the min along
    each projection axis, in that order; a row already picked is not
    repeated, so at most 2p indices come back.  Ties go to the first row."""
    f = np.asarray(f, dtype=float)
    if f.shape[0] == 0:
        raise EmptyInput("mine_boundary got an empty batch")
    proj = (f - basis.mean) @ basis.axes.T   # n x p
    hits = np.stack([proj.argmax(axis=0), proj.argmin(axis=0)], axis=1).ravel()
    _, first = np.unique(hits, return_index=True)
    return hits[np.sort(first)]
