"""PCA / LDA projections and boundary-sample mining.

A fit returns one ProjectionBasis; mine_boundary returns the indices of the
rows extreme along its axes.  The outlier engine mines the whole batch in
the PCA basis and each selected class's rows in the shared LDA basis.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import (NotPositiveDefinite, TooFewSamples,
                       regularized_cholesky, sample_covariance)


class DegenerateScatter(Exception):
    pass


class EmptyInput(Exception):
    pass


@dataclass
class ProjectionBasis:
    axes: np.ndarray            # p x s
    mean: np.ndarray            # s


def _fix_signs(axes):
    """Deterministic sign convention: first nonzero component positive."""
    out = axes.copy()
    for j in range(out.shape[0]):
        nz = np.nonzero(np.abs(out[j]) > 1e-12)[0]
        if nz.size and out[j, nz[0]] < 0:
            out[j] = -out[j]
    return out


def pca_fit(f, p):
    """Top-p principal axes of the rows of f, descending eigenvalue order."""
    f = np.asarray(f, dtype=float)
    n, s = f.shape
    if n < 2:
        raise TooFewSamples(f"pca_fit needs n >= 2, got {n}")
    if not 1 <= p <= min(n - 1, s):
        raise ValueError(f"p={p} out of range for n={n}, s={s}")
    _, vecs = np.linalg.eigh(sample_covariance(f))
    axes = _fix_signs(vecs[:, :-p - 1:-1].T)   # top p, descending
    return ProjectionBasis(axes=axes, mean=f.mean(axis=0))


def lda_fit(f, y, p):
    """Fisher discriminant axes over the classes with at least 2 rows.

    With the regularized within-class scatter Sw + EPS0*I = L L^T, the
    problem Sb v = lambda Sw v is eigh(L^-1 Sb L^-T) u = lambda u, v = L^-T u.
    """
    f = np.asarray(f, dtype=float)
    y = np.asarray(y)
    classes = [c for c in np.unique(y) if np.sum(y == c) >= 2]
    if len(classes) < 2:
        raise DegenerateScatter(
            f"lda_fit needs >=2 classes with >=2 samples, got {len(classes)}")
    if not 1 <= p <= len(classes) - 1:
        raise ValueError(f"p={p} out of range for {len(classes)} classes")
    s = f.shape[1]
    mean = f.mean(axis=0)
    sw = np.zeros((s, s))
    sb = np.zeros((s, s))
    for c in classes:
        rows = f[y == c]
        mu_c = rows.mean(axis=0)
        centered = rows - mu_c
        sw += centered.T @ centered
        diff = (mu_c - mean)[:, None]
        sb += rows.shape[0] * (diff @ diff.T)
    try:
        linv = np.linalg.inv(regularized_cholesky(sw))
        vals, u = np.linalg.eigh(linv @ sb @ linv.T)
    except (NotPositiveDefinite, np.linalg.LinAlgError) as exc:
        raise DegenerateScatter(str(exc)) from exc
    vecs = linv.T @ u
    order = np.argsort(vals)[::-1][:p]
    return ProjectionBasis(axes=_fix_signs(vecs[:, order].T), mean=mean)


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
