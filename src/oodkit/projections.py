"""PCA / per-class LDA projections and boundary-sample mining."""

from dataclasses import dataclass, field

import numpy as np

from .numerics import (NotPositiveDefinite, TooFewSamples,
                       regularized_cholesky, sample_covariance)


class DegenerateScatter(Exception):
    pass


class EmptyInput(Exception):
    pass


@dataclass
class ProjectionBasis:
    kind: str                   # "PCA" or "LDA"
    axes: np.ndarray            # p x s
    mean: np.ndarray            # s
    class_id: int | None = None  # LDA only: class whose rows feed mine_boundary


@dataclass
class BoundarySet:
    points: list = field(default_factory=list)   # rows of the input batch
    indices: list = field(default_factory=list)  # row indices into the batch
    source: str = ""


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
    return ProjectionBasis(kind="PCA", axes=axes, mean=f.mean(axis=0))


def lda_fit(f, y, p, eps0=1e-4):
    """Fisher discriminant axes; one basis per class for restricted mining.

    With the regularized within-class scatter Sw + eps0*I = L L^T, the
    problem Sb v = lambda Sw v is eigh(L^-1 Sb L^-T) u = lambda u, v = L^-T u.
    All bases share the axes; class_id names the class each restricts to.
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
        linv = np.linalg.inv(regularized_cholesky(sw, eps0))
        vals, u = np.linalg.eigh(linv @ sb @ linv.T)
    except (NotPositiveDefinite, np.linalg.LinAlgError) as exc:
        raise DegenerateScatter(str(exc)) from exc
    vecs = linv.T @ u
    order = np.argsort(vals)[::-1][:p]
    axes = _fix_signs(vecs[:, order].T)
    return [ProjectionBasis(kind="LDA", axes=axes, mean=mean, class_id=int(c))
            for c in classes]


def mine_boundary(f, basis):
    """Rows of f attaining the max and min along each projection axis.

    Selection is a preimage lookup: the returned points are rows of f,
    never reconstructions.  Duplicates (same row hit by several axes)
    are removed, so at most 2p points come back.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[0] == 0:
        raise EmptyInput("mine_boundary got an empty batch")
    proj = (f - basis.mean) @ basis.axes.T   # n x p
    picked = []
    for j in range(proj.shape[1]):
        for idx in (int(np.argmax(proj[:, j])), int(np.argmin(proj[:, j]))):
            if idx not in picked:
                picked.append(idx)
    source = basis.kind if basis.class_id is None else f"LDA({basis.class_id})"
    return BoundarySet(points=[f[i].copy() for i in picked],
                       indices=picked, source=source)
