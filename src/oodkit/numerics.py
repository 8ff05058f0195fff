"""Dense linear-algebra primitives shared by the rest of the pipeline."""

from dataclasses import dataclass

import numpy as np


class NotPositiveDefinite(Exception):
    """Covariance stayed non-PD even after regularization."""


class DimensionMismatch(Exception):
    pass


class TooFewSamples(Exception):
    pass


EPS0 = 1e-4   # ridge added to every covariance and scatter before factoring
TRIL_BLOCK = 16   # widest diagonal block that tril_inverse inverts directly


def regularized_cholesky(sigma, eps0=EPS0):
    """Lower Cholesky factor L of sigma + eps0*I = L L^T for a symmetric
    sigma or each matrix of a (..., d, d) stack, each checked for symmetry
    at its own scale.  Raises NotPositiveDefinite if one fails or has a
    non-finite entry."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim < 2 or sigma.shape[-1] != sigma.shape[-2]:
        raise DimensionMismatch(f"expected square matrix, got {sigma.shape}")
    scale = np.max(np.abs(sigma), axis=(-2, -1))   # NaN or inf shows here
    if not np.isfinite(scale).all():
        raise NotPositiveDefinite("matrix has a non-finite entry")
    asym = np.max(np.abs(sigma - np.swapaxes(sigma, -1, -2)), axis=(-2, -1))
    if np.any(asym > 1e-10 * np.maximum(1.0, scale)):
        raise DimensionMismatch("matrix is not symmetric")
    try:   # reads the lower triangle only, so float asymmetry plays no part
        return np.linalg.cholesky(sigma + eps0 * np.eye(sigma.shape[-1]))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def tril_inverse(lower):
    """Inverse of a lower-triangular matrix or of each of a (..., d, d)
    stack by 2x2 block recursion, [[A, 0], [C, D]]^-1 =
    [[A^-1, 0], [-D^-1 C A^-1, D^-1]], down to blocks of width TRIL_BLOCK
    that np.linalg.inv inverts; within those the upper triangle is 0 only
    to rounding."""
    d = lower.shape[-1]
    if d <= TRIL_BLOCK:
        return np.linalg.inv(lower)
    h, out = d // 2, np.zeros(lower.shape)
    out[..., :h, :h] = a_inv = tril_inverse(lower[..., :h, :h])
    out[..., h:, h:] = d_inv = tril_inverse(lower[..., h:, h:])
    out[..., h:, :h] = -(d_inv @ lower[..., h:, :h]) @ a_inv
    return out


def regularized_inverse(sigma, eps0=EPS0):
    """(sigma + eps0*I)^-1 as (L^-1)^T L^-1, with L^-1 the inverse of the
    regularized_cholesky factor."""
    linv = np.linalg.inv(regularized_cholesky(sigma, eps0))
    inv = linv.T @ linv
    return 0.5 * (inv + inv.T)


def mahalanobis_sq_rows(x, mu, linv):
    """Squared Mahalanobis distance of every row of x to mu, given the
    inverse L^-1 of the covariance's lower Cholesky factor: row sums of
    squares of (x - mu) L^-T, one matmul for the whole batch.  With stacks
    mu (c, d) and linv (c, d, d) the result is (c, rows), one per center."""
    z = ((np.asarray(x, dtype=float) - mu[..., None, :])
         @ np.swapaxes(linv, -1, -2))
    return np.einsum("...ij,...ij->...i", z, z)


def mahalanobis_sq(x, mu, sigma_inv):
    """Squared Mahalanobis distance (x-mu) sigma_inv (x-mu)^T, no square root."""
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma_inv = np.asarray(sigma_inv, dtype=float)
    if x.shape != mu.shape or sigma_inv.shape != (x.size, x.size):
        raise DimensionMismatch(
            f"x {x.shape}, mu {mu.shape}, sigma_inv {sigma_inv.shape}")
    d = x - mu
    return max(0.0, float(d @ sigma_inv @ d))


def sample_covariance(f):
    """Unbiased (n-1) sample covariance of the rows of an n x s matrix."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 2:
        raise DimensionMismatch(f"expected 2-d array, got shape {f.shape}")
    n = f.shape[0]
    if n < 2:
        raise TooFewSamples(f"need at least 2 rows, got {n}")
    return scatter_covariance([f], f.mean(axis=0), n)


def scatter_covariance(blocks, mean, n):
    """Unbiased (n-1) covariance about `mean` of the n rows of the (m, s)
    `blocks`: the sum of their scatters (block - mean)^T (block - mean),
    which starts at the first one, / (n-1), symmetrized."""
    scatter = None
    for rows in blocks:
        centered = rows - mean
        part = centered.T @ centered
        scatter = part if scatter is None else scatter + part
    cov = scatter / (n - 1)
    return 0.5 * (cov + cov.T)


@dataclass
class Moments:
    """Batch statistics stacked as in the outlier state: row 0 over all
    rows, row c over class c.  One row gives covariance EPS0*I; an absent
    class is all zeros."""
    count: np.ndarray   # (K+1,)
    mean: np.ndarray    # (K+1, s)
    cov: np.ndarray     # (K+1, s, s), unbiased (n-1)


def batch_moments(f, y, n_classes):
    """One pass over the rows of f (n x s) labelled y in 1..n_classes."""
    f, y = np.asarray(f, dtype=float), np.asarray(y)
    n, s = f.shape
    count = np.bincount(y, minlength=n_classes + 1)[:n_classes + 1]
    count[0] = n
    mean, cov = np.zeros((n_classes + 1, s)), np.zeros((n_classes + 1, s, s))
    for c in np.flatnonzero(count):
        rows = f if c == 0 else f[y == c]
        mean[c] = rows.mean(axis=0)
        cov[c] = sample_covariance(rows) if count[c] > 1 else EPS0 * np.eye(s)
    return Moments(count=count, mean=mean, cov=cov)


def softmax(x, axis):
    """Softmax along one axis, with the max along that axis subtracted."""
    x = np.asarray(x, dtype=float)
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)
