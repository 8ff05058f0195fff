"""Dense linear-algebra primitives shared by the rest of the pipeline."""

import numpy as np


class NotPositiveDefinite(Exception):
    """Covariance stayed non-PD even after regularization."""


class DimensionMismatch(Exception):
    pass


class TooFewSamples(Exception):
    pass


EPS0 = 1e-4   # ridge added to every covariance and scatter before factoring


def regularized_cholesky(sigma, eps0=EPS0):
    """Lower Cholesky factor L of sigma + eps0*I = L L^T for a symmetric
    sigma or each matrix of a (..., d, d) stack, each checked for symmetry
    at its own scale.  Raises NotPositiveDefinite if one fails or has a
    non-finite entry."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim < 2 or sigma.shape[-1] != sigma.shape[-2]:
        raise DimensionMismatch(f"expected square matrix, got {sigma.shape}")
    if not np.isfinite(sigma).all():
        raise NotPositiveDefinite("matrix has a non-finite entry")
    sigma_t = np.swapaxes(sigma, -1, -2)
    scale = np.maximum(1.0, np.max(np.abs(sigma), axis=(-2, -1)))
    if np.any(np.max(np.abs(sigma - sigma_t), axis=(-2, -1)) > 1e-10 * scale):
        raise DimensionMismatch("matrix is not symmetric")
    # symmetrize to kill float asymmetry before factorizing
    sym = 0.5 * (sigma + sigma_t) + eps0 * np.eye(sigma.shape[-1])
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


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
    centered = f - f.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    return 0.5 * (cov + cov.T)


def softmax(x, axis):
    """Softmax along one axis, with the max along that axis subtracted."""
    x = np.asarray(x, dtype=float)
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)
