"""Synthetic Gaussian-mixture datasets.

The two-dimensional two-class mixture draws its component parameters from
folded normals, then rejection-samples each component so that no emitted
point lies farther than 3*sigma (max diagonal std) from its own mean.
All randomness comes from a seeded Philox generator, so datasets are
bit-reproducible for a given seed.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class GaussianSpec:
    mean: np.ndarray
    cov_diag: np.ndarray   # diagonal entries, all > 0
    count: int


@dataclass
class FeatureBatch:
    features: np.ndarray   # n x s
    labels: np.ndarray     # n, values in {1..K+1}


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _rejection_sample(rng, mean, cov_diag, count):
    """Diagonal-Gaussian draws, kept only within 3*max(std) of the mean."""
    std = np.sqrt(cov_diag)
    radius = 3.0 * float(np.max(std))
    rows = []
    kept = 0
    while kept < count:
        cand = mean + std * rng.standard_normal((max(count, 64), mean.size))
        ok = np.linalg.norm(cand - mean, axis=1) <= radius
        cand = cand[ok]
        rows.append(cand[:count - kept])
        kept += min(len(cand), count - kept)
    return np.vstack(rows)


def gen_mixture_2d(seed, n_train_per_class=1000, n_test_per_class=500,
                   n_ood=1000):
    """Two ID classes plus one OOD component in the plane.

    Class i (i = 1, 2): mean (i/10)*(|N|, |N|), diagonal stds
    (i/10)*|N| + 0.1.  OOD: mean (1/2)*(-|N|, -|N|), diagonal stds
    0.2*|N| + 0.1.  Every component is 3-sigma filtered.

    Returns (train: FeatureBatch, test: FeatureBatch, ood: FeatureBatch);
    OOD rows carry label 3.
    """
    rng = _rng(seed)
    specs = []
    for i in (1, 2):
        mean = (i / 10.0) * np.abs(rng.standard_normal(2))
        cov_diag = ((i / 10.0) * np.abs(rng.standard_normal(2)) + 0.1) ** 2
        specs.append(GaussianSpec(mean=mean, cov_diag=cov_diag, count=0))
    ood_mean = 0.5 * (-np.abs(rng.standard_normal(2)))
    ood_cov = (0.2 * np.abs(rng.standard_normal(2)) + 0.1) ** 2
    ood_spec = GaussianSpec(mean=ood_mean, cov_diag=ood_cov, count=n_ood)

    train_x, train_y, test_x, test_y = [], [], [], []
    for i, spec in enumerate(specs, start=1):
        pts = _rejection_sample(rng, spec.mean, spec.cov_diag,
                                n_train_per_class + n_test_per_class)
        train_x.append(pts[:n_train_per_class])
        train_y.append(np.full(n_train_per_class, i))
        test_x.append(pts[n_train_per_class:])
        test_y.append(np.full(n_test_per_class, i))
    ood_pts = _rejection_sample(rng, ood_spec.mean, ood_spec.cov_diag, n_ood)

    train = FeatureBatch(np.vstack(train_x), np.concatenate(train_y))
    test = FeatureBatch(np.vstack(test_x), np.concatenate(test_y))
    ood = FeatureBatch(ood_pts, np.full(n_ood, 3))
    return train, test, ood, specs + [ood_spec]


def gen_feature_set(n_classes, dim, n_per_class, separation, seed):
    """K isotropic unit-variance Gaussian clusters with the given minimum
    pairwise center distance; labels 1..K."""
    if n_classes < 2 or dim < 2:
        raise ValueError("need n_classes >= 2 and dim >= 2")
    rng = _rng(seed)
    if n_classes <= dim:
        centers = np.zeros((n_classes, dim))
        for i in range(n_classes):
            centers[i, i] = separation / np.sqrt(2.0)
    else:
        centers = rng.standard_normal((n_classes, dim))
        dists = np.linalg.norm(centers[:, None] - centers[None], axis=2)
        min_d = dists[np.triu_indices(n_classes, 1)].min()
        centers *= separation / min_d if min_d > 0 else 0.0
    feats, labels = [], []
    for i in range(n_classes):
        feats.append(centers[i] + rng.standard_normal((n_per_class, dim)))
        labels.append(np.full(n_per_class, i + 1))
    return FeatureBatch(np.vstack(feats), np.concatenate(labels))
