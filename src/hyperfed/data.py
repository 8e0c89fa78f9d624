"""Synthetic embedding generation, CSV ingestion, Dirichlet non-IID
partitioning, and controlled label/feature corruption.

Datasets keep both the observed (possibly noisy) labels and the hidden
clean labels; the clean ones are for evaluation only and never reach
training code.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    features: np.ndarray        # N x d
    observed_labels: np.ndarray  # (N,) in 1..C
    clean_labels: np.ndarray    # (N,) hidden ground truth
    n_classes: int
    feature_corrupted: np.ndarray = None  # True where features were touched

    def __post_init__(self):
        if self.feature_corrupted is None:
            self.feature_corrupted = np.zeros(self.n, dtype=bool)

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def corruption_mask(self):
        """True exactly where the observed label is wrong or the features
        were corrupted."""
        return (self.observed_labels != self.clean_labels) | self.feature_corrupted

    def copy(self):
        return Dataset(self.features.copy(), self.observed_labels.copy(),
                       self.clean_labels.copy(), self.n_classes,
                       self.feature_corrupted.copy())


@dataclass
class Partition:
    train_indices: list  # per-client int arrays, pairwise disjoint
    test_indices: list


def class_means(n_classes, dim, separation, rng):
    """Means on mutually orthogonal axes at 2*separation from the origin
    when dim >= n_classes, otherwise on random unit directions."""
    if dim >= n_classes:
        means = np.zeros((n_classes, dim))
        for c in range(n_classes):
            means[c, c] = 2.0 * separation
    else:
        dirs = rng.normal(size=(n_classes, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        means = 2.0 * separation * dirs
    return means


def generate_synthetic(n_classes, dim, n_per_class, spread, rng,
                       separation=1.0):
    """Isotropic Gaussian blobs, one per class; clean == observed."""
    if n_classes < 2 or dim < 2:
        raise ValueError("need n_classes >= 2 and dim >= 2")
    means = class_means(n_classes, dim, separation, rng)
    feats = np.vstack([
        means[c] + spread * rng.standard_normal((n_per_class, dim))
        for c in range(n_classes)])
    labels = np.repeat(np.arange(1, n_classes + 1), n_per_class)
    return Dataset(feats, labels.copy(), labels.copy(), n_classes)


def _largest_remainder(proportions, total):
    """Integer allocation of `total` items by proportion, sums exactly."""
    raw = proportions * total
    counts = np.floor(raw).astype(int)
    short = total - counts.sum()
    # hand the leftovers to the largest fractional remainders (ties by index)
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[:short]] += 1
    return counts

def dirichlet_partition(labels, client_count, alpha, rng, test_fraction=0.2,
                        max_retries=10):
    """Per-class Dir(alpha) proportions across clients, largest-remainder
    rounding, then a stratified train/test split within each client."""
    labels = np.asarray(labels, dtype=np.int64)
    if client_count < 1:
        raise ValueError("client_count must be >= 1")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    classes = np.unique(labels)
    for _ in range(max_retries):
        assigned = [[] for _ in range(client_count)]
        for c in classes:
            idx = np.flatnonzero(labels == c)
            idx = idx[rng.permutation(idx.size)]
            props = rng.dirichlet(np.full(client_count, alpha))
            counts = _largest_remainder(props, idx.size)
            pos = 0
            for k in range(client_count):
                assigned[k].extend(idx[pos:pos + counts[k]])
                pos += counts[k]
        if all(len(a) >= 2 for a in assigned):
            break
    else:
        raise RuntimeError(
            f"dirichlet_partition: a client stayed (nearly) empty after "
            f"{max_retries} redraws (alpha={alpha})")

    train_sets, test_sets = [], []
    for a in assigned:
        a = np.sort(np.asarray(a, dtype=np.int64))
        train, test = [], []
        for c in classes:
            cls = a[labels[a] == c]
            if cls.size >= 2:
                n_test = min(max(1, round(test_fraction * cls.size)),
                             cls.size - 1)
            else:
                n_test = 0
            perm = cls[rng.permutation(cls.size)]
            test.extend(perm[:n_test])
            train.extend(perm[n_test:])
        train_sets.append(np.sort(np.asarray(train, dtype=np.int64)))
        test_sets.append(np.sort(np.asarray(test, dtype=np.int64)))
    return Partition(train_sets, test_sets)


def inject_label_noise(ds, rate, rng):
    """Resample floor(rate*N) observed labels uniformly from the other
    classes; clean labels stay untouched."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    out = ds.copy()
    n_flip = math.floor(rate * ds.n)
    if n_flip == 0:
        return out
    chosen = rng.choice(ds.n, size=n_flip, replace=False)
    for i in chosen:
        old = out.observed_labels[i]
        others = [c for c in range(1, ds.n_classes + 1) if c != old]
        out.observed_labels[i] = others[rng.integers(len(others))]
    return out


def corrupt_features(ds, rate, severity, rng, indices=None):
    """Additive Gaussian noise of std severity * (global feature std) on a
    rate-fraction of samples, or on an explicit index set (rate ignored
    then). The explicit form lets experiments tie low-quality features to
    mislabeled samples."""
    if severity < 0:
        raise ValueError("severity must be >= 0")
    out = ds.copy()
    if indices is not None:
        chosen = np.asarray(indices, dtype=np.int64)
        n_hit = chosen.size
    else:
        n_hit = math.floor(rate * ds.n)
        chosen = None
    if n_hit == 0 or severity == 0.0:
        return out
    if chosen is None:
        chosen = rng.choice(ds.n, size=n_hit, replace=False)
    sigma = severity * float(np.std(ds.features))
    out.features[chosen] += sigma * rng.standard_normal(
        (n_hit, ds.features.shape[1]))
    out.feature_corrupted[chosen] = True
    return out


# ---------------------------------------------------------------------------
# External formats
# ---------------------------------------------------------------------------

class CsvFormatError(ValueError):
    pass


def load_embeddings_csv(path):
    """CSV with header label,f0,...,f{d-1}; labels 1..C; clean == observed.
    Features must be finite: nan and inf are format errors."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        if not header or header[0] != "label":
            raise CsvFormatError(f"{path}: first column must be 'label'")
        dim = len(header) - 1
        feats, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != dim + 1:
                raise CsvFormatError(
                    f"{path}:{lineno}: expected {dim + 1} fields, got {len(row)}")
            try:
                labels.append(int(row[0]))
                feats.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise CsvFormatError(f"{path}:{lineno}: {exc}") from None
            for text, v in zip(row[1:], feats[-1]):
                if not math.isfinite(v):
                    raise CsvFormatError(
                        f"{path}:{lineno}: non-finite feature {text!r}")
    if not feats:
        raise CsvFormatError(f"{path}: no data rows")
    labels = np.asarray(labels, dtype=np.int64)
    if np.any(labels < 1):
        raise CsvFormatError(f"{path}: labels must be >= 1")
    return Dataset(np.asarray(feats, dtype=np.float64), labels.copy(),
                   labels.copy(), int(labels.max()))


def save_embeddings_csv(ds, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i}" for i in range(ds.features.shape[1])])
        for label, row in zip(ds.observed_labels, ds.features):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])
