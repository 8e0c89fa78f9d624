"""Synthetic embedding generation, CSV ingestion, Dirichlet non-IID
partitioning, and controlled label/feature corruption.

Datasets keep both the observed (possibly noisy) labels and the hidden
clean labels; the clean ones are for evaluation only and never reach
training code.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

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


class PartitionError(ValueError):
    pass


def dirichlet_partition(labels, client_count, alpha, rng, test_fraction=0.2,
                        max_retries=10):
    """Per-class Dir(alpha) proportions across clients, largest-remainder
    rounding, then a stratified train/test split within each client. A
    draw that leaves a client fewer than 2 samples is redrawn; after
    max_retries such draws it raises PartitionError."""
    labels = np.asarray(labels, dtype=np.int64)
    if client_count < 1:
        raise ValueError("client_count must be >= 1")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    classes = np.unique(labels)
    for _ in range(max_retries):
        # each class's samples in a random order, and each client's count
        drawn = []
        for c in classes:
            idx = np.flatnonzero(labels == c)
            idx = idx[rng.permutation(idx.size)]
            props = rng.dirichlet(np.full(client_count, alpha))
            drawn.append((idx, _largest_remainder(props, idx.size)))
        if np.all(sum(counts for _, counts in drawn) >= 2):
            break
    else:
        raise PartitionError(
            f"each of {max_retries} Dirichlet(alpha={alpha}) partitions of "
            f"{labels.size} samples over {client_count} clients left a "
            f"client with fewer than 2")

    # per class: each client's samples, in index order, and how many of
    # them it tests on (none of one sample, else at least 1 and not all)
    pieces, n_tests = [], []
    for idx, counts in drawn:
        owner = np.repeat(np.arange(client_count), counts)
        idx = idx[np.lexsort((idx, owner))]
        ends = np.cumsum(counts).tolist()
        pieces.append([idx[a:b] for a, b in zip([0] + ends, ends)])
        n_test = np.minimum(np.maximum(1, np.round(test_fraction * counts)),
                            counts - 1)
        n_tests.append(np.where(counts >= 2, n_test, 0).astype(int).tolist())

    train_sets, test_sets = [], []
    for k in range(client_count):
        train, test = [], []
        for by_client, n_test in zip(pieces, n_tests):
            perm = by_client[k][rng.permutation(by_client[k].size)]
            test.append(perm[:n_test[k]])
            train.append(perm[n_test[k]:])
        train_sets.append(np.sort(np.concatenate(train)))
        test_sets.append(np.sort(np.concatenate(test)))
    return Partition(train_sets, test_sets)


def _rate_count(rate, n):
    """floor(rate * n), with the product taken on the decimal rate, so
    0.29 of 100 samples counts 29 where the float product 28.999999999999996
    would count 28."""
    return math.floor(Fraction(str(rate)) * n)


def inject_label_noise(ds, rate, rng):
    """Resample _rate_count(rate, N) observed labels uniformly from the
    other classes; clean labels stay untouched."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    out = ds.copy()
    n_flip = _rate_count(rate, ds.n)
    if n_flip == 0:
        return out
    chosen = rng.choice(ds.n, size=n_flip, replace=False)
    # one bounded draw per flip, in the order of chosen: the other classes
    # of a label old, in order, are 1..old-1 then old+1..C
    pick = rng.integers(ds.n_classes - 1, size=n_flip) + 1
    pick += pick >= out.observed_labels[chosen]
    out.observed_labels[chosen] = pick
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
        n_hit = _rate_count(rate, ds.n)
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


def read_csv_text(path):
    """A CSV file's text, read as UTF-8. A file that cannot be read or is
    not UTF-8 is a format error naming the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return io.StringIO(fh.read(), newline="")
    except OSError as exc:
        raise CsvFormatError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise CsvFormatError(f"{path}:{line}: not UTF-8 text: byte "
                             f"{exc.start} is {exc.object[exc.start]:#04x}"
                             ) from exc


def load_embeddings_csv(path):
    """CSV with header label,f0,...,f{d-1}; labels 1..C; clean == observed.
    Features must be finite: nan and inf are format errors, and so is a
    file read_csv_text refuses."""
    reader = csv.reader(read_csv_text(path))
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
