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
                       separation):
    """Isotropic Gaussian blobs, one per class; clean == observed."""
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


# Dirichlet draws a partition may take before it gives up
MAX_DRAWS = 10


def dirichlet_partition(labels, client_count, alpha, rng, test_fraction):
    """Per-class Dir(alpha) proportions across clients, largest-remainder
    rounding, then a stratified train/test split within each client. A
    draw that leaves a client fewer than 2 samples is redrawn; after
    MAX_DRAWS such draws it raises PartitionError."""
    labels = np.asarray(labels, dtype=np.int64)
    classes = np.unique(labels)
    for _ in range(MAX_DRAWS):
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
            f"each of {MAX_DRAWS} Dirichlet(alpha={alpha}) partitions of "
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


def rate_count(rate, n):
    """floor(rate * n), with the product taken on the decimal rate, so
    0.29 of 100 samples counts 29 where the float product 28.999999999999996
    would count 28."""
    return math.floor(Fraction(str(rate)) * n)


def inject_label_noise(ds, rate, rng):
    """Resample rate_count(rate, N) observed labels uniformly from the
    other classes; clean labels stay untouched."""
    out = ds.copy()
    n_flip = rate_count(rate, ds.n)
    if n_flip == 0:
        return out
    chosen = rng.choice(ds.n, size=n_flip, replace=False)
    # one bounded draw per flip, in the order of chosen: the other classes
    # of a label old, in order, are 1..old-1 then old+1..C
    pick = rng.integers(ds.n_classes - 1, size=n_flip) + 1
    pick += pick >= out.observed_labels[chosen]
    out.observed_labels[chosen] = pick
    return out


def corrupt_features(ds, indices, severity, rng):
    """Additive Gaussian noise of std severity * (global feature std) on
    the samples indices, one draw row per index in their order."""
    out = ds.copy()
    sigma = severity * float(np.std(ds.features))
    out.features[indices] += sigma * rng.standard_normal(
        (len(indices), ds.features.shape[1]))
    out.feature_corrupted[indices] = True
    return out


# ---------------------------------------------------------------------------
# External formats
# ---------------------------------------------------------------------------

class CsvFormatError(ValueError):
    pass


def read_csv(path):
    """A CSV file's header (empty for an empty file) and its rows, as
    (line, fields) pairs. The file is read as UTF-8 with one leading
    byte-order mark dropped. A file that cannot be read or is not UTF-8,
    and a row whose field count is not the header's, is a format error
    naming the file (and the line); a row's error is raised when the
    pairs reach it, so a caller checks its header first."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CsvFormatError(f"{path}: {exc.strerror}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise CsvFormatError(f"{path}:{line}: not UTF-8 text: byte "
                             f"{exc.start} is {raw[exc.start]:#04x}") from exc
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    header = next(reader, [])

    def rows():
        for fields in reader:
            if len(fields) != len(header):
                raise CsvFormatError(
                    f"{path}:{reader.line_num}: expected {len(header)} "
                    f"fields, got {len(fields)}")
            yield reader.line_num, fields

    return header, rows()


def load_embeddings_csv(path):
    """CSV with header label,f0,...,f{d-1}; labels 1..C; clean == observed.
    Features must be finite: nan and inf are format errors, and so is a
    file read_csv refuses."""
    header, rows = read_csv(path)
    if not header:
        raise CsvFormatError(f"{path}: empty file")
    if header[0] != "label":
        raise CsvFormatError(f"{path}: first column must be 'label'")
    feats, labels = [], []
    for lineno, row in rows:
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
