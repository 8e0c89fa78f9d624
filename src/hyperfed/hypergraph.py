"""k-NN hypergraph construction and the hypergraph convolution layer.

A batch of N feature vectors yields N hyperedges: each vertex v spawns the
hyperedge {v} + its K nearest neighbors (Euclidean distance, ties broken by
lower index). Hyperedge weights come from a Gaussian kernel on distances.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .numcore import DimensionError, pairwise_sq_dist


@dataclass
class KernelConfig:
    neighbor_count: int = 10
    bandwidth_mode: str = "median"  # "median" | "fixed"
    fixed_sigma: float = 1.0

    def __post_init__(self):
        if self.neighbor_count < 1:
            raise ValueError("neighbor_count must be >= 1")
        if self.bandwidth_mode not in ("median", "fixed"):
            raise ValueError(f"unknown bandwidth_mode {self.bandwidth_mode!r}")
        if self.bandwidth_mode == "fixed" and not self.fixed_sigma > 0:
            raise ValueError("fixed_sigma must be positive")


@dataclass
class HypergraphTopology:
    n: int
    incidence: np.ndarray      # (..., N, N) binary, H[v, e]
    edge_weights: np.ndarray   # (..., N) positive, diagonal of W
    vertex_degrees: np.ndarray  # (..., N) Dv(v) = sum_e W(e) H(v, e)
    edge_degrees: np.ndarray   # (..., N) De(e) = sum_v H(v, e)
    clamped: bool = False      # K >= N, hyperedges fell back to all vertices


@functools.lru_cache(maxsize=64)
def _upper_triangle(n):
    """Flat indices of the strict upper triangle of an n x n matrix,
    read-only because every caller shares them."""
    rows, cols = np.triu_indices(n, 1)
    flat = rows * n + cols
    flat.flags.writeable = False
    return flat


def median_bandwidth(d2):
    """Median positive distance of each slice of the squared distances
    d2 (..., n, n); infinite where a slice has no positive distance.

    d2 is exactly symmetric, so the full list of positive distances
    holds every strict-upper-triangle value twice; its two middle values
    are either the triangle's middle pair or one value twice, whose mean
    is that value. The triangle's median therefore has the same bits as
    np.median(dist[dist > 0]).
    """
    n = d2.shape[-1]
    if n < 2:
        return np.full(d2.shape[:-2], np.inf)
    upper = d2.reshape(-1, n * n)[:, _upper_triangle(n)]
    positive = upper > 0.0
    count = np.add.reduce(positive, axis=-1)
    upper[~positive] = np.inf  # zeros (and NaNs) sort after the positives
    upper.sort(axis=-1)
    # sqrt is monotone: the middle squared distances give the middle distances
    rows = np.arange(len(upper))
    mid = (np.sqrt(upper[rows, (count - 1) // 2])
           + np.sqrt(upper[rows, count // 2]))
    return np.where(count > 0, mid / 2.0, np.inf).reshape(d2.shape[:-2])


def build_knn_hypergraph(features, cfg):
    """One hyperedge per vertex over its K nearest neighbors, for each
    (N, d) slice of features (..., N, d) on its own.

    Edge weight is the mean Gaussian affinity between the centroid vertex
    and the hyperedge members (self included, contributing 1). Bandwidth is
    the median of the slice's positive pairwise distances unless a fixed
    sigma is configured. All-identical features degrade to unit weights.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] < 1:
        raise DimensionError(
            f"features must be a non-empty (..., n, d) array, got {x.shape}")
    n = x.shape[-2]
    k = cfg.neighbor_count
    clamped = k >= n

    d2 = pairwise_sq_dist(x)
    if clamped:
        h = np.ones(d2.shape)
    else:
        # argsort is stable on the (distance, index) order we need because
        # equal distances keep ascending index order with kind="stable";
        # each row drops its own vertex (wherever a duplicate put it) and
        # keeps the first k others, which become column v of H
        order = np.argsort(d2, axis=-1, kind="stable")
        cols = np.arange(n)
        members = order[order != cols[:, None]].reshape(-1, n, n - 1)[..., :k]
        h = np.zeros(d2.shape)
        slices = h.reshape(-1, n, n)
        slices[np.arange(len(slices))[:, None, None], members,
               cols[:, None]] = 1.0
        h[..., cols, cols] = 1.0

    if cfg.bandwidth_mode == "fixed":
        sigma = np.full(d2.shape[:-2], cfg.fixed_sigma)
    else:
        sigma = median_bandwidth(d2)
    # a slice without a positive distance is all zeros and gets an infinite
    # bandwidth, so each of its affinities is exp(-0) = 1
    sigma = sigma[..., None, None]
    affinity = np.exp(-d2 / (2.0 * sigma * sigma))
    # mean affinity from centroid e to its members: column e of H marks them.
    # vecdot reduces each row pair with the same strided dot as
    # affinity[e, :] @ h[:, e]; a sum, einsum or matmul over a contiguous
    # copy of H^T rounds differently and flips k-NN ties downstream
    edge_sizes = h.sum(axis=-2)
    edge_weights = np.vecdot(affinity, h.mT) / edge_sizes
    # a matmul against a column, not vecdot or einsum, has the bits of h @ w
    vertex_degrees = np.matmul(h, edge_weights[..., None])[..., 0]
    return HypergraphTopology(n=n, incidence=h, edge_weights=edge_weights,
                              vertex_degrees=vertex_degrees,
                              edge_degrees=edge_sizes, clamped=clamped)


def normalized_operator(t):
    """S = Dv^{-1/2} H W De^{-1} H^T Dv^{-1/2} per slice, (..., N, N);
    symmetric PSD, eigmax <= 1."""
    if np.any(t.vertex_degrees <= 0.0) or np.any(t.edge_degrees <= 0.0):
        raise ValueError("topology has a zero degree")
    dv_isqrt = 1.0 / np.sqrt(t.vertex_degrees)
    hw = t.incidence * (t.edge_weights / t.edge_degrees)[..., None, :]
    s = (dv_isqrt[..., :, None] * hw) @ (
        t.incidence.mT * dv_isqrt[..., None, :])
    return 0.5 * (s + s.mT)


def add_hgnn(layout, prefix, dims):
    """Append an L-layer HGNN block to a Layout: bias-free, ReLU on the
    hidden layers and linear on the last."""
    return layout.add(prefix, dims, ["relu"] * (len(dims) - 2) + ["linear"],
                      bias=False)


def hgnn_forward(params, prefix, x, s):
    """X <- sigma(S X Theta) per layer of block prefix, for a signal x
    (..., N, d) and an operator s (..., N, N) slice by slice; cache keeps
    per-layer inputs."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-2] != s.shape[-1]:
        raise DimensionError(
            f"signal rows {x.shape[-2]} != operator size {s.shape[-1]}")
    cache = []
    for act, theta, _, _ in params.blocks[prefix]:
        if x.shape[-1] != theta.shape[0]:
            raise DimensionError(
                f"signal cols {x.shape[-1]} != theta rows {theta.shape[0]}")
        sx = s @ x
        z = sx @ theta
        out = np.maximum(z, 0.0) if act == "relu" else z
        cache.append((x, sx, z))
        x = out
    return x, (s, cache)


def hgnn_backward(params, prefix, cache, grad_output, grads):
    """Writes the gradient of every theta of block prefix into its view of
    grads and returns the input signal's gradient; S is a constant."""
    s, per_layer = cache
    layers = params.blocks[prefix]
    if len(per_layer) != len(layers):
        raise ValueError("cache does not match layer stack")
    g = np.asarray(grad_output, dtype=np.float64)
    for (act, theta, _, _), (_, g_theta, _, _), (x_in, sx, z) in zip(
            reversed(layers), reversed(grads.blocks[prefix]),
            reversed(per_layer)):
        dz = g * (z > 0.0) if act == "relu" else g
        g_theta[...] = sx.T @ dz
        g = s.T @ (dz @ theta.T)
    return g
