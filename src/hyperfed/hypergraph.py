"""k-NN hypergraph construction, its normalized operator, and the HGNN
entry points, which run numcore's layer loop with the operator.

A batch of N feature vectors yields N hyperedges: each vertex v spawns the
hyperedge {v} + its K nearest neighbors (Euclidean distance, ties broken by
lower index). Hyperedge weights come from a Gaussian kernel on distances.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# the loops themselves: a traced mlp_forward would count HGNN calls as MLP's
from .numcore import (DimensionError, _layers, _layers_backward,
                      pairwise_sq_dist)


@dataclass
class HypergraphTopology:
    incidence: np.ndarray      # (..., N, N) binary, H[v, e]
    edge_weights: np.ndarray   # (..., N) positive, diagonal of W
    vertex_degrees: np.ndarray  # (..., N) Dv(v) = sum_e W(e) H(v, e)
    edge_degrees: np.ndarray   # (..., N) De(e) = sum_v H(v, e)


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
    upper.sort(axis=-1)
    # sqrt is monotone: the middle squared distances give the middle distances
    if (upper[:, [0, -1]] > 0.0).all():
        # no zero and no NaN: every slice's middle pair is the triangle's
        lo, hi = (upper.shape[1] - 1) // 2, upper.shape[1] // 2
        mid = np.sqrt(upper[:, lo]) + np.sqrt(upper[:, hi])
    else:
        positive = upper > 0.0
        count = np.add.reduce(positive, axis=-1)
        upper[~positive] = np.inf  # zeros (and NaNs) sort after the positives
        upper.sort(axis=-1)
        rows = np.arange(len(upper))
        mid = (np.sqrt(upper[rows, (count - 1) // 2])
               + np.sqrt(upper[rows, count // 2]))
    # a slice without a positive distance reads inf at both positions
    mid /= 2.0
    return mid.reshape(d2.shape[:-2])


def _stable_incidence(d2, k):
    """H of the k-NN hyperedges of each slice of d2 (..., n, n), k < n, by
    a stable sort of every row: equal distances keep ascending index
    order, and row v drops its own vertex (wherever a duplicate put it)
    and keeps the first k others, which become column v of H."""
    n = d2.shape[-1]
    order = np.argsort(d2, axis=-1, kind="stable")
    cols = np.arange(n)
    members = order[order != cols[:, None]].reshape(-1, n, n - 1)[..., :k]
    h = np.zeros(d2.shape)
    slices = h.reshape(-1, n, n)
    slices[np.arange(len(slices))[:, None, None], members,
           cols[:, None]] = 1.0
    h[..., cols, cols] = 1.0
    return h


def build_knn_hypergraph(features, k, cfg):
    """One hyperedge per vertex over its k nearest neighbors, for each
    (N, d) slice of features (..., N, d) on its own.

    Edge weight is the mean Gaussian affinity between the centroid vertex
    and the hyperedge members (self included, contributing 1). The
    bandwidth follows the ExperimentConfig cfg: the median of the slice's
    positive pairwise distances, or cfg.fixed_sigma when cfg.bandwidth_mode
    is "fixed". All-identical features degrade to unit weights. k is
    explicit because the UE and EC hypergraphs use different counts.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] < 1:
        raise DimensionError(
            f"features must be a non-empty (..., n, d) array, got {x.shape}")
    n = x.shape[-2]

    d2 = pairwise_sq_dist(x)
    if k >= n:
        h = np.ones(d2.shape)
    else:
        # hyperedge v is v and its first k others in (distance, index)
        # order. Each row's k + 1 smallest distances include its own 0,
        # and where no other distance ties the (k + 1)-th they are the
        # row's entries up to it: a partition finds that distance without
        # sorting the row
        kth = np.partition(d2, k, axis=-1)[..., k:k + 1]
        within = d2 <= kth
        if (np.add.reduce(within, axis=-1) == k + 1).all():
            h = np.ascontiguousarray(within.mT, dtype=np.float64)
        else:
            h = _stable_incidence(d2, k)
    if cfg.bandwidth_mode == "fixed":
        sigma = np.full(d2.shape[:-2], cfg.fixed_sigma)
    else:
        sigma = median_bandwidth(d2)
    # a slice without a positive distance is all zeros and gets an infinite
    # bandwidth, so each of its affinities is exp(-0) = 1
    sigma = sigma[..., None, None]
    affinity = np.negative(d2, out=d2)
    affinity /= 2.0 * sigma * sigma
    np.exp(affinity, out=affinity)
    # every hyperedge has min(k + 1, n) members, an exact count
    size = float(min(k + 1, n))
    edge_sizes = np.full(d2.shape[:-1], size)
    # mean affinity from centroid e to its members: column e of H marks them.
    # vecdot reduces each row pair with the same strided dot as
    # affinity[e, :] @ h[:, e]; a sum, einsum or matmul over a contiguous
    # copy of H^T rounds differently and flips k-NN ties downstream
    edge_weights = np.vecdot(affinity, h.mT)
    edge_weights /= size
    # a matmul against a column, not vecdot or einsum, has the bits of h @ w
    vertex_degrees = np.matmul(h, edge_weights[..., None])[..., 0]
    return HypergraphTopology(h, edge_weights, vertex_degrees, edge_sizes)


def normalized_operator(t):
    """S = Dv^{-1/2} H W De^{-1} H^T Dv^{-1/2} per slice, (..., N, N);
    symmetric PSD, eigmax <= 1."""
    if t.vertex_degrees.min() <= 0.0 or t.edge_degrees.min() <= 0.0:
        raise ValueError("topology has a zero degree")
    dv_isqrt = 1.0 / np.sqrt(t.vertex_degrees)
    hw = t.incidence * (t.edge_weights / t.edge_degrees)[..., None, :]
    hw *= dv_isqrt[..., :, None]
    s = hw @ (t.incidence.mT * dv_isqrt[..., None, :])
    # 0.5 * (S + S^T) into the spent left factor
    out = np.add(s, s.mT, out=hw)
    out *= 0.5
    return out


def add_hgnn(layout, prefix, dims):
    """Append an L-layer HGNN block to a Layout: bias-free, ReLU on the
    hidden layers and linear on the last."""
    return layout.add(prefix, dims, ["relu"] * (len(dims) - 2) + ["linear"],
                      bias=False)


def hgnn_forward(params, prefix, x, s):
    """X <- sigma(S X Theta) per layer of block prefix, for a signal x
    (..., N, d) and an operator s (..., N, N) slice by slice, with stacked
    params (K models) on x (K, N, d) slice k with model k: numcore's layer
    loop with the operator applied first. Returns (output, (s, cache))."""
    cache = []
    return _layers(params, prefix, x, cache, s), (s, cache)


def hgnn_backward(params, prefix, cache, grad_output, grads):
    """Writes the gradient of every theta of block prefix into its view of
    grads (stacked as params is) and returns the input signal's gradient;
    S is a constant."""
    s, per_layer = cache
    return _layers_backward(params, prefix, per_layer, grad_output, grads,
                            s=s)
