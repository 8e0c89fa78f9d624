"""k-NN hypergraph construction and the hypergraph convolution layer.

A batch of N feature vectors yields N hyperedges: each vertex v spawns the
hyperedge {v} + its K nearest neighbors (Euclidean distance, ties broken by
lower index). Hyperedge weights come from a Gaussian kernel on distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    incidence: np.ndarray      # N x N binary, H[v, e]
    edge_weights: np.ndarray   # (N,) positive, diagonal of W
    vertex_degrees: np.ndarray  # (N,) Dv(v) = sum_e W(e) H(v, e)
    edge_degrees: np.ndarray   # (N,) De(e) = sum_v H(v, e)
    clamped: bool = False      # K >= N, hyperedges fell back to all vertices


def build_knn_hypergraph(features, cfg):
    """One hyperedge per vertex over its K nearest neighbors.

    Edge weight is the mean Gaussian affinity between the centroid vertex
    and the hyperedge members (self included, contributing 1). Bandwidth is
    the median of the positive pairwise distances unless a fixed sigma is
    configured. All-identical features degrade to unit weights.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DimensionError(f"features must be a non-empty 2-D array, got {x.shape}")
    n = x.shape[0]
    k = cfg.neighbor_count
    clamped = k >= n

    d2 = pairwise_sq_dist(x)
    h = np.zeros((n, n))
    if clamped:
        h[:, :] = 1.0
    else:
        # argsort is stable on the (distance, index) order we need because
        # equal distances keep ascending index order with kind="stable";
        # each row drops its own vertex (wherever a duplicate put it) and
        # keeps the first k others, which become column v of H
        order = np.argsort(d2, axis=1, kind="stable")
        cols = np.arange(n)
        members = order[order != cols[:, None]].reshape(n, n - 1)[:, :k]
        h[members, cols[:, None]] = 1.0
        h[cols, cols] = 1.0

    dist = np.sqrt(d2)
    positive = dist[dist > 0.0]
    if cfg.bandwidth_mode == "fixed":
        sigma = cfg.fixed_sigma
    elif positive.size:
        sigma = float(np.median(positive))
    else:
        sigma = 0.0  # degenerate: every affinity treated as 1

    if sigma > 0.0:
        affinity = np.exp(-d2 / (2.0 * sigma * sigma))
    else:
        affinity = np.ones_like(d2)
    # mean affinity from centroid e to its members: column e of H marks them.
    # vecdot reduces each row pair with the same strided dot as
    # affinity[e, :] @ h[:, e]; a sum, einsum or matmul over a contiguous
    # copy of H^T rounds differently and flips k-NN ties downstream
    edge_sizes = h.sum(axis=0)
    edge_weights = np.vecdot(affinity, h.T) / edge_sizes

    vertex_degrees = h @ edge_weights
    return HypergraphTopology(n=n, incidence=h, edge_weights=edge_weights,
                              vertex_degrees=vertex_degrees,
                              edge_degrees=edge_sizes, clamped=clamped)


def normalized_operator(t):
    """S = Dv^{-1/2} H W De^{-1} H^T Dv^{-1/2}; symmetric PSD, eigmax <= 1."""
    if np.any(t.vertex_degrees <= 0.0) or np.any(t.edge_degrees <= 0.0):
        raise ValueError("topology has a zero degree")
    dv_isqrt = 1.0 / np.sqrt(t.vertex_degrees)
    hw = t.incidence * (t.edge_weights / t.edge_degrees)[None, :]
    s = (dv_isqrt[:, None] * hw) @ (t.incidence.T * dv_isqrt[None, :])
    return 0.5 * (s + s.T)


@dataclass
class HgnnLayerParams:
    theta: np.ndarray
    activation: str = "relu"  # "relu" | "linear"

    def copy(self):
        return HgnnLayerParams(self.theta.copy(), self.activation)


def init_hgnn_layers(dims, rng):
    """L-layer stack, ReLU on hidden layers and linear on the last."""
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        act = "linear" if i == len(dims) - 2 else "relu"
        layers.append(HgnnLayerParams(
            rng.uniform(-bound, bound, size=(fan_in, fan_out)), act))
    return layers


def hgnn_forward(x, s, layers):
    """X <- sigma(S X Theta) per layer; cache keeps per-layer inputs."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != s.shape[0]:
        raise DimensionError(
            f"signal rows {x.shape[0]} != operator size {s.shape[0]}")
    cache = []
    for layer in layers:
        if x.shape[1] != layer.theta.shape[0]:
            raise DimensionError(
                f"signal cols {x.shape[1]} != theta rows {layer.theta.shape[0]}")
        sx = s @ x
        z = sx @ layer.theta
        out = np.maximum(z, 0.0) if layer.activation == "relu" else z
        cache.append((x, sx, z))
        x = out
    return x, (s, cache)


def hgnn_backward(layers, cache, grad_output):
    """Gradients w.r.t. every theta and the input signal; S is a constant."""
    s, per_layer = cache
    if len(per_layer) != len(layers):
        raise ValueError("cache does not match layer stack")
    grad_thetas = []
    g = np.asarray(grad_output, dtype=np.float64)
    for layer, (x_in, sx, z) in zip(reversed(layers), reversed(per_layer)):
        if layer.activation == "relu":
            dz = g * (z > 0.0)
        else:
            dz = g
        grad_thetas.append(sx.T @ dz)
        g = s.T @ (dz @ layer.theta.T)
    grad_thetas.reverse()
    return grad_thetas, g
