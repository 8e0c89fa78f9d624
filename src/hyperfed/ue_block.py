"""Uncertainty estimation block.

Pipeline: compact MLP -> batch hypergraph -> HGNN relational features ->
concat -> personalized estimator -> per-sample uncertainty weight beta.
Also houses the weight regularization loss on the certain/uncertain split
and the logit-weighted cross-entropy loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hypergraph, numcore
from .hypergraph import KernelConfig, build_knn_hypergraph, normalized_operator
from .numcore import MlpParams, init_mlp, mlp_backward, mlp_forward, softmax_rows


@dataclass
class UeParams:
    compact_mlp: MlpParams            # d -> d_c
    hgnn_layers: list                 # d_c -> d_r
    estimator: MlpParams              # d_c + d_r -> h -> 1, PReLU + sigmoid
    # the estimator is private: excluded from server aggregation

    def __post_init__(self):
        if self.estimator.out_dim != 1:
            raise ValueError("estimator must output a single weight")
        if self.estimator.activations[-1] != "sigmoid":
            raise ValueError("estimator must end with sigmoid")

    def copy(self):
        return UeParams(self.compact_mlp.copy(),
                        [l.copy() for l in self.hgnn_layers],
                        self.estimator.copy())


def init_ue_params(in_dim, compact_dim, relational_dim, estimator_hidden, rng,
                   n_hgnn_layers=2):
    compact = init_mlp([in_dim, compact_dim], ["relu"], rng)
    layers = hypergraph.init_hgnn_layers(
        [compact_dim] + [relational_dim] * n_hgnn_layers, rng)
    estimator = init_mlp([compact_dim + relational_dim, estimator_hidden, 1],
                         ["prelu", "sigmoid"], rng)
    return UeParams(compact, layers, estimator)


@dataclass
class UncertaintyOutputs:
    beta: np.ndarray       # (..., N) in (0, 1)
    features: np.ndarray   # (..., N, d_c + d_r) concatenated uncertainty feature
    compact: np.ndarray
    relational: np.ndarray


def ue_forward(x, params, cfg, operator=None):
    """Run the UE pipeline on a batch x (N, d), or on each batch of a
    stack (..., N, d) on its own; beta is then (..., N).

    operator overrides the hypergraph operator built from the compact
    features; gradient checks use it to freeze the (non-differentiable)
    topology.
    """
    c, compact_cache = mlp_forward(params.compact_mlp, x)
    if operator is None:
        topo = build_knn_hypergraph(c, cfg)
        operator = normalized_operator(topo)
    r, hgnn_cache = hypergraph.hgnn_forward(c, operator, params.hgnn_layers)
    u = np.concatenate([c, r], axis=-1)
    beta_col, est_cache = mlp_forward(params.estimator, u)
    # sigmoid saturates to exactly 0/1 in float64; keep beta strictly inside
    beta = np.clip(beta_col[..., 0], 1e-15, 1.0 - 1e-15)
    out = UncertaintyOutputs(beta=beta, features=u,
                             compact=c, relational=r)
    cache = (compact_cache, hgnn_cache, est_cache, c.shape[-1])
    return out, cache


def ue_backward(params, cache, grad_beta, grad_u=None):
    """Chain rule through estimator, concat, HGNN and compact MLP.

    grad_beta is dLoss/dbeta (N,); grad_u lets feature consumers push extra
    gradient into the concatenated uncertainty feature. The compact part
    accumulates both the direct path and the path through the HGNN; the
    hypergraph operator is treated as a constant of the batch.
    """
    compact_cache, hgnn_cache, est_cache, d_c = cache
    grad_est, g_u = mlp_backward(params.estimator, est_cache,
                                 np.asarray(grad_beta)[:, None])
    if grad_u is not None:
        g_u = g_u + grad_u
    g_c_direct = g_u[:, :d_c]
    g_r = g_u[:, d_c:]
    grad_thetas, g_c_hgnn = hypergraph.hgnn_backward(
        params.hgnn_layers, hgnn_cache, g_r)
    grad_compact, grad_x = mlp_backward(params.compact_mlp, compact_cache,
                                        g_c_direct + g_c_hgnn)
    grads = UeGrads(grad_compact, grad_thetas, grad_est)
    return grads, grad_x


@dataclass
class UeGrads:
    compact_mlp: MlpParams
    hgnn_thetas: list
    estimator: MlpParams


@dataclass
class WeightRegConfig:
    margin: float = 0.2        # eta
    certain_fraction: float = 0.7  # zeta
    mode: str = "fraction"     # "fraction" | "threshold" (absolute beta cut)

    def __post_init__(self):
        if self.margin < 0:
            raise ValueError("margin must be >= 0")
        if not 0.0 < self.certain_fraction < 1.0:
            raise ValueError("certain_fraction must lie in (0, 1)")
        if self.mode not in ("fraction", "threshold"):
            raise ValueError(f"unknown split mode {self.mode!r}")


def split_certain_uncertain(beta, cfg):
    """Indices of the certain (low beta) and uncertain (high beta) groups.

    Fraction mode: sort ascending (stable, so equal betas keep index
    order) and take the first ceil(zeta*N) as certain, clamped so both
    groups stay nonempty. Threshold mode: certain iff beta < zeta.
    """
    beta = np.asarray(beta)
    n = beta.size
    order = np.argsort(beta, kind="stable")
    if cfg.mode == "threshold":
        certain = np.flatnonzero(beta < cfg.certain_fraction)
        uncertain = np.flatnonzero(beta >= cfg.certain_fraction)
        return certain, uncertain
    n_certain = min(max(1, math.ceil(cfg.certain_fraction * n)), n - 1)
    return order[:n_certain], order[n_certain:]


def weight_reg_loss(beta, cfg):
    """L_W = max(0, eta - (mean beta_uncertain - mean beta_certain)).

    Returns (loss, grad_beta, ok). ok is False when the batch cannot be
    split into two nonempty groups; loss and gradient are then zero.
    """
    beta = np.asarray(beta, dtype=np.float64)
    n = beta.size
    grad = np.zeros(n)
    if n < 2:
        return 0.0, grad, False
    certain, uncertain = split_certain_uncertain(beta, cfg)
    if certain.size == 0 or uncertain.size == 0:
        return 0.0, grad, False
    gap = float(np.mean(beta[uncertain]) - np.mean(beta[certain]))
    loss = max(0.0, cfg.margin - gap)
    if loss > 0.0:
        grad[uncertain] = -1.0 / uncertain.size
        grad[certain] = 1.0 / certain.size
    return loss, grad, True


def weighted_ce_loss(logits, labels, beta):
    """Logit-weighted cross-entropy: sample i's logits are scaled by
    (1 - beta_i) before softmax-CE; batch mean. Labels are 1-indexed.

    Returns (loss, grad_logits, grad_beta).
    """
    logits = np.asarray(logits, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    n, c = logits.shape
    labels = np.asarray(labels, dtype=np.int64)
    if np.any(labels < 1) or np.any(labels > c):
        raise ValueError(f"labels must lie in 1..{c}")
    y = labels - 1
    scale = (1.0 - beta)[:, None]
    p = softmax_rows(scale * logits)
    rows = np.arange(n)
    loss = float(-np.mean(np.log(p[rows, y])))
    dz = p.copy()
    dz[rows, y] -= 1.0
    dz /= n
    grad_logits = scale * dz
    grad_beta = -np.sum(dz * logits, axis=1)
    return loss, grad_logits, grad_beta
