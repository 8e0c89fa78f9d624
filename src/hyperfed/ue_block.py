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

from . import hypergraph
from .hypergraph import build_knn_hypergraph, normalized_operator
from .numcore import mlp_backward, mlp_forward


def add_ue(layout, in_dim, compact_dim, relational_dim, estimator_hidden,
           n_hgnn_layers=2):
    """Append the UE blocks to a Layout: the compact MLP d -> d_c and the
    HGNN d_c -> d_r are shared; the estimator d_c + d_r -> h -> 1 (PReLU,
    sigmoid) is private, never aggregated, and comes last."""
    layout.add("ue.compact", [in_dim, compact_dim], ["relu"])
    hypergraph.add_hgnn(layout, "ue.hgnn",
                        [compact_dim] + [relational_dim] * n_hgnn_layers)
    return layout.add("ue.estimator",
                      [compact_dim + relational_dim, estimator_hidden, 1],
                      ["prelu", "sigmoid"], private=True)


@dataclass
class UncertaintyOutputs:
    beta: np.ndarray       # (..., N) in (0, 1)
    features: np.ndarray   # (..., N, d_c + d_r) concatenated uncertainty feature
    compact: np.ndarray
    relational: np.ndarray


def ue_forward(x, params, cfg, operator=None):
    """Run the UE pipeline on a batch x (N, d), or on each batch of a
    stack (..., N, d) on its own; beta is then (..., N). The hypergraph
    takes cfg.neighbor_count neighbors and the bandwidth rule of the
    ExperimentConfig cfg.

    operator overrides the hypergraph operator built from the compact
    features; gradient checks use it to freeze the (non-differentiable)
    topology.
    """
    c, compact_cache = mlp_forward(params, "ue.compact", x)
    if operator is None:
        topo = build_knn_hypergraph(c, cfg.neighbor_count, cfg)
        operator = normalized_operator(topo)
    r, hgnn_cache = hypergraph.hgnn_forward(params, "ue.hgnn", c, operator)
    u = np.concatenate([c, r], axis=-1)
    beta_col, est_cache = mlp_forward(params, "ue.estimator", u)
    # sigmoid saturates to exactly 0/1 in float64; keep beta strictly inside
    beta = np.maximum(beta_col[..., 0], 1e-15)  # np.clip's bits, fewer calls
    np.minimum(beta, 1.0 - 1e-15, out=beta)
    out = UncertaintyOutputs(beta=beta, features=u,
                             compact=c, relational=r)
    cache = (compact_cache, hgnn_cache, est_cache, c.shape[-1])
    return out, cache


def ue_backward(params, cache, grad_beta, grads):
    """Chain rule through estimator, concat, HGNN and compact MLP; writes
    the gradient of every UE tensor into grads and returns the input
    gradient.

    grad_beta is dLoss/dbeta (N,). The compact part accumulates both the
    direct path and the path through the HGNN; the hypergraph operator is
    treated as a constant of the batch.
    """
    compact_cache, hgnn_cache, est_cache, d_c = cache
    g_u = mlp_backward(params, "ue.estimator", est_cache,
                       np.asarray(grad_beta)[:, None], grads)
    g_c_direct = g_u[:, :d_c]
    g_r = g_u[:, d_c:]
    g_c_hgnn = hypergraph.hgnn_backward(params, "ue.hgnn", hgnn_cache, g_r,
                                        grads)
    g_c_hgnn += g_c_direct
    return mlp_backward(params, "ue.compact", compact_cache, g_c_hgnn, grads)


def split_certain_uncertain(beta, cfg):
    """Indices of the certain (low beta) and uncertain (high beta) groups,
    split by cfg.zeta_mode and cfg.zeta of the ExperimentConfig cfg.

    Fraction mode: sort ascending (stable, so equal betas keep index
    order) and take the first ceil(zeta*N) as certain, clamped so both
    groups stay nonempty. Threshold mode: certain iff beta < zeta.
    """
    beta = np.asarray(beta)
    n = beta.size
    order = np.argsort(beta, kind="stable")
    if cfg.zeta_mode == "threshold":
        certain = np.flatnonzero(beta < cfg.zeta)
        uncertain = np.flatnonzero(beta >= cfg.zeta)
        return certain, uncertain
    n_certain = min(max(1, math.ceil(cfg.zeta * n)), n - 1)
    return order[:n_certain], order[n_certain:]


def weight_reg_loss(beta, cfg):
    """L_W = max(0, eta - (mean beta_uncertain - mean beta_certain)), with
    the margin eta = cfg.eta and the groups of split_certain_uncertain.

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
    # a sum over the count is np.mean's own arithmetic
    gap = float(np.add.reduce(beta[uncertain]) / uncertain.size
                - np.add.reduce(beta[certain]) / certain.size)
    loss = max(0.0, cfg.eta - gap)
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
    if labels.size and (labels.min() < 1 or labels.max() > c):
        raise ValueError(f"labels must lie in 1..{c}")
    scale = (1.0 - beta)[:, None]
    # softmax_rows(scale * logits), then dz = (p - onehot) / n, in place
    dz = scale * logits
    dz -= dz.max(axis=-1, keepdims=True)
    np.exp(dz, out=dz)
    dz /= dz.sum(axis=-1, keepdims=True)
    target = np.arange(n) * c + (labels - 1)  # flat index of (i, y_i)
    flat = dz.reshape(-1)
    # a sum over the count is np.mean's own arithmetic
    loss = float(-(np.add.reduce(np.log(flat[target])) / n))
    flat[target] -= 1.0
    dz /= n
    grad_logits = scale * dz
    dz *= logits
    grad_beta = dz.sum(axis=1)
    np.negative(grad_beta, out=grad_beta)
    return loss, grad_logits, grad_beta
