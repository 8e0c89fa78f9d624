"""Uncertainty estimation block.

Pipeline: compact MLP -> batch hypergraph -> HGNN relational features ->
concat -> personalized estimator -> per-sample uncertainty weight beta.
Also houses the weight regularization loss on the certain/uncertain split
and the logit-weighted cross-entropy loss.
"""

from __future__ import annotations

import math

import numpy as np

from . import hypergraph
from .hypergraph import build_knn_hypergraph, normalized_operator
from .numcore import mlp_backward, mlp_forward, softmax_rows


def add_ue(layout, in_dim, compact_dim, relational_dim, estimator_hidden,
           hgnn_layers):
    """Append the UE blocks to a Layout: the compact MLP d -> d_c and the
    HGNN d_c -> d_r are shared; the estimator d_c + d_r -> h -> 1 (PReLU,
    sigmoid) is private, never aggregated, and comes last."""
    layout.add("ue.compact", [in_dim, compact_dim], ["relu"])
    hypergraph.add_hgnn(layout, "ue.hgnn",
                        [compact_dim] + [relational_dim] * hgnn_layers)
    return layout.add("ue.estimator",
                      [compact_dim + relational_dim, estimator_hidden, 1],
                      ["prelu", "sigmoid"], private=True)


def ue_forward(x, params, cfg, operator=None):
    """Run the UE pipeline on a batch x (N, d), or on each batch of a
    stack (..., N, d) on its own; returns (beta, cache) with beta (N,) or
    (..., N) in (0, 1) and the cache ue_backward reads. With stacked
    params (K models), batch k of x (K, N, d) runs with model k. The
    hypergraph takes cfg.neighbor_count neighbors and the bandwidth rule
    of the ExperimentConfig cfg.

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
    return beta, (compact_cache, hgnn_cache, est_cache, c.shape[-1])


def ue_backward(params, cache, grad_beta, grads):
    """Chain rule through estimator, concat, HGNN and compact MLP; writes
    the gradient of every UE tensor into grads and returns the input
    gradient.

    grad_beta is dLoss/dbeta (..., N), one row per batch of the forward
    stack. The compact part accumulates both the direct path and the path
    through the HGNN; the hypergraph operator is treated as a constant of
    the batch.
    """
    compact_cache, hgnn_cache, est_cache, d_c = cache
    g_u = mlp_backward(params, "ue.estimator", est_cache,
                       np.asarray(grad_beta)[..., None], grads)
    g_c_direct = g_u[..., :d_c]
    g_r = g_u[..., d_c:]
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
    if cfg.zeta_mode == "threshold":
        certain = np.flatnonzero(beta < cfg.zeta)
        uncertain = np.flatnonzero(beta >= cfg.zeta)
        return certain, uncertain
    n = beta.size
    order = np.argsort(beta, kind="stable")
    n_certain = min(max(1, math.ceil(cfg.zeta * n)), n - 1)
    return order[:n_certain], order[n_certain:]


def weight_reg_loss(beta, cfg):
    """L_W = max(0, eta - (mean beta_uncertain - mean beta_certain)), with
    the margin eta = cfg.eta and the groups of split_certain_uncertain.

    Returns (loss, grad_beta). A batch that cannot be split into two
    nonempty groups has zero loss and a zero gradient. For a stack of
    batches beta (..., N) each row is split on its own, and loss holds
    one value per row.
    """
    beta = np.asarray(beta, dtype=np.float64)
    grad = np.zeros(beta.shape)
    rows = beta.reshape(-1, beta.shape[-1])
    loss = np.zeros(len(rows))
    for i, (row, row_grad) in enumerate(zip(rows, grad.reshape(rows.shape))):
        loss[i] = _weight_reg_row(row, cfg, row_grad)
    return loss.reshape(beta.shape[:-1])[()], grad


def _weight_reg_row(beta, cfg, grad):
    """weight_reg_loss of one batch beta (N,): returns the loss and
    writes the gradient into grad, zeros where there is none. A batch of
    fewer than two leaves a group empty."""
    certain, uncertain = split_certain_uncertain(beta, cfg)
    if certain.size == 0 or uncertain.size == 0:
        return 0.0
    # a sum over the count is np.mean's own arithmetic
    gap = float(np.add.reduce(beta[uncertain]) / uncertain.size
                - np.add.reduce(beta[certain]) / certain.size)
    loss = max(0.0, cfg.eta - gap)
    if loss > 0.0:
        grad[uncertain] = -1.0 / uncertain.size
        grad[certain] = 1.0 / certain.size
    return loss


def weighted_ce_loss(logits, labels, beta):
    """Logit-weighted cross-entropy: sample i's logits are scaled by
    (1 - beta_i) before softmax-CE; batch mean. Labels are 1-indexed.
    logits (..., N, C), labels and beta (..., N): each batch of a stack
    on its own, with one loss per batch.

    Returns (loss, grad_logits, grad_beta).
    """
    logits = np.asarray(logits, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    n, c = logits.shape[-2:]
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 1 or labels.max() > c):
        raise ValueError(f"labels must lie in 1..{c}")
    scale = (1.0 - beta)[..., None]
    # dz = (p - onehot) / n, in p's buffer
    dz = softmax_rows(scale * logits)
    # flat index of (..., i, y_i)
    target = np.arange(labels.size) * c + (labels.ravel() - 1)
    flat = dz.reshape(-1)
    # a sum over the count is np.mean's own arithmetic
    log_p = np.log(flat[target]).reshape(labels.shape)
    loss = -(np.add.reduce(log_p, axis=-1) / n)
    flat[target] -= 1.0
    dz /= n
    grad_logits = scale * dz
    dz *= logits
    grad_beta = dz.sum(axis=-1)
    np.negative(grad_beta, out=grad_beta)
    return loss, grad_logits, grad_beta
