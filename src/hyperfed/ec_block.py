"""Expression classification block: feature MLP + linear classifier,
closed-form hypergraph label propagation, and the label refinement rule.

Class labels are 1-indexed at every public boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypergraph import build_knn_hypergraph, normalized_operator
from .numcore import mlp_backward, mlp_forward, softmax_rows, solve_linear


def add_ec(layout, in_dim, expr_dim, n_classes):
    """Append the EC blocks to a Layout: the expression MLP d -> d_e and
    the linear classifier d_e -> C."""
    layout.add("ec.expr", [in_dim, expr_dim], ["relu"])
    return layout.add("ec.classifier", [expr_dim, n_classes], ["linear"])


@dataclass
class RefineConfig:
    threshold: float  # delta: minimum uncertainty weight to relabel


def propagation_system(features, cfg):
    """System matrix A (..., N, N) = I + (1/lambda)(I - Delta) of the
    closed form for features (..., N, d). Delta is the normalized operator
    of the features' hypergraph over k = cfg.ec_neighbor_count neighbors
    and lambda = cfg.prop_lambda, both read from the ExperimentConfig."""
    topo = build_knn_hypergraph(features, cfg.ec_neighbor_count, cfg)
    # I + (I - Delta) / lambda, in the fresh operator's buffer
    a = normalized_operator(topo)
    eye = np.eye(a.shape[-1])
    np.subtract(eye, a, out=a)
    a /= cfg.prop_lambda
    a += eye
    return a


def label_propagate(features, y_onehot, cfg):
    """Closed-form propagation scores: solve A F = Y (A is SPD since the
    operator's eigenvalues lie in [0, 1]) for features (..., N, d) and
    Y (..., N, C), one dense solve per (N, N) system; cfg is the
    ExperimentConfig that propagation_system reads."""
    y = np.asarray(y_onehot, dtype=np.float64)
    a = propagation_system(features, cfg)
    n = a.shape[-1]
    systems = zip(a.reshape(-1, n, n), y.reshape(-1, n, y.shape[-1]))
    return np.stack([solve_linear(a_i, y_i)
                     for a_i, y_i in systems]).reshape(y.shape)


def one_hot(labels, n_classes):
    """(..., N) 1-indexed labels -> (..., N, C) indicator rows."""
    labels = np.asarray(labels, dtype=np.int64)
    if np.any(labels < 1) or np.any(labels > n_classes):
        raise ValueError(f"labels must lie in 1..{n_classes}")
    return (labels[..., None] == np.arange(1, n_classes + 1)).astype(np.float64)


def scores_to_labels(scores):
    """Softmax probabilities and 1-indexed argmax labels (ties -> lowest)
    of scores (..., N, C)."""
    probs = softmax_rows(scores)
    labels = np.argmax(probs, axis=-1) + 1
    return probs, labels


def refine_labels(beta, l_prop, l_pred, y_orig, cfg):
    """Adopt the joint label where beta >= delta and the propagated and
    classifier labels agree; otherwise keep the original label.

    The inputs share one shape (..., N). Returns (refined, changes) with
    changes = [(index, old, new), ...], index counting in the flattened
    (C) order of the inputs.
    """
    beta = np.asarray(beta)
    l_prop = np.asarray(l_prop, dtype=np.int64)
    l_pred = np.asarray(l_pred, dtype=np.int64)
    y_orig = np.asarray(y_orig, dtype=np.int64)
    if not (beta.shape == l_prop.shape == l_pred.shape == y_orig.shape):
        raise ValueError("refine_labels: input shapes differ")
    fire = (beta >= cfg.threshold) & (l_prop == l_pred)
    refined = np.where(fire, l_prop, y_orig)
    old, new = y_orig.ravel(), refined.ravel()
    changes = [(int(i), int(old[i]), int(new[i]))
               for i in np.flatnonzero(new != old)]
    return refined, changes


def ec_forward(x, params):
    """logits = classifier(expr_mlp(x)) for x (..., N, d); also returns
    the expression features e (for prototypes and propagation) and a
    backward cache."""
    e, expr_cache = mlp_forward(params, "ec.expr", x)
    logits, clf_cache = mlp_forward(params, "ec.classifier", e)
    return logits, e, (expr_cache, clf_cache)


def ec_backward(params, cache, grad_logits, grads, grad_e=None):
    """Writes the gradient of every EC tensor into grads and returns the
    input gradient. grad_e carries extra gradient pushed into the
    expression features (prototype loss)."""
    expr_cache, clf_cache = cache
    g_e = mlp_backward(params, "ec.classifier", clf_cache, grad_logits, grads)
    if grad_e is not None:
        g_e += grad_e
    return mlp_backward(params, "ec.expr", expr_cache, g_e, grads)
