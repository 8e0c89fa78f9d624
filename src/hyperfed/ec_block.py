"""Expression classification block: feature MLP + linear classifier,
closed-form hypergraph label propagation, and the label refinement rule.

Class labels are 1-indexed at every public boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypergraph import KernelConfig, build_knn_hypergraph, normalized_operator
from .numcore import MlpParams, init_mlp, mlp_backward, mlp_forward, \
    softmax_rows, solve_linear
from .ue_block import weighted_ce_loss


@dataclass
class EcParams:
    expr_mlp: MlpParams    # deep feature d -> d_e
    classifier: MlpParams  # single linear layer d_e -> C

    @property
    def n_classes(self):
        return self.classifier.out_dim

    def copy(self):
        return EcParams(self.expr_mlp.copy(), self.classifier.copy())


def init_ec_params(in_dim, expr_dim, n_classes, rng):
    expr = init_mlp([in_dim, expr_dim], ["relu"], rng)
    clf = init_mlp([expr_dim, n_classes], ["linear"], rng)
    return EcParams(expr, clf)


@dataclass
class PropagationConfig:
    trade_off: float = 1.0   # lambda in the closed-form system
    neighbor_count: int = 10
    bandwidth_mode: str = "median"
    fixed_sigma: float = 1.0

    def __post_init__(self):
        if not self.trade_off > 0:
            raise ValueError("trade_off must be positive")

    def kernel(self):
        return KernelConfig(neighbor_count=self.neighbor_count,
                            bandwidth_mode=self.bandwidth_mode,
                            fixed_sigma=self.fixed_sigma)


@dataclass
class RefineConfig:
    threshold: float = 0.6  # delta: minimum uncertainty weight to relabel

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")


def propagation_system(features, cfg):
    """System matrix A = I + (1/lambda)(I - Delta) of the closed form,
    with Delta the normalized hypergraph operator on the features
    (..., N, d); A is (..., N, N)."""
    topo = build_knn_hypergraph(features, cfg.kernel())
    delta = normalized_operator(topo)
    n = delta.shape[-1]
    return np.eye(n) + (np.eye(n) - delta) / cfg.trade_off


def label_propagate(features, y_onehot, cfg):
    """Closed-form propagation scores: solve A F = Y (A is SPD since the
    operator's eigenvalues lie in [0, 1]) for features (..., N, d) and
    Y (..., N, C), one dense solve per (N, N) system."""
    y = np.asarray(y_onehot, dtype=np.float64)
    a = propagation_system(features, cfg)
    n = a.shape[-1]
    systems = zip(a.reshape(-1, n, n), y.reshape(-1, n, y.shape[-1]))
    return np.stack([solve_linear(a_i, y_i, spd=True)
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
    e, expr_cache = mlp_forward(params.expr_mlp, x)
    logits, clf_cache = mlp_forward(params.classifier, e)
    return logits, e, (expr_cache, clf_cache)


def ec_backward(params, cache, grad_logits, grad_e=None):
    """Returns (EcGrads, grad_x). grad_e carries extra gradient pushed into
    the expression features (prototype loss)."""
    expr_cache, clf_cache = cache
    grad_clf, g_e = mlp_backward(params.classifier, clf_cache, grad_logits)
    if grad_e is not None:
        g_e = g_e + grad_e
    grad_expr, grad_x = mlp_backward(params.expr_mlp, expr_cache, g_e)
    return EcGrads(grad_expr, grad_clf), grad_x


@dataclass
class EcGrads:
    expr_mlp: MlpParams
    classifier: MlpParams


def ec_forward_backward(x, params, labels, beta, grad_e_extra=None):
    """Forward + weighted-CE loss + backward in one call.

    Returns (logits, e, loss, grads, grad_x, grad_beta).
    """
    logits, e, cache = ec_forward(x, params)
    loss, grad_logits, grad_beta = weighted_ce_loss(logits, labels, beta)
    grads, grad_x = ec_backward(params, cache, grad_logits, grad_e_extra)
    return logits, e, loss, grads, grad_x, grad_beta
