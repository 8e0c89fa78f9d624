"""The acceptance gate's oracles, one copy of each.

Each criterion function recomputes an exact piece of the method by an
independent route on the gate's fixed instances and returns (ok, detail).
`hyperfed check` runs all five (cli.cmd_check); tests/test_acceptance.py
calls the same functions and adds its own wall-time limits. Every subject
is looked up through its module at call time, so a patched module is what
a check sees.
"""

from __future__ import annotations

import numpy as np

from . import data, ec_block, federation, hypergraph, numcore, ue_block
from .config import METHODS, ExperimentConfig


def finite_diff_grad(loss_fn, theta, h=1e-5):
    """Central-difference gradient of a scalar function of a flat vector."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += h
        tm[i] -= h
        grad[i] = (loss_fn(tp) - loss_fn(tm)) / (2.0 * h)
    return grad


def rel_err(analytic, reference):
    """Largest error of analytic relative to reference, whose magnitudes
    are floored at 1e-6."""
    analytic, reference = np.asarray(analytic), np.asarray(reference)
    return float(np.max(np.abs(analytic - reference)
                        / np.maximum(np.abs(reference), 1e-6)))


def richardson_solve(a, y):
    """Independent iterative solution of a x = y for SPD a with
    eigenvalues in [1, 1 + 2/lambda]: damped Richardson iteration, to a
    residual below 1e-13 or 100,000 steps."""
    ev_hi = np.linalg.eigvalsh(a)[-1]
    omega = 2.0 / (1.0 + ev_hi)
    x = np.zeros_like(y)
    for _ in range(100000):
        r = y - a @ x
        if np.max(np.abs(r)) < 1e-13:
            break
        x = x + omega * r
    return x


def power_eigmax(s):
    """Dominant eigenvalue of s by 500 steps of power iteration."""
    rng = numcore.child_rng(300, "power")
    v = rng.standard_normal(s.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(500):
        w = s @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        lam = float(v @ (s @ v))
    return lam


def propagation():
    """Criterion 1: closed-form label propagation against an explicit
    inverse and an iterative solver."""
    worst = 0.0
    for i in range(50):
        rng = numcore.child_rng(100, "acc1", i)
        n = int(rng.integers(3, 51))
        c = int(rng.integers(2, 9))
        lam = [0.1, 1.0, 10.0][i % 3]
        feats = rng.standard_normal((n, 4))
        y = ec_block.one_hot(rng.integers(1, c + 1, size=n), c)
        cfg = ExperimentConfig(ec_neighbor_count=int(rng.integers(1, 6)),
                               prop_lambda=lam)
        closed = ec_block.label_propagate(feats, y, cfg)
        a = ec_block.propagation_system(feats, cfg)
        by_inv = np.linalg.inv(a) @ y
        by_iter = richardson_solve(a, y)
        worst = max(worst, np.max(np.abs(closed - by_inv)),
                    np.max(np.abs(closed - by_iter)))
    return worst <= 1e-8, (
        f"closed form vs inverse and iterative solver over 50 instances, "
        f"max abs err {worst:.3g} (limit 1e-8)")


def _layers_err(forward, backward, params, prefix, w, *inputs):
    """Criterion 2's error for one block of layers: backward's gradient of
    sum(w * forward(params, prefix, *inputs)) against finite differences."""
    def loss_of(v):
        out, _ = forward(numcore.Params(params.layout, v), prefix, *inputs)
        return float(np.sum(w * out))

    _, cache = forward(params, prefix, *inputs)
    grads = numcore.Params(params.layout)
    backward(params, prefix, cache, w, grads)
    return rel_err(grads.vector, finite_diff_grad(loss_of, params.vector))


def _step_err(method, seed):
    """Criterion 2's error for one whole training step of method: the
    gradient federation._batch_step leaves behind at learning rate 1, on
    a stack of one client and 8 rows, against central differences of
    the total loss its METHODS row names, over the method's whole model.
    The UE topology is frozen at the compact features of the start point.
    The parameters are drawn from N(0, 0.5^2): init_model's zero biases
    put a row of zero inputs exactly on a ReLU kink."""
    cfg = ExperimentConfig(method=method, learning_rate=1.0, classes=3,
                           feature_dim=4, backbone_dim=5, compact_dim=4,
                           relational_dim=4, estimator_hidden=3, expr_dim=4,
                           neighbor_count=3)
    ue, weight_reg, _ = METHODS[method]
    rng = numcore.child_rng(200, "step", method, seed)
    layout = federation.model_layout(cfg)
    theta = rng.normal(0.0, 0.5, layout.size)
    labels = rng.integers(1, cfg.classes + 1, size=(1, 8))
    ds = data.Dataset(rng.standard_normal((8, cfg.feature_dim)), labels[0],
                      labels[0], cfg.classes)
    server = federation.ServerState(
        shared=theta[:layout.n_shared],
        prototypes=rng.standard_normal((cfg.classes, cfg.expr_dim)),
        proto_present=np.ones(cfg.classes, dtype=bool))
    x = ds.features[None]
    p = numcore.Params(layout, theta[None].copy())
    if ue:
        compact = numcore.forward(p, ("backbone", "ue.compact"), x)
        s = hypergraph.normalized_operator(hypergraph.build_knn_hypergraph(
            compact, cfg.neighbor_count, cfg))
    grads = numcore.Params(layout, np.zeros((1, layout.size)))
    federation._batch_step(p, grads, ds, np.arange(8)[None], labels, [0],
                           server, cfg)

    def loss_of(vector):
        p.vector[0] = vector
        deep, _ = numcore.mlp_forward(p, "backbone", x)
        beta = ue_block.ue_forward(deep, p, cfg, operator=s)[0] if ue \
            else np.zeros(labels.shape)
        logits, e, _ = ec_block.ec_forward(deep, p)
        total = ue_block.weighted_ce_loss(logits, labels, beta)[0][0]
        if weight_reg:
            total += cfg.lambda1 * ue_block.weight_reg_loss(beta, cfg)[0][0]
        protos, present, _ = federation.batch_prototypes(e[0], labels[0],
                                                         cfg.classes)
        return total + cfg.lambda2 * federation.prototype_loss(
            protos, present, server.prototypes, server.proto_present)[0]

    return rel_err(grads.vector[0], finite_diff_grad(loss_of, theta))


def gradients():
    """Criterion 2: the hand-written gradients of the weighted
    cross-entropy, the weight regularizer, the prototype loss, MLP layers,
    HGNN layers and a whole training step of each method against central
    finite differences."""
    worst = dict.fromkeys(["wce", "wreg", "proto", "mlp", "hgnn", "step"],
                          0.0)

    for i in range(20):  # weighted cross-entropy
        rng = numcore.child_rng(200, "wce", i)
        n, c = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        logits = rng.standard_normal((n, c))
        labels = rng.integers(1, c + 1, size=n)
        beta = rng.uniform(0.05, 0.95, size=n)
        _, gl, gb = ue_block.weighted_ce_loss(logits, labels, beta)
        fd_l = finite_diff_grad(
            lambda v: ue_block.weighted_ce_loss(v.reshape(n, c), labels,
                                                beta)[0], logits.ravel())
        fd_b = finite_diff_grad(
            lambda v: ue_block.weighted_ce_loss(logits, labels, v)[0], beta)
        worst["wce"] = max(worst["wce"], rel_err(gl.ravel(), fd_l),
                           rel_err(gb, fd_b))

    checked = 0  # weight regularization, away from the kink and sort ties
    i = 0
    cfg_w = ExperimentConfig(eta=0.9, zeta=0.5)
    while checked < 20:
        rng = numcore.child_rng(200, "wreg", i)
        i += 1
        beta = np.sort(rng.uniform(0.05, 0.95, size=6))
        if np.min(np.diff(beta)) < 0.02:
            continue  # too close to a sort tie for clean finite differences
        loss, grad = ue_block.weight_reg_loss(beta, cfg_w)
        if not 0.02 < loss < cfg_w.eta - 0.02:
            continue  # keep clear of the hinge kink
        fd = finite_diff_grad(
            lambda v: ue_block.weight_reg_loss(v, cfg_w)[0], beta)
        worst["wreg"] = max(worst["wreg"], rel_err(grad, fd))
        checked += 1

    for i in range(20):  # prototype alignment loss
        rng = numcore.child_rng(200, "proto", i)
        c, d = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        local = rng.standard_normal((c, d))
        glob = rng.standard_normal((c, d))
        present = rng.uniform(size=c) < 0.8
        if not present.any():
            present[0] = True
        everywhere = np.ones(c, dtype=bool)
        _, grad = federation.prototype_loss(local, present, glob, everywhere)
        fd = finite_diff_grad(
            lambda v: federation.prototype_loss(
                v.reshape(c, d), present, glob, everywhere)[0],
            local.ravel())
        worst["proto"] = max(worst["proto"], rel_err(grad.ravel(), fd))

    for i in range(20):  # plain MLP layers
        rng = numcore.child_rng(200, "mlp", i)
        mlp = numcore.init_params(numcore.Layout().add(
            "mlp", [3, 4, 2], ["prelu", "sigmoid"]), rng)
        x = rng.standard_normal((5, 3))
        w = rng.standard_normal((5, 2))
        worst["mlp"] = max(worst["mlp"], _layers_err(
            numcore.mlp_forward, numcore.mlp_backward, mlp, "mlp", w, x))

    for i in range(20):  # HGNN layers with a fixed operator
        rng = numcore.child_rng(200, "hgnn", i)
        n = int(rng.integers(3, 8))
        layers = numcore.init_params(
            hypergraph.add_hgnn(numcore.Layout(), "h", [3, 4, 3]), rng)
        x = rng.standard_normal((n, 3))
        s = hypergraph.normalized_operator(hypergraph.build_knn_hypergraph(
            rng.standard_normal((n, 2)), 2, ExperimentConfig()))
        w = rng.standard_normal((n, 3))
        worst["hgnn"] = max(worst["hgnn"], _layers_err(
            hypergraph.hgnn_forward, hypergraph.hgnn_backward, layers, "h",
            w, x, s))

    for method in METHODS:  # whole training steps
        for i in range(5):
            worst["step"] = max(worst["step"], _step_err(method, i))

    detail = " ".join(f"{k}={v:.2g}" for k, v in sorted(worst.items()))
    return max(worst.values()) <= 1e-4, (
        f"max relative error vs finite differences {detail} (limit 1e-4)")


def spectrum():
    """Criterion 3: the normalized hypergraph operator is symmetric with
    eigenvalues at most 1, so the propagation system's are at least 1."""
    worst_sym, worst_eig, worst_sys = 0.0, 0.0, np.inf
    for i in range(100):
        rng = numcore.child_rng(300, "topo", i)
        n = int(rng.integers(2, 40))
        feats = rng.standard_normal((n, int(rng.integers(2, 6))))
        k = int(rng.integers(1, 12))
        s = hypergraph.normalized_operator(hypergraph.build_knn_hypergraph(
            feats, k, ExperimentConfig()))
        worst_sym = max(worst_sym, float(np.max(np.abs(s - s.T))))
        worst_eig = max(worst_eig, power_eigmax(s))
        a = np.eye(n) + (np.eye(n) - s)  # propagation system at trade-off 1
        worst_sys = min(worst_sys, float(np.linalg.eigvalsh(a)[0]))
    ok = worst_sym <= 1e-10 and worst_eig <= 1.0 + 1e-8 \
        and worst_sys >= 1.0 - 1e-8
    return ok, (
        f"100 topologies: max asymmetry {worst_sym:.2g} (limit 1e-10), "
        f"max eigenvalue {worst_eig:.10f} (limit 1+1e-8), "
        f"min system eigenvalue {worst_sys:.10f} (floor 1-1e-8)")


def aggregation():
    """Criterion 5: aggregation arithmetic on crafted updates."""
    def aggregate(mode, shared, counts, protos=None, present=None):
        k = len(shared)
        protos = np.zeros((k, 2, 2)) if protos is None else protos
        present = np.zeros((k, 2), dtype=bool) if present is None else present
        server = federation.ServerState(
            shared=np.zeros(len(shared[0])), prototypes=np.zeros((2, 2)),
            proto_present=np.zeros(2, dtype=bool))
        federation.aggregate(server, [
            federation.ClientUpdate(i, np.array(v, dtype=np.float64), p, m, n)
            for i, (v, n, p, m) in enumerate(zip(shared, counts, protos,
                                                 present))], mode)
        return server

    out = aggregate("uniform", [[1.0, 8.0], [3.0, 2.0], [5.0, 2.0]],
                    [1, 1, 1])
    errs = [np.max(np.abs(out.shared - [3.0, 4.0]))]
    out = aggregate("data-size", [[1.0], [4.0], [7.0]], [1, 2, 1])
    errs.append(abs(out.shared[0] - 4.0))  # (1*1 + 2*4 + 1*7) / 4
    out = aggregate("data-size", [[1.0], [4.0], [7.0]], [2, 1, 1])
    errs.append(abs(out.shared[0] - 3.25))  # uniform weights would give 4

    out = aggregate("data-size", [[0.0], [0.0]], [1, 3],
                    np.array([[[2.0, 2.0], [9.0, 9.0]],
                              [[6.0, 6.0], [0.0, 0.0]]]),
                    np.array([[True, True], [True, False]]))
    errs.append(np.max(np.abs(out.prototypes[0] - [5.0, 5.0])))  # 1/4, 3/4
    errs.append(np.max(np.abs(out.prototypes[1] - [9.0, 9.0])))  # only c0
    worst = max(float(e) for e in errs)
    return worst <= 1e-12, (
        f"uniform mean, data-size weighting (two cases) and prototype "
        f"renormalization exact to {worst:.2g} (limit 1e-12)")


def refinement():
    """Criterion 6: the refinement rule's exhaustive truth table."""
    cfg = ec_block.RefineConfig(threshold=0.6)
    deviations = 0
    cases = 0
    for beta in (0.2, 0.6, 0.95):
        for lp in (1, 2, 3):
            for ls in (1, 2, 3):
                for orig in (1, 2, 3):
                    refined, changes = ec_block.refine_labels(
                        [beta], [lp], [ls], [orig], cfg)
                    want = lp if (beta >= 0.6 and lp == ls) else orig
                    cases += 1
                    if refined[0] != want:
                        deviations += 1
                    if bool(changes) != (want != orig):
                        deviations += 1
    return deviations == 0, (
        f"exhaustive truth table ({cases} cases): {deviations} deviations")


# the checks `hyperfed check` runs, by the names it prints
CHECKS = [
    ("label propagation closed form vs explicit inverse", propagation),
    ("hypergraph operator symmetry and spectral bound", spectrum),
    ("weighted CE, weight reg, prototype, MLP, HGNN and whole-step "
     "analytic gradients", gradients),
    ("label refinement truth table", refinement),
    ("weighted aggregation hand case", aggregation),
]
