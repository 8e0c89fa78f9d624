"""Fast built-in invariant checks for the `check` CLI subcommand.

These are smoke-level versions of the oracle suite: each check recomputes
an expected result by an independent route and compares. The pytest suite
is the authoritative, exhaustive version.
"""

from __future__ import annotations

import numpy as np

from . import ec_block, federation, hypergraph, numcore


def check_label_propagation():
    rng = numcore.child_rng(7, "selfcheck-lp")
    for _ in range(5):
        n, c = 12, 4
        feats = rng.standard_normal((n, 6))
        y = ec_block.one_hot(rng.integers(1, c + 1, size=n), c)
        cfg = ec_block.PropagationConfig(
            hypergraph.KernelConfig(neighbor_count=3), trade_off=1.0)
        f_solve = ec_block.label_propagate(feats, y, cfg)
        a = ec_block.propagation_system(feats, cfg)
        f_inv = np.linalg.inv(a) @ y
        if np.max(np.abs(f_solve - f_inv)) > 1e-8:
            return False
    return True


def check_operator_spectrum():
    rng = numcore.child_rng(7, "selfcheck-spec")
    for _ in range(10):
        feats = rng.standard_normal((rng.integers(4, 20), 5))
        topo = hypergraph.build_knn_hypergraph(
            feats, hypergraph.KernelConfig(neighbor_count=3))
        s = hypergraph.normalized_operator(topo)
        if np.max(np.abs(s - s.T)) > 1e-10:
            return False
        if np.max(np.linalg.eigvalsh(s)) > 1.0 + 1e-8:
            return False
    return True


def check_mlp_gradients():
    rng = numcore.child_rng(7, "selfcheck-grad")
    layout = numcore.Layout().add("mlp", [3, 4, 2], ["prelu", "sigmoid"])
    params = numcore.init_params(layout, rng, ["mlp"])
    x = rng.standard_normal((5, 3))
    target = rng.standard_normal((5, 2))

    def loss_of(vec):
        out, _ = numcore.mlp_forward(numcore.Params(layout, vec), "mlp", x)
        return float(np.sum((out - target) ** 2))

    out, cache = numcore.mlp_forward(params, "mlp", x)
    grads = numcore.Params(layout)
    numcore.mlp_backward(params, "mlp", cache, 2.0 * (out - target), grads)
    fd = numcore.finite_diff_grad(loss_of, params.vector)
    denom = np.maximum(np.abs(fd), 1e-6)
    return float(np.max(np.abs(grads.vector - fd) / denom)) < 1e-4


def check_refinement_rule():
    cfg = ec_block.RefineConfig(threshold=0.6)
    cases = [
        (0.8, 3, 3, 5, 3),
        (0.4, 3, 3, 5, 5),
        (0.9, 2, 4, 5, 5),
        (0.6, 1, 1, 1, 1),
    ]
    for beta, lp, ls, orig, want in cases:
        refined, _ = ec_block.refine_labels([beta], [lp], [ls], [orig], cfg)
        if refined[0] != want:
            return False
    return True


def check_aggregation():
    protos = np.zeros((1, 2))
    server = federation.ServerState(shared=np.zeros(1), prototypes=protos,
                                    proto_present=np.array([False]))
    updates = [federation.ClientUpdate(i, np.array([w]), protos.copy(),
                                       np.array([False]), n)
               for i, (w, n) in enumerate(zip((1.0, 4.0, 7.0), (1, 2, 1)))]
    out = federation.aggregate(server, updates, "data-size")
    return abs(out.shared[0] - 4.0) < 1e-12


CHECKS = [
    ("label propagation closed form vs explicit inverse", check_label_propagation),
    ("hypergraph operator symmetry and spectral bound", check_operator_spectrum),
    ("MLP analytic vs finite-difference gradients", check_mlp_gradients),
    ("label refinement truth table", check_refinement_rule),
    ("weighted aggregation hand case", check_aggregation),
]


def run_all(report=print):
    failures = 0
    for name, fn in CHECKS:
        ok = fn()
        report(f"[{'PASS' if ok else 'FAIL'}] {name}")
        if not ok:
            failures += 1
    return failures
