"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 7's experiment settings and gap thresholds were frozen from a
pilot run; they live in tests/data/acceptance_thresholds.json.
"""

import json
import os
import time

import numpy as np
import pytest

from hyperfed import data as data_mod
from hyperfed import ec_block, federation, hypergraph, ue_block
from hyperfed.config import make_config, parse_config
from hyperfed.ec_block import PropagationConfig, RefineConfig
from hyperfed.federation import (ClientUpdate, ServerState, aggregate,
                                 batch_prototypes, build_clients,
                                 build_dataset, final_mean_accuracy,
                                 init_server, prototype_loss, push_global,
                                 run_experiment, run_round, shared_tensors)
from hyperfed.hypergraph import (KernelConfig, add_hgnn, build_knn_hypergraph,
                                 hgnn_forward, normalized_operator)
from hyperfed.numcore import (Layout, Params, child_rng, finite_diff_grad,
                              init_params, mlp_backward, mlp_forward)

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "data", "acceptance_thresholds.json")) as _fh:
    FROZEN = json.load(_fh)


def report(num, ok, text):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


# -------------------------------------------------------------------------
# 1. label propagation against two independent oracles
# -------------------------------------------------------------------------

def _richardson(a, y, iters=100000, tol=1e-13):
    ev_hi = np.linalg.eigvalsh(a)[-1]
    omega = 2.0 / (1.0 + ev_hi)
    x = np.zeros_like(y)
    for _ in range(iters):
        r = y - a @ x
        if np.max(np.abs(r)) < tol:
            break
        x = x + omega * r
    return x


def test_criterion_1_propagation_oracles():
    t0 = time.time()
    worst = 0.0
    for i in range(50):
        rng = child_rng(100, "acc1", i)
        n = int(rng.integers(3, 51))
        c = int(rng.integers(2, 9))
        lam = [0.1, 1.0, 10.0][i % 3]
        feats = rng.standard_normal((n, 4))
        y = ec_block.one_hot(rng.integers(1, c + 1, size=n), c)
        cfg = PropagationConfig(
            KernelConfig(neighbor_count=int(rng.integers(1, 6))),
            trade_off=lam)
        closed = ec_block.label_propagate(feats, y, cfg)
        a = ec_block.propagation_system(feats, cfg)
        by_inv = np.linalg.inv(a) @ y
        by_iter = _richardson(a, y)
        worst = max(worst, np.max(np.abs(closed - by_inv)),
                    np.max(np.abs(closed - by_iter)))
    elapsed = time.time() - t0
    report(1, worst <= 1e-8 and elapsed < 10.0,
           f"closed form vs inverse and iterative solver over 50 instances, "
           f"max abs err {worst:.3g} (limit 1e-8), {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 2. analytic gradients against central finite differences
# -------------------------------------------------------------------------

def _rel_err(analytic, fd):
    return np.max(np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6))


def test_criterion_2_gradients_match_finite_differences():
    t0 = time.time()
    worst = {}

    for i in range(20):  # weighted cross-entropy
        rng = child_rng(200, "wce", i)
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
        worst["wce"] = max(worst.get("wce", 0.0),
                           _rel_err(gl.ravel(), fd_l), _rel_err(gb, fd_b))

    checked = 0  # weight regularization, away from the kink and sort ties
    i = 0
    cfg_w = ue_block.WeightRegConfig(margin=0.9, certain_fraction=0.5)
    while checked < 20:
        rng = child_rng(200, "wreg", i)
        i += 1
        beta = np.sort(rng.uniform(0.05, 0.95, size=6))
        if np.min(np.diff(beta)) < 0.02:
            continue  # too close to a sort tie for clean finite differences
        loss, grad, _ = ue_block.weight_reg_loss(beta, cfg_w)
        if not 0.02 < loss < cfg_w.margin - 0.02:
            continue  # keep clear of the hinge kink
        fd = finite_diff_grad(
            lambda v: ue_block.weight_reg_loss(v, cfg_w)[0], beta)
        worst["wreg"] = max(worst.get("wreg", 0.0), _rel_err(grad, fd))
        checked += 1

    for i in range(20):  # prototype alignment loss
        rng = child_rng(200, "proto", i)
        c, d = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        local = rng.standard_normal((c, d))
        glob = rng.standard_normal((c, d))
        present = rng.uniform(size=c) < 0.8
        if not present.any():
            present[0] = True
        _, grad, _ = prototype_loss(local, present, glob,
                                    np.ones(c, dtype=bool))
        fd = finite_diff_grad(
            lambda v: prototype_loss(v.reshape(c, d), present, glob,
                                     np.ones(c, dtype=bool))[0],
            local.ravel())
        worst["proto"] = max(worst.get("proto", 0.0),
                             _rel_err(grad.ravel(), fd))

    for i in range(20):  # plain MLP layers
        rng = child_rng(200, "mlp", i)
        mlp = init_params(Layout().add("mlp", [3, 4, 2], ["prelu", "sigmoid"]),
                          rng, ["mlp"])
        x = rng.standard_normal((5, 3))
        w = rng.standard_normal((5, 2))

        def loss_of(v):
            out, _ = mlp_forward(Params(mlp.layout, v), "mlp", x)
            return float(np.sum(w * out))

        out, cache = mlp_forward(mlp, "mlp", x)
        grads = Params(mlp.layout)
        mlp_backward(mlp, "mlp", cache, w, grads)
        fd = finite_diff_grad(loss_of, mlp.vector)
        worst["mlp"] = max(worst.get("mlp", 0.0),
                           _rel_err(grads.vector, fd))

    for i in range(20):  # HGNN layers with a fixed operator
        rng = child_rng(200, "hgnn", i)
        n = int(rng.integers(3, 8))
        layers = init_params(add_hgnn(Layout(), "h", [3, 4, 3]), rng, ["h"])
        x = rng.standard_normal((n, 3))
        s = normalized_operator(build_knn_hypergraph(
            rng.standard_normal((n, 2)), KernelConfig(neighbor_count=2)))
        w = rng.standard_normal((n, 3))

        def loss_of(v):
            out, _ = hgnn_forward(Params(layers.layout, v), "h", x, s)
            return float(np.sum(w * out))

        out, cache = hgnn_forward(layers, "h", x, s)
        grads = Params(layers.layout)
        hypergraph.hgnn_backward(layers, "h", cache, w, grads)
        fd = finite_diff_grad(loss_of, layers.vector)
        worst["hgnn"] = max(worst.get("hgnn", 0.0),
                            _rel_err(grads.vector, fd))

    elapsed = time.time() - t0
    overall = max(worst.values())
    detail = " ".join(f"{k}={v:.2g}" for k, v in sorted(worst.items()))
    report(2, overall <= 1e-4 and elapsed < 60.0,
           f"max relative error vs finite differences {detail} "
           f"(limit 1e-4), {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 3. spectral properties of the normalized hypergraph operator
# -------------------------------------------------------------------------

def _power_iteration_eigmax(s, iters=500):
    rng = child_rng(300, "power")
    v = rng.standard_normal(s.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = s @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        lam = float(v @ (s @ v))
    return lam


def test_criterion_3_operator_spectrum():
    worst_sym, worst_eig, worst_sys = 0.0, 0.0, np.inf
    for i in range(100):
        rng = child_rng(300, "topo", i)
        n = int(rng.integers(2, 40))
        feats = rng.standard_normal((n, int(rng.integers(2, 6))))
        k = int(rng.integers(1, 12))
        s = normalized_operator(build_knn_hypergraph(
            feats, KernelConfig(neighbor_count=k)))
        worst_sym = max(worst_sym, float(np.max(np.abs(s - s.T))))
        worst_eig = max(worst_eig, _power_iteration_eigmax(s))
        a = np.eye(n) + (np.eye(n) - s)  # propagation system at trade-off 1
        worst_sys = min(worst_sys, float(np.linalg.eigvalsh(a)[0]))
    ok = worst_sym <= 1e-10 and worst_eig <= 1.0 + 1e-8 \
        and worst_sys >= 1.0 - 1e-8
    report(3, ok,
           f"100 topologies: max asymmetry {worst_sym:.2g} (limit 1e-10), "
           f"max eigenvalue {worst_eig:.10f} (limit 1+1e-8), "
           f"min system eigenvalue {worst_sys:.10f} (floor 1-1e-8)")


# -------------------------------------------------------------------------
# 4. private estimator tensors survive every aggregation bit-identically
# -------------------------------------------------------------------------

def test_criterion_4_private_estimator_untouched(monkeypatch):
    cfg = make_config(dict(seed=11, method="ue_ec", client_count=10,
                           rounds=10, classes=4, feature_dim=8,
                           samples_per_class=40, noise_rate=0.2,
                           backbone_dim=16, compact_dim=8, relational_dim=8,
                           estimator_hidden=8, expr_dim=8, neighbor_count=5,
                           ec_neighbor_count=5, batch_size=16))
    ds = build_dataset(cfg)
    part = data_mod.dirichlet_partition(ds.clean_labels, cfg.client_count,
                                        cfg.dirichlet_alpha,
                                        child_rng(cfg.seed, "partition"))
    clients = build_clients(cfg, ds, part)
    server = init_server(cfg, ds)
    for c in clients:
        push_global(server, c)
    n_shared = clients[0].params.layout.n_shared
    sent = []   # length of every update's vector
    orig = federation.aggregate

    def spy(server_, updates, *args):
        sent.extend(np.size(u.shared) for u in updates)
        return orig(server_, updates, *args)

    monkeypatch.setattr(federation, "aggregate", spy)
    violations = 0
    for _ in range(cfg.rounds):
        server, _, _ = run_round(server, clients, ds, cfg)
        before = {c.id: c.params.vector[n_shared:].copy() for c in clients}
        for c in clients:  # server pushback must leave private tensors alone
            push_global(server, c)
        for c in clients:
            if not np.array_equal(before[c.id],
                                  c.params.vector[n_shared:]):
                violations += 1
        if server.shared.size != n_shared:
            violations += 1
    violations += sum(size > n_shared for size in sent)
    assert sent
    report(4, violations == 0,
           f"10 rounds x 10 clients: {violations} private-tensor violations "
           "(exact equality required)")


# -------------------------------------------------------------------------
# 5. aggregation arithmetic on crafted parameter sets
# -------------------------------------------------------------------------

def test_criterion_5_aggregation_exact():
    def update(cid, value, n, protos=None, present=None):
        return ClientUpdate(
            client_id=cid, shared=np.array(value, dtype=np.float64),
            prototypes=protos if protos is not None else np.zeros((2, 2)),
            proto_present=(present if present is not None
                           else np.zeros(2, dtype=bool)),
            n_samples=n)

    def blank(n_shared):
        return ServerState(shared=np.zeros(n_shared),
                           prototypes=np.zeros((2, 2)),
                           proto_present=np.zeros(2, dtype=bool))
    errs = []

    out = aggregate(blank(2), [update(0, [1.0, 8.0], 1),
                               (update(1, [3.0, 2.0], 1)),
                               update(2, [5.0, 2.0], 1)], "uniform")
    errs.append(np.max(np.abs(out.shared - [3.0, 4.0])))

    out = aggregate(blank(1), [update(0, [1.0], 1), update(1, [4.0], 2),
                               update(2, [7.0], 1)], "data-size")
    errs.append(abs(out.shared[0] - 4.0))  # (1*1 + 2*4 + 1*7) / 4

    p0 = np.array([[2.0, 2.0], [9.0, 9.0]])
    p1 = np.array([[6.0, 6.0], [0.0, 0.0]])
    out = aggregate(blank(1),
                    [update(0, [0.0], 1, p0, np.array([True, True])),
                     update(1, [0.0], 3, p1, np.array([True, False]))],
                    "data-size")
    errs.append(np.max(np.abs(out.prototypes[0] - [5.0, 5.0])))  # 1/4, 3/4
    errs.append(np.max(np.abs(out.prototypes[1] - [9.0, 9.0])))  # only c0
    worst = max(float(e) for e in errs)
    report(5, worst <= 1e-12,
           f"uniform mean, data-size weighting and prototype "
           f"renormalization exact to {worst:.2g} (limit 1e-12)")


# -------------------------------------------------------------------------
# 6. refinement rule truth table
# -------------------------------------------------------------------------

def test_criterion_6_refinement_truth_table():
    cfg = RefineConfig(threshold=0.6)
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
    report(6, deviations == 0,
           f"exhaustive truth table ({cases} cases): {deviations} deviations")


# -------------------------------------------------------------------------
# 7. end-to-end noisy-label recovery ordering
# -------------------------------------------------------------------------

def test_criterion_7_end_to_end_ordering():
    t0 = time.time()
    means = {}
    precs = []
    for method in ("baseline", "ue", "ue_ec"):
        accs = []
        for seed in FROZEN["seeds"]:
            cfg = make_config(dict(seed=seed, method=method,
                                   **FROZEN["experiment"]))
            rows, _, _ = run_experiment(cfg)
            accs.append(final_mean_accuracy(rows))
            if method == "ue_ec":
                precs += [r[10] for r in rows
                          if r[2] == "test" and r[10] is not None]
        means[method] = float(np.mean(accs))
    elapsed = time.time() - t0
    gap_ub = means["ue"] - means["baseline"]
    gap_fu = means["ue_ec"] - means["ue"]
    precision = float(np.mean(precs)) if precs else 0.0
    th = FROZEN["thresholds"]
    ok = (gap_ub >= th["gap_ue_over_baseline"]
          and gap_fu >= th["gap_full_over_ue"]
          and precision > th["relabel_precision_floor"]
          and elapsed < 600.0)
    report(7, ok,
           f"5-seed means baseline={means['baseline']:.4f} "
           f"ue={means['ue']:.4f} full={means['ue_ec']:.4f}; gaps "
           f"+{gap_ub:.4f} (min {th['gap_ue_over_baseline']}) / "
           f"+{gap_fu:.4f} (min {th['gap_full_over_ue']}); relabel "
           f"precision {precision:.3f} (floor 1/6); {elapsed:.0f}s")


# -------------------------------------------------------------------------
# 8. determinism from the resolved-config echo
# -------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    cfg = make_config(dict(seed=3, method="ue_ec", rounds=3, classes=4,
                           feature_dim=8, samples_per_class=30,
                           client_count=4, noise_rate=0.25, batch_size=16,
                           backbone_dim=16, compact_dim=8, relational_dim=8,
                           estimator_hidden=8, expr_dim=8, neighbor_count=5,
                           ec_neighbor_count=5, relabel_start_round=1,
                           delta=0.2))
    run_experiment(cfg, out_dir=tmp_path / "first")
    echo = parse_config(str(tmp_path / "first" / "resolved_config.json"))
    run_experiment(echo, out_dir=tmp_path / "second")
    a = (tmp_path / "first" / "metrics.csv").read_bytes()
    b = (tmp_path / "second" / "metrics.csv").read_bytes()
    report(8, a == b,
           f"re-run from resolved config: metrics.csv byte-identical "
           f"({len(a)} bytes)")


# -------------------------------------------------------------------------
# 9. weight-separation dynamics of the UE block alone
# -------------------------------------------------------------------------

def test_criterion_9_weight_separation_dynamics():
    rng = child_rng(900, "sep")
    n, d, c = 40, 6, 2
    q = n // 4
    # four tight clusters; the samples in the last two carry flipped
    # labels, so their cross-entropy stays high under correct logits and
    # their feature region is learnable by the estimator
    centers = np.zeros((4, d))
    centers[1, 0], centers[2, 1], centers[3, 2] = 3.0, -3.0, 3.0
    feats = np.vstack([centers[j] + 0.3 * rng.standard_normal((q, d))
                       for j in range(4)])
    clean = np.array([1] * q + [2] * q + [1] * q + [2] * q)
    labels = clean.copy()
    flip = np.arange(2 * q, n)
    labels[flip] = 3 - labels[flip]
    logits = np.zeros((n, c))
    logits[np.arange(n), clean - 1] = 4.0  # confident in the clean class

    params = init_params(ue_block.add_ue(Layout(), d, 4, 4, 6), rng,
                         ["ue.compact", "ue.hgnn", "ue.estimator"])
    grads = Params(params.layout)
    kernel = KernelConfig(neighbor_count=5)
    reg = ue_block.WeightRegConfig(margin=0.2, certain_fraction=0.5)
    lam1, lr = 0.8, 0.1
    lw_trace = []
    for _ in range(200):
        out, cache = ue_block.ue_forward(feats, params, kernel)
        _, _, gb_ce = ue_block.weighted_ce_loss(logits, labels, out.beta)
        lw, gb_w, _ = ue_block.weight_reg_loss(out.beta, reg)
        lw_trace.append(lw)
        ue_block.ue_backward(params, cache, gb_ce + lam1 * gb_w, grads)
        params.vector -= lr * grads.vector

    out, _ = ue_block.ue_forward(feats, params, kernel)
    certain, uncertain = ue_block.split_certain_uncertain(out.beta, reg)
    gap = float(np.mean(out.beta[uncertain]) - np.mean(out.beta[certain]))
    trailing = lw_trace[150:]
    drift = max(b - a for a, b in zip(trailing, trailing[1:]))
    # exact-zero unit case: loss vanishes whenever the gap clears the margin
    unit_loss, unit_grad, _ = ue_block.weight_reg_loss(
        np.array([0.1, 0.2, 0.5, 0.9]), reg)
    ok = (gap >= 0.0 and drift <= 1e-6
          and unit_loss == 0.0 and np.all(unit_grad == 0.0))
    report(9, ok,
           f"after 200 steps gap beta_U-beta_C={gap:.3f} (>=0), trailing "
           f"max per-step rise {drift:.2g} (limit 1e-6), exact zero loss "
           f"once the gap clears the margin (unit case)")
