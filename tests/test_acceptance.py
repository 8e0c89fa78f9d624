"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 7's experiment settings and gap thresholds were frozen from a
pilot run; they live in tests/data/acceptance_thresholds.json.
"""

import json
import os
import time

import numpy as np

from hyperfed import federation, oracles, ue_block
from hyperfed.config import ExperimentConfig, make_config, parse_config
from hyperfed.federation import (final_mean_accuracy, push_global,
                                 run_experiment, run_round, set_up_run)
from hyperfed.numcore import Layout, Params, child_rng, init_params

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "data", "acceptance_thresholds.json")) as _fh:
    FROZEN = json.load(_fh)


def report(num, ok, text):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def report_timed(num, check, limit_s):
    """report an oracle criterion that must also finish within limit_s."""
    t0 = time.time()
    ok, detail = check()
    elapsed = time.time() - t0
    report(num, ok and elapsed < limit_s, f"{detail}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 1. label propagation against two independent oracles
# -------------------------------------------------------------------------

def test_criterion_1_propagation_oracles():
    report_timed(1, oracles.propagation, 10.0)


# -------------------------------------------------------------------------
# 2. analytic gradients against central finite differences
# -------------------------------------------------------------------------

def test_criterion_2_gradients_match_finite_differences():
    report_timed(2, oracles.gradients, 60.0)


# -------------------------------------------------------------------------
# 3. spectral properties of the normalized hypergraph operator
# -------------------------------------------------------------------------

def test_criterion_3_operator_spectrum():
    report(3, *oracles.spectrum())


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
    ds, clients, server = set_up_run(cfg)
    n_shared = clients[0].params.layout.n_shared
    sent = []   # length of every update's vector
    orig = federation.aggregate

    def spy(server_, updates, *args):
        sent.extend(np.size(u.shared) for u in updates)
        return orig(server_, updates, *args)

    monkeypatch.setattr(federation, "aggregate", spy)
    violations = 0
    for _ in range(cfg.rounds):
        run_round(server, clients, ds, cfg)
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
    report(5, *oracles.aggregation())


# -------------------------------------------------------------------------
# 6. refinement rule truth table
# -------------------------------------------------------------------------

def test_criterion_6_refinement_truth_table():
    report(6, *oracles.refinement())


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

    params = init_params(ue_block.add_ue(Layout(), d, 4, 4, 6, 2), rng)
    grads = Params(params.layout)
    cfg = ExperimentConfig(neighbor_count=5, eta=0.2, zeta=0.5)
    lam1, lr = 0.8, 0.1
    lw_trace = []
    for _ in range(200):
        beta, cache = ue_block.ue_forward(feats, params, cfg)
        _, _, gb_ce = ue_block.weighted_ce_loss(logits, labels, beta)
        lw, gb_w = ue_block.weight_reg_loss(beta, cfg)
        lw_trace.append(lw)
        ue_block.ue_backward(params, cache, gb_ce + lam1 * gb_w, grads)
        params.vector -= lr * grads.vector

    beta, _ = ue_block.ue_forward(feats, params, cfg)
    certain, uncertain = ue_block.split_certain_uncertain(beta, cfg)
    gap = float(np.mean(beta[uncertain]) - np.mean(beta[certain]))
    trailing = lw_trace[150:]
    drift = max(b - a for a, b in zip(trailing, trailing[1:]))
    # exact-zero unit case: loss vanishes whenever the gap clears the margin
    unit_loss, unit_grad = ue_block.weight_reg_loss(
        np.array([0.1, 0.2, 0.5, 0.9]), cfg)
    ok = (gap >= 0.0 and drift <= 1e-6
          and unit_loss == 0.0 and np.all(unit_grad == 0.0))
    report(9, ok,
           f"after 200 steps gap beta_U-beta_C={gap:.3f} (>=0), trailing "
           f"max per-step rise {drift:.2g} (limit 1e-6), exact zero loss "
           f"once the gap clears the margin (unit case)")
