"""The benchmark's workloads, one repetition of each, and its checks.

Every workload pins its full resolved configuration here, so a change of
a program default does not change what is measured. The run seed is the
only input that varies; it becomes the config seed (``quiet_sweep`` runs
the two seed cells ``seed`` and ``seed + 1``).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
import shutil
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy

from hyperfed import cli, federation
from hyperfed import config as config_mod

from tracer import KNN, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Criterion 7's frozen experiment (tests/data/acceptance_thresholds.json)
# with method ue_ec, every other field written out.
NOISY_UE_EC = {
    "method": "ue_ec", "client_count": 10, "rounds": 30,
    "participation": 0.5, "local_epochs": 1, "batch_size": 32,
    "learning_rate": 0.1, "aggregation": "data-size",
    "broadcast_all": False, "dirichlet_alpha": 0.5, "classes": 7,
    "feature_dim": 32, "samples_per_class": 300, "separation": 1.5,
    "spread": 1.0, "csv_path": "", "noise_rate": 0.2,
    "corruption_rate": 0.5, "corruption_severity": 2.0,
    "corrupt_mislabeled": True, "test_fraction": 0.2, "backbone_dim": 64,
    "compact_dim": 64, "relational_dim": 64, "estimator_hidden": 32,
    "expr_dim": 64, "hgnn_layers": 2, "neighbor_count": 10,
    "ec_neighbor_count": 10, "bandwidth_mode": "median", "fixed_sigma": 1.0,
    "eta": 0.6, "zeta": 0.8, "zeta_mode": "fraction", "delta": 0.2,
    "relabel_start_round": 3, "prop_lambda": 0.5, "lambda1": 0.8,
    "lambda2": 0.1, "persist_refined": True,
}

# The README operating point (noise 0.2, 30 rounds, ue_ec, delta 0.6) with
# lambda2 = 0.1, because at the default lambda2 the model collapses.
QUIET_SWEEP = dict(
    NOISY_UE_EC, separation=1.0, corruption_rate=0.0,
    corruption_severity=0.0, corrupt_mislabeled=False, eta=0.2, zeta=0.7,
    delta=0.6, relabel_start_round=0, prop_lambda=1.0)

# Criterion 7's data settings, baseline method, a 50-client fleet at 20%
# participation.
FLEET_BASELINE = dict(NOISY_UE_EC, method="baseline", client_count=50,
                      participation=0.2)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    cells: int        # seed cells per repetition: seed, seed + 1, ...
    via_cli: bool     # run as an in-process `hyperfed sweep`


WORKLOADS = {w.name: w for w in [
    Workload("noisy_ue_ec",
             "criterion 7 noisy data with ue_ec: hypergraph builds and "
             "label refinement that fires dominate", NOISY_UE_EC, 1, False),
    Workload("quiet_sweep",
             "README operating point as a two-cell CLI sweep: propagation "
             "runs but rarely has a candidate, plus output writing",
             QUIET_SWEEP, 2, True),
    Workload("fleet_baseline",
             "50 clients at 20% participation, baseline method: evaluation "
             "and aggregation, no hypergraph or propagation", FLEET_BASELINE,
             1, False),
]}

# End-to-end metrics and their units, in reporting order.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "final_acc": "ratio"}

# Every traced function, as module.function.
SPANS = [
    "numcore.mlp_forward", "numcore.mlp_backward", "numcore.solve_linear",
    "hypergraph.build_knn_hypergraph", "hypergraph.normalized_operator",
    "hypergraph.hgnn_forward", "hypergraph.hgnn_backward",
    "ue_block.ue_forward", "ue_block.ue_backward",
    "ue_block.weighted_ce_loss", "ue_block.weight_reg_loss",
    "ec_block.ec_forward", "ec_block.ec_backward",
    "ec_block.label_propagate", "ec_block.refine_labels",
    "data.generate_synthetic", "data.dirichlet_partition",
    "data.inject_label_noise", "data.corrupt_features",
    "federation.run_experiment", "federation.build_dataset",
    "federation.build_clients", "federation.init_server",
    "federation.run_round", "federation.local_train_epoch",
    "federation.compute_prototypes", "federation.push_global",
    "federation.shared_tensors", "federation.aggregate",
    "federation.evaluate", "federation.write_metrics_csv",
    "config.parse_config",
    "cli.cmd_sweep", "cli.emit_summary",
]

# Set-up as users see it: config parse, dataset, partition, client and
# server init. The untraced run wraps only these once-per-cell calls.
SETUP_SPANS = ["config.parse_config", "federation.build_dataset",
               "data.dirichlet_partition", "federation.build_clients",
               "federation.init_server"]

LAYERS = ["numcore", "hypergraph", "ue_block", "ec_block", "data",
          "federation", "config", "cli"]

def span_names():
    """Reported span names: SPANS with the k-NN builder split by caller."""
    out = []
    for q in SPANS:
        out += [f"{KNN}.ue", f"{KNN}.ec"] if q == KNN else [q]
    return out


# Spans each workload is predicted to call at least once. Every other span
# in ZERO is predicted to have 0 calls on that workload.
_CORE = ["numcore.mlp_forward", "numcore.mlp_backward",
         "ue_block.weighted_ce_loss", "ec_block.ec_forward",
         "ec_block.ec_backward", "data.generate_synthetic",
         "data.dirichlet_partition", "data.inject_label_noise",
         "federation.run_experiment", "federation.build_dataset",
         "federation.build_clients", "federation.init_server",
         "federation.run_round", "federation.local_train_epoch",
         "federation.compute_prototypes", "federation.push_global",
         "federation.shared_tensors", "federation.aggregate",
         "federation.evaluate", "config.parse_config"]
_UE_EC = [f"{KNN}.ue", f"{KNN}.ec", "hypergraph.normalized_operator",
          "hypergraph.hgnn_forward", "hypergraph.hgnn_backward",
          "ue_block.ue_forward", "ue_block.ue_backward",
          "ue_block.weight_reg_loss", "ec_block.label_propagate",
          "numcore.solve_linear", "ec_block.refine_labels"]
_CLI = ["cli.cmd_sweep", "federation.write_metrics_csv", "cli.emit_summary"]

CALLED = {
    "noisy_ue_ec": _CORE + _UE_EC + ["data.corrupt_features"],
    "quiet_sweep": _CORE + _UE_EC + _CLI,
    "fleet_baseline": _CORE + ["data.corrupt_features"],
}
ZERO = {
    "noisy_ue_ec": _CLI,
    "quiet_sweep": ["data.corrupt_features"],
    "fleet_baseline": _UE_EC + _CLI,
}


def overrides(w, seed, rounds=None):
    """`--set` strings for one repetition; a sweep gets a list-valued seed."""
    values = dict(w.config)
    if rounds is not None:
        values["rounds"] = rounds
    values["seed"] = (list(range(seed, seed + w.cells)) if w.via_cli
                      else seed)
    return [f"{k}={json.dumps(v)}" for k, v in values.items()]


def config_hashes(w, seed):
    """sha256 of the program's resolved config for each cell."""
    out = []
    for s in range(seed, seed + w.cells):
        values = dict(w.config, seed=s)
        cfg = config_mod.parse_config(
            None, [f"{k}={json.dumps(v)}" for k, v in values.items()])
        text = json.dumps(config_mod.config_to_dict(cfg), sort_keys=True)
        out.append(hashlib.sha256(text.encode()).hexdigest())
    return out


@dataclass
class Rep:
    wall_s: float          # repetition time after set-up
    setup_s: float
    final_acc: list        # per cell
    sha256: str            # over every metrics.csv (and summary.csv)
    tracer: Tracer


def _final_accuracy(path):
    """Last-round mean personalized test accuracy from a metrics.csv."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        col = {name: i for i, name in enumerate(header)}
        best = None
        for line in fh:
            f = line.rstrip("\n").split(",")
            if f[col["client_id"]] == "-1" and f[col["split"]] == "test":
                r = int(f[col["round"]])
                if best is None or r >= best[0]:
                    best = (r, float(f[col["accuracy"]]))
    if best is None:
        raise ValueError(f"{path}: no aggregate test row")
    return best[1]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_rep(w, seed, spans, workdir, rounds=None):
    """One timed repetition of a workload, tracing the given spans."""
    sets = overrides(w, seed, rounds)
    out = tempfile.mkdtemp(prefix="rep-", dir=workdir)
    try:
        tracer = Tracer(spans)
        with tracer:
            t0 = perf_counter()
            if w.via_cli:
                argv = ["sweep", "--out", out]
                for s in sets:
                    argv += ["--set", s]
                with redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"hyperfed sweep exited with {code}")
            else:
                cfg = config_mod.parse_config(None, sets)
                rows, _, _ = federation.run_experiment(cfg)
            wall = perf_counter() - t0
        if w.via_cli:
            cells = [os.path.join(out, f"seed={s}", "metrics.csv")
                     for s in range(seed, seed + w.cells)]
            extra = [os.path.join(out, "summary.csv")]
        else:
            cells = [os.path.join(out, "metrics.csv")]
            federation.write_metrics_csv(rows, cells[0])
            extra = []
        accs = [_final_accuracy(p) for p in cells]
        sha = hashlib.sha256(
            "\n".join(_sha256(p) for p in cells + extra).encode()).hexdigest()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    setup = sum(tracer.total(s) for s in SETUP_SPANS)
    return Rep(wall - setup, setup, accs, sha, tracer)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check_rep(w, seed, rep, reference):
    """Problems with a repetition's outputs (empty when it is correct),
    and whether its metrics hash differs from the recorded one."""
    problems = []
    values = [rep.wall_s, rep.setup_s] + list(rep.final_acc)
    if not all(math.isfinite(v) for v in values):
        problems.append(f"non-finite metric in {values}")
    tol = reference["tolerance"]
    recorded = reference["workloads"][w.name]
    ref = recorded["seeds"].get(str(seed))
    numeric_change = None
    if ref is not None:
        for got, want in zip(rep.final_acc, ref["final_acc"]):
            if not abs(got - want) <= tol:
                problems.append(f"final_acc {got:.6f} is not within {tol} "
                                f"of the reference {want:.6f}")
        numeric_change = rep.sha256 != ref["sha256"]
    else:
        floor = min(min(r["final_acc"]) for r in recorded["seeds"].values())
        for got in rep.final_acc:
            if not got >= floor - tol:
                problems.append(f"final_acc {got:.6f} is below every "
                                f"recorded seed's ({floor:.6f}) by > {tol}")
    return problems, numeric_change


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas_version(show_config):
    try:
        return show_config(mode="dicts")["Build Dependencies"]["blas"].get(
            "version", "unknown")
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment(w, seed):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(np.show_config),
        "scipy_blas": _blas_version(scipy.show_config),
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS", "HYPERFED_THREADS")},
        "workload": w.name,
        "seed": seed,
        "config_sha256": config_hashes(w, seed),
    }
