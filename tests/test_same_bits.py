"""The hot-path kernels, the set-up's random draws and the sweep summary
against frozen copies of the formulas they replaced, compared with
np.array_equal (the summary byte for byte): a rewrite must keep every
bit of every output, or the golden metrics hashes move.

Each `old_*` function below is the earlier implementation, kept verbatim
apart from its name. Do not "fix" or tidy them: they are the reference.
"""

import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os

import numpy as np
import pytest
import scipy.linalg

from hyperfed import cli, ec_block, federation, hypergraph, ue_block
from hyperfed.config import ExperimentConfig
from hyperfed.data import (PartitionError, _largest_remainder,
                           dirichlet_partition, generate_synthetic,
                           inject_label_noise)
from hyperfed.data import rate_count as _rate_count
from hyperfed.numcore import (Layout, Params, child_rng, draw_plan,
                              init_params, mlp_backward, mlp_forward,
                              pairwise_sq_dist, skip_doubles, softmax_rows,
                              solve_linear, zero_vector)
from test_harness import fake_cpus

CFG = ExperimentConfig()

# the non-finite k-NN inputs make inf - inf in the old and new distance
# formulas alike
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered in subtract:RuntimeWarning")


# ---------------------------------------------------------------------------
# Frozen formulas
# ---------------------------------------------------------------------------

def old_activate(z, act, slope):
    if act == "linear":
        return z
    if act == "relu":
        return np.maximum(z, 0.0)
    if act == "prelu":
        return np.where(z > 0.0, z, slope * z)
    if act == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    raise ValueError(act)


def old_activate_grad(z, a, act, slope):
    if act == "linear":
        return np.ones_like(z)
    if act == "relu":
        return (z > 0.0).astype(np.float64)
    if act == "prelu":
        return np.where(z > 0.0, 1.0, slope)
    if act == "sigmoid":
        return a * (1.0 - a)
    raise ValueError(act)


def old_mlp_forward(params, prefix, x):
    cache = []
    a = np.asarray(x, dtype=np.float64)
    for act, w, b, slope in params.blocks[prefix]:
        z = a @ w + b
        out = old_activate(z, act, slope)
        cache.append((a, z, out))
        a = out
    return a, cache


def old_mlp_backward(params, prefix, cache, grad_output, grads):
    layers = params.blocks[prefix]
    g = np.asarray(grad_output, dtype=np.float64)
    for (act, w, _, slope), (_, gw, gb, gs), (x_in, z, out) in zip(
            reversed(layers), reversed(grads.blocks[prefix]),
            reversed(cache)):
        dz = g * old_activate_grad(z, out, act, slope)
        if act == "prelu":
            gs[0] = np.sum(g * np.where(z > 0.0, 0.0, z))
        gw[...] = x_in.T @ dz
        gb[...] = np.sum(dz, axis=0)
        g = dz @ w.T
    return g


def old_hgnn_forward(params, prefix, x, s):
    x = np.asarray(x, dtype=np.float64)
    cache = []
    for act, theta, _, _ in params.blocks[prefix]:
        sx = s @ x
        z = sx @ theta
        out = np.maximum(z, 0.0) if act == "relu" else z
        cache.append((x, sx, z))
        x = out
    return x, (s, cache)


def old_hgnn_backward(params, prefix, cache, grad_output, grads):
    s, per_layer = cache
    g = np.asarray(grad_output, dtype=np.float64)
    for (act, theta, _, _), (_, g_theta, _, _), (x_in, sx, z) in zip(
            reversed(params.blocks[prefix]),
            reversed(grads.blocks[prefix]), reversed(per_layer)):
        dz = g * (z > 0.0) if act == "relu" else g
        g_theta[...] = sx.T @ dz
        g = s.T @ (dz @ theta.T)
    return g


def old_weighted_ce_loss(logits, labels, beta):
    logits = np.asarray(logits, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    n, c = logits.shape
    labels = np.asarray(labels, dtype=np.int64)
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


def old_weight_reg_loss(beta, cfg):
    beta = np.asarray(beta, dtype=np.float64)
    grad = np.zeros(beta.size)
    certain, uncertain = ue_block.split_certain_uncertain(beta, cfg)
    gap = float(np.mean(beta[uncertain]) - np.mean(beta[certain]))
    loss = max(0.0, cfg.eta - gap)
    if loss > 0.0:
        grad[uncertain] = -1.0 / uncertain.size
        grad[certain] = 1.0 / certain.size
    return loss, grad, True


def old_prototype_loss(local_protos, local_present, global_protos,
                       global_present):
    overlap = np.asarray(local_present) & np.asarray(global_present)
    grad = np.zeros_like(local_protos)
    m = int(overlap.sum())
    if m == 0:
        return 0.0, grad, False
    diff = local_protos - global_protos
    loss = float(np.sum(np.abs(diff[overlap]))) / m
    grad[overlap] = np.sign(diff[overlap]) / m
    return loss, grad, True


def old_grad_e(e, grad_protos, counts, labels, lambda2):
    grad_e = np.zeros_like(e)
    for j in np.flatnonzero(np.any(grad_protos != 0.0, axis=1)):
        rows = labels == j + 1
        grad_e[rows] = lambda2 * grad_protos[j] / counts[j]
    return grad_e


def old_aggregate_prototypes(server, updates, mode="data-size"):
    updates = sorted(updates, key=lambda u: u.client_id)
    if mode == "uniform":
        weights = np.full(len(updates), 1.0 / len(updates))
    elif mode == "data-size":
        counts = np.array([u.n_samples for u in updates], dtype=np.float64)
        weights = counts / counts.sum()
    n_classes = server.prototypes.shape[0]
    new_protos = server.prototypes.copy()
    new_present = server.proto_present.copy()
    for j in range(n_classes):
        contributors = [(w, u) for w, u in zip(weights, updates)
                        if u.proto_present[j]]
        if not contributors:
            continue
        total = sum(w for w, _ in contributors)
        new_protos[j] = sum(w * u.prototypes[j] for w, u in contributors) / total
        new_present[j] = True
    return new_protos, new_present


def old_pairwise_sq_dist(x):
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-2]
    sq = (x * x).sum(axis=-1)
    d2 = sq[..., :, None] + sq[..., None, :] - 2.0 * (x @ x.mT)
    np.maximum(d2, 0.0, out=d2)
    d2 = 0.5 * (d2 + d2.mT)
    d2.reshape(-1, n * n)[:, ::n + 1] = 0.0
    return d2


def old_median_bandwidth(d2):
    n = d2.shape[-1]
    if n < 2:
        return np.full(d2.shape[:-2], np.inf)
    rows, cols = np.triu_indices(n, 1)
    upper = d2.reshape(-1, n * n)[:, rows * n + cols]
    positive = upper > 0.0
    count = np.add.reduce(positive, axis=-1)
    upper[~positive] = np.inf
    upper.sort(axis=-1)
    rows = np.arange(len(upper))
    mid = (np.sqrt(upper[rows, (count - 1) // 2])
           + np.sqrt(upper[rows, count // 2]))
    return np.where(count > 0, mid / 2.0, np.inf).reshape(d2.shape[:-2])


def old_build_knn_hypergraph(features, k, cfg):
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[-2]
    clamped = k >= n
    d2 = old_pairwise_sq_dist(x)
    if clamped:
        h = np.ones(d2.shape)
    else:
        order = np.argsort(d2, axis=-1, kind="stable")
        cols = np.arange(n)
        members = order[order != cols[:, None]].reshape(-1, n, n - 1)[..., :k]
        h = np.zeros(d2.shape)
        slices = h.reshape(-1, n, n)
        slices[np.arange(len(slices))[:, None, None], members,
               cols[:, None]] = 1.0
        h[..., cols, cols] = 1.0
    if cfg.bandwidth_mode == "fixed":
        sigma = np.full(d2.shape[:-2], cfg.fixed_sigma)
    else:
        sigma = old_median_bandwidth(d2)
    sigma = sigma[..., None, None]
    affinity = np.exp(-d2 / (2.0 * sigma * sigma))
    edge_sizes = h.sum(axis=-2)
    edge_weights = np.vecdot(affinity, h.mT) / edge_sizes
    vertex_degrees = np.matmul(h, edge_weights[..., None])[..., 0]
    return hypergraph.HypergraphTopology(
        incidence=h, edge_weights=edge_weights,
        vertex_degrees=vertex_degrees, edge_degrees=edge_sizes)


def old_normalized_operator(t):
    if np.any(t.vertex_degrees <= 0.0) or np.any(t.edge_degrees <= 0.0):
        raise ValueError("topology has a zero degree")
    dv_isqrt = 1.0 / np.sqrt(t.vertex_degrees)
    hw = t.incidence * (t.edge_weights / t.edge_degrees)[..., None, :]
    s = (dv_isqrt[..., :, None] * hw) @ (
        t.incidence.mT * dv_isqrt[..., None, :])
    return 0.5 * (s + s.mT)


def old_propagation_system(features, cfg):
    topo = old_build_knn_hypergraph(features, cfg.ec_neighbor_count, cfg)
    delta = old_normalized_operator(topo)
    n = delta.shape[-1]
    return np.eye(n) + (np.eye(n) - delta) / cfg.prop_lambda


def old_child_rng(seed, *labels):
    h = hashlib.blake2b(repr((int(seed),) + tuple(labels)).encode("utf-8"),
                        digest_size=16)
    key = int.from_bytes(h.digest(), "little")
    return np.random.Generator(np.random.Philox(key=key))


def old_draw_plan(layout, order, source):
    return [(layout.slots.get(name, (None,))[0], math.prod(shape),
             np.sqrt(6.0 / sum(shape)))
            for prefix in order for name, (_, shape) in source.slots.items()
            if name.startswith(prefix + ".w")]


def old_init_params(layout, rng, plan=None):
    params = Params(layout, zero_vector(layout.size))
    for offset, size, bound in plan or old_draw_plan(layout,
                                                     layout.activations,
                                                     layout):
        w = rng.uniform(-bound, bound, size=size)
        if offset is not None:
            params.vector[offset:offset + size] = w
    for layers in params.blocks.values():
        for _, _, _, slope in layers:
            if slope is not None:
                slope[...] = 0.25
    return params


def old_inject_label_noise(ds, rate, rng):
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    out = ds.copy()
    n_flip = _rate_count(rate, ds.n)
    if n_flip == 0:
        return out
    chosen = rng.choice(ds.n, size=n_flip, replace=False)
    for i in chosen:
        old = out.observed_labels[i]
        others = [c for c in range(1, ds.n_classes + 1) if c != old]
        out.observed_labels[i] = others[rng.integers(len(others))]
    return out


def old_dirichlet_partition(labels, client_count, alpha, rng,
                            test_fraction=0.2, max_retries=10):
    labels = np.asarray(labels, dtype=np.int64)
    if client_count < 1:
        raise ValueError("client_count must be >= 1")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    classes = np.unique(labels)
    for _ in range(max_retries):
        assigned = [[] for _ in range(client_count)]
        for c in classes:
            idx = np.flatnonzero(labels == c)
            idx = idx[rng.permutation(idx.size)]
            props = rng.dirichlet(np.full(client_count, alpha))
            counts = _largest_remainder(props, idx.size)
            pos = 0
            for k in range(client_count):
                assigned[k].extend(idx[pos:pos + counts[k]])
                pos += counts[k]
        if all(len(a) >= 2 for a in assigned):
            break
    else:
        raise RuntimeError(
            f"dirichlet_partition: a client stayed (nearly) empty after "
            f"{max_retries} redraws (alpha={alpha})")

    train_sets, test_sets = [], []
    for a in assigned:
        a = np.sort(np.asarray(a, dtype=np.int64))
        train, test = [], []
        for c in classes:
            cls = a[labels[a] == c]
            if cls.size >= 2:
                n_test = min(max(1, round(test_fraction * cls.size)),
                             cls.size - 1)
            else:
                n_test = 0
            perm = cls[rng.permutation(cls.size)]
            test.extend(perm[:n_test])
            train.extend(perm[n_test:])
        train_sets.append(np.sort(np.asarray(train, dtype=np.int64)))
        test_sets.append(np.sort(np.asarray(test, dtype=np.int64)))
    return train_sets, test_sets


def old_corrupt_features(ds, rate, severity, rng, indices=None):
    """Additive Gaussian noise of std severity * (global feature std) on a
    rate-fraction of samples, or on an explicit index set (rate ignored
    then). The explicit form lets experiments tie low-quality features to
    mislabeled samples."""
    if severity < 0:
        raise ValueError("severity must be >= 0")
    out = ds.copy()
    if indices is not None:
        chosen = np.asarray(indices, dtype=np.int64)
        n_hit = chosen.size
    else:
        n_hit = _rate_count(rate, ds.n)
        chosen = None
    if n_hit == 0 or severity == 0.0:
        return out
    if chosen is None:
        chosen = rng.choice(ds.n, size=n_hit, replace=False)
    sigma = severity * float(np.std(ds.features))
    out.features[chosen] += sigma * rng.standard_normal(
        (n_hit, ds.features.shape[1]))
    out.feature_corrupted[chosen] = True
    return out


def old_emit_summary(run_dirs, out_path):
    """Final-round mean personalized accuracy per (method, alpha), with
    std over seeds when a cell has several runs. Every other field whose
    value differs between the runs labels the rows in a column of its
    own, so runs of different configs are never averaged together."""
    runs = []
    for d in run_dirs:
        cfg_path = os.path.join(d, "resolved_config.json")
        metrics_path = os.path.join(d, "metrics.csv")
        if not (os.path.exists(cfg_path) and os.path.exists(metrics_path)):
            continue
        with open(cfg_path) as fh:
            cfg = json.load(fh)
        rows = old_read_metrics(metrics_path)
        runs.append((cfg, federation.final_mean_accuracy(rows, split="test")))

    axes = sorted({k for cfg, _ in runs for k in cfg
                   if k not in ("seed", "method", "dirichlet_alpha")
                   and len({c.get(k) for c, _ in runs}) > 1})
    cells = {}
    for cfg, acc in runs:
        label = (cfg["method"], *(cfg.get(k) for k in axes))
        cells.setdefault((label, cfg["dirichlet_alpha"]), []).append(acc)

    labels = sorted({label for label, _ in cells})
    alphas = sorted({a for _, a in cells})
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", *axes] + [f"alpha={a:g}" for a in alphas])
        for label in labels:
            # an axis value as it is written in a `--set` override
            out = [label[0], *(v if isinstance(v, str) else json.dumps(v)
                               for v in label[1:])]
            for a in alphas:
                vals = cells.get((label, a))
                if not vals:
                    out.append("absent")
                elif len(vals) == 1:
                    out.append(f"{vals[0]:.4f}")
                else:
                    out.append(f"{np.mean(vals):.4f}+-{np.std(vals):.4f}")
            writer.writerow(out)


def old_read_metrics(path):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for r in reader:
            rows.append([int(r["round"]), int(r["client_id"]), r["split"],
                         float(r["accuracy"]) if r["accuracy"] else float("nan")])
    return rows


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def same(a, b):
    """np.array_equal (NaN equal to NaN), and also the same dtype, shape
    and bytes: a zero's sign and a NaN's payload count too."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
            and a.tobytes() == b.tobytes())


def same_topology(t, u):
    return all(same(getattr(t, f), getattr(u, f))
               for f in ("incidence", "edge_weights", "vertex_degrees",
                         "edge_degrees"))


def mlp(dims, acts, seed, negative_slope=False):
    p = init_params(Layout().add("mlp", dims, acts), child_rng(seed, "p"))
    rng = child_rng(seed, "b")
    for i, (_, _, b, s) in enumerate(p.blocks["mlp"]):
        b[...] = rng.standard_normal(b.shape)
        if s is not None and negative_slope:
            s[...] = -0.3
    return p


ACTS = ["relu", "prelu", "sigmoid", "linear"]
ROWS = [(1,), (32,), (4, 32)]  # one row, one batch, a stack of batches


# ---------------------------------------------------------------------------
# numcore
# ---------------------------------------------------------------------------

class TestMlpSameBits:
    @pytest.mark.parametrize("act", ACTS)
    @pytest.mark.parametrize("rows", ROWS)
    def test_forward(self, act, rows):
        p = mlp([5, 7, 3], [act, act], seed=len(rows) * 10 + len(act),
                negative_slope=True)
        x = child_rng(1, "x", act).standard_normal(rows + (5,))
        out, cache = mlp_forward(p, "mlp", x)
        want, want_cache = old_mlp_forward(p, "mlp", x)
        assert same(out, want)
        for (a, _, o), (wa, _, wo) in zip(cache, want_cache):
            assert same(a, wa) and same(o, wo)

    @pytest.mark.parametrize("act", ACTS)
    @pytest.mark.parametrize("rows", [1, 32])
    @pytest.mark.parametrize("negative_slope", [False, True])
    def test_backward(self, act, rows, negative_slope):
        p = mlp([5, 7, 3], [act, act], seed=rows, negative_slope=negative_slope)
        rng = child_rng(2, "x", act, rows)
        x = rng.standard_normal((rows, 5))
        x[0, :2] = 0.0  # exact zeros reach the ReLU and PReLU masks
        g_out = rng.standard_normal((rows, 3))
        g_out[-1, 0] = -0.0
        grads, want_grads = Params(p.layout), Params(p.layout)
        g_in = mlp_backward(p, "mlp", mlp_forward(p, "mlp", x)[1], g_out,
                            grads)
        want = old_mlp_backward(p, "mlp", old_mlp_forward(p, "mlp", x)[1],
                                g_out, want_grads)
        assert same(g_in, want)
        assert same(grads.vector, want_grads.vector)

    def test_backward_leaves_grad_output_unchanged(self):
        p = mlp([4, 3], ["linear"], seed=3)
        g_out = np.ones((2, 3))
        _, cache = mlp_forward(p, "mlp", np.ones((2, 4)))
        mlp_backward(p, "mlp", cache, g_out, Params(p.layout))
        assert same(g_out, np.ones((2, 3)))


class TestSolveLinearSameBits:
    @pytest.mark.parametrize("n", [1, 7, 32])
    @pytest.mark.parametrize("rhs", [None, 1, 7])
    def test_matches_cho_solve(self, n, rhs):
        for seed in range(5):
            rng = child_rng(seed, "spd", n)
            m = rng.standard_normal((n, n))
            a = m @ m.T + n * np.eye(n)
            b = rng.standard_normal((n,) if rhs is None else (n, rhs))
            want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), b)
            assert same(solve_linear(a, b), want)

    def test_propagation_systems_match_cho_solve(self):
        x = child_rng(4, "prop").standard_normal((6, 32, 8))
        y = ec_block.one_hot(child_rng(4, "y").integers(1, 8, (6, 32)), 7)
        for a, b in zip(ec_block.propagation_system(x, CFG), y):
            want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), b)
            assert same(solve_linear(a, b), want)


# ---------------------------------------------------------------------------
# hypergraph
# ---------------------------------------------------------------------------

def knn_inputs():
    """Batches that take every branch of the k-NN build: distinct rows,
    duplicate rows (ties at and below the k-th distance), a lattice with
    many equal distances, identical rows, non-finite rows, and stacks of
    those."""
    rng = child_rng(5, "knn")
    distinct = rng.standard_normal((32, 6))
    dup = distinct.copy()
    dup[5:17] = dup[3]
    lattice = np.stack(np.meshgrid(np.arange(4.0), np.arange(4.0)),
                       axis=-1).reshape(16, 2)
    non_finite = distinct.copy()
    non_finite[4, 1], non_finite[9, 0] = np.nan, np.inf
    return [distinct, dup, lattice, np.ones((6, 3)), distinct[:2],
            distinct[:1], non_finite, np.stack([distinct, dup]),
            rng.standard_normal((5, 32, 6))]


class TestHypergraphSameBits:
    @pytest.mark.parametrize("mode", ["median", "fixed"])
    @pytest.mark.parametrize("k", [1, 3, 10, 31, 32, 50])
    def test_build_knn(self, mode, k):
        cfg = ExperimentConfig(bandwidth_mode=mode, fixed_sigma=0.7)
        for x in knn_inputs():
            got = hypergraph.build_knn_hypergraph(x, k, cfg)
            assert same_topology(got, old_build_knn_hypergraph(x, k, cfg))

    def test_median_bandwidth(self):
        rng = child_rng(6, "median")
        cases = [old_pairwise_sq_dist(x) for x in knn_inputs()]
        with_nan = old_pairwise_sq_dist(rng.standard_normal((3, 9, 4)))
        with_nan[1, 2, 5] = with_nan[1, 5, 2] = np.nan
        cases += [with_nan, np.zeros((2, 4, 4))]
        for d2 in cases:
            assert same(hypergraph.median_bandwidth(d2.copy()),
                        old_median_bandwidth(d2.copy()))

    def test_pairwise_sq_dist(self):
        for x in knn_inputs():
            assert same(pairwise_sq_dist(x), old_pairwise_sq_dist(x))

    def test_normalized_operator(self):
        for x in knn_inputs():
            t = old_build_knn_hypergraph(x, 3, CFG)
            assert same(hypergraph.normalized_operator(t),
                        old_normalized_operator(t))

    @pytest.mark.parametrize("shape", [(1,), (32,), (4, 32)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_hgnn_backward(self, shape):
        # (4, 32) is the relabel pass's shape: one model on a stack of
        # batches, each with its own operator
        rng = child_rng(7, "hgnn", *shape)
        p = init_params(hypergraph.add_hgnn(Layout(), "h", [6, 5, 5, 4]), rng)
        x = rng.standard_normal((*shape, 6))
        s = old_normalized_operator(old_build_knn_hypergraph(x, 3, CFG))
        g_out = rng.standard_normal((*shape, 4))
        out, _ = hypergraph.hgnn_forward(p, "h", x, s)
        assert same(out, old_hgnn_forward(p, "h", x, s)[0])
        # a backward pass writes one gradient per model, so a stack of
        # batches runs on as many copies of the model
        lead = shape[:-1]
        p = Params(p.layout, np.tile(p.vector, (*lead, 1)))
        out, cache = hypergraph.hgnn_forward(p, "h", x, s)
        grads = Params(p.layout, np.zeros(p.vector.shape))
        g_in = hypergraph.hgnn_backward(p, "h", cache, g_out, grads)
        for j in np.ndindex(lead):
            alone = Params(p.layout, p.vector[j])
            want_out, want_cache = old_hgnn_forward(alone, "h", x[j], s[j])
            assert same(out[j], want_out)
            want_grads = Params(p.layout)
            want = old_hgnn_backward(alone, "h", want_cache, g_out[j],
                                     want_grads)
            assert same(g_in[j], want)
            assert same(grads.vector[j], want_grads.vector)


# ---------------------------------------------------------------------------
# ue_block, ec_block
# ---------------------------------------------------------------------------

class TestLossesSameBits:
    @pytest.mark.parametrize("n", [1, 2, 32])
    def test_weighted_ce_loss(self, n):
        for seed in range(10):
            rng = child_rng(seed, "wce", n)
            logits = 3.0 * rng.standard_normal((n, 7))
            labels = rng.integers(1, 8, n)
            beta = rng.uniform(0.0, 1.0, n)
            if seed == 0:
                beta[:] = 0.0  # the baseline's call
            got = ue_block.weighted_ce_loss(logits, labels, beta)
            want = old_weighted_ce_loss(logits, labels, beta)
            assert all(same(g, w) for g, w in zip(got, want))

    def test_weighted_ce_loss_rejects_labels_out_of_range(self):
        for bad in (0, 8):
            with pytest.raises(ValueError):
                ue_block.weighted_ce_loss(np.zeros((2, 7)), [1, bad],
                                          np.zeros(2))

    def test_weight_reg_loss(self):
        for seed in range(20):
            rng = child_rng(seed, "wreg")
            beta = rng.uniform(0.0, 1.0, int(rng.integers(2, 40)))
            cfg = ExperimentConfig(eta=float(rng.uniform(0.1, 0.9)))
            got = ue_block.weight_reg_loss(beta, cfg)
            want = old_weight_reg_loss(beta, cfg)
            assert same(got[0], want[0]) and same(got[1], want[1])

    def test_propagation_system(self):
        for lam in (0.5, 1.0, 3.0):
            cfg = ExperimentConfig(prop_lambda=lam, ec_neighbor_count=3)
            for x in knn_inputs():
                assert same(ec_block.propagation_system(x, cfg),
                            old_propagation_system(x, cfg))


# ---------------------------------------------------------------------------
# federation
# ---------------------------------------------------------------------------

class TestPrototypeGradsSameBits:
    def test_prototype_loss(self):
        for seed in range(20):
            rng = child_rng(seed, "ploss")
            local = rng.standard_normal((7, 5))
            glob = rng.standard_normal((7, 5))
            glob[2] = local[2]  # a zero difference: sign 0
            lp, gp = rng.random(7) < 0.7, rng.random(7) < 0.7
            got = federation.prototype_loss(local, lp, glob, gp)
            want = old_prototype_loss(local, lp, glob, gp)
            assert same(got[0], want[0]) and same(got[1], want[1])

    @pytest.mark.parametrize("lambda2", [0.0, 0.1, 1.0])
    def test_row_grads(self, lambda2):
        for seed in range(20):
            rng = child_rng(seed, "grad-e")
            n = int(rng.integers(1, 33))
            # classes 1 and 2 never appear; class 7 has exactly one row
            labels = rng.integers(3, 7, n)
            labels[rng.integers(n)] = 7
            e = rng.standard_normal((n, 5))
            protos, present, counts = federation.batch_prototypes(e, labels, 7)
            glob = rng.standard_normal((7, 5))
            glob_present = rng.random(7) < 0.8
            _, grad_protos = federation.prototype_loss(
                protos, present, glob, glob_present)
            got = federation.prototype_row_grads(grad_protos, counts, labels,
                                                 lambda2)
            want = old_grad_e(e, grad_protos, counts, labels, lambda2)
            assert same(got, want)


def small_model(seed):
    cfg = ExperimentConfig(feature_dim=6, backbone_dim=8, expr_dim=5,
                           classes=4)
    return cfg, federation.init_model(cfg, [child_rng(seed, "model")])[0]


class _Dataset:
    def __init__(self, features, labels):
        self.features, self.clean_labels = features, labels
        self.n_classes = int(labels.max())


class TestAggregateSameBits:
    """The stacked prototype mean against the per-class loop it replaced."""

    @staticmethod
    def updates(rng, k, n_classes, width, held):
        out = []
        for i in rng.permutation(k):
            protos = rng.standard_normal((n_classes, width))
            protos *= 10.0 ** rng.integers(-6, 7, size=protos.shape)
            protos[rng.random(protos.shape) < 0.1] = -0.0
            present = rng.random(n_classes) < held
            protos[~present] = rng.choice([0.0, 1.0, np.inf])  # unread
            out.append(federation.ClientUpdate(
                client_id=int(i), shared=np.zeros(1), prototypes=protos,
                proto_present=present, n_samples=int(rng.integers(1, 500))))
        return out

    @pytest.mark.parametrize("mode", ["uniform", "data-size"])
    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_prototypes(self, mode, width):
        zeros = 0
        for seed in range(60):
            rng = child_rng(seed, "agg-protos", mode, width)
            # one contributor, then up to 40 (more than eight reach numpy's
            # pairwise summation if the sum were a reduction)
            k = 1 if seed % 6 == 0 else int(rng.integers(2, 41))
            n_classes = int(rng.integers(1, 8))
            held = (0.0, 0.3, 1.0)[seed % 3]  # none, some, every class
            updates = self.updates(rng, k, n_classes, width, held)
            server = federation.ServerState(
                shared=np.zeros(1),
                prototypes=rng.standard_normal((n_classes, width)),
                proto_present=rng.random(n_classes) < 0.5)
            # the frozen result first: aggregate writes into server
            want = old_aggregate_prototypes(server, updates, mode)
            federation.aggregate(server, updates, mode)
            assert same(server.prototypes, want[0]), seed
            assert same(server.proto_present, want[1]), seed
            zeros += sum(int(np.sum(np.signbit(u.prototypes)
                                    & (u.prototypes == 0.0)))
                         for u in updates)
        assert zeros > 0  # negative zeros were summed


class TestEvaluationSameBits:
    @pytest.mark.parametrize("rows", [1, 32, 431])
    def test_evaluate(self, rows):
        cfg, params = small_model(rows)
        rng = child_rng(8, "eval", rows)
        ds = _Dataset(rng.standard_normal((500, 6)), rng.integers(1, 5, 500))
        idx = rng.permutation(500)[:rows]
        deep, _ = mlp_forward(params, "backbone", ds.features[idx])
        logits, _, _ = ec_block.ec_forward(deep, params)
        want = float(np.mean(np.argmax(logits, axis=1) + 1
                             == ds.clean_labels[idx]))
        got = federation.evaluate(params, ds, idx)
        assert type(got) is float and got == want

    def test_compute_prototypes(self):
        cfg, params = small_model(9)
        rng = child_rng(9, "protos")
        ds = _Dataset(rng.standard_normal((80, 6)), rng.integers(1, 5, 80))
        client = federation.ClientState(
            id=0, train_idx=rng.permutation(80)[:50], test_idx=np.arange(0),
            params=params, working_labels=ds.clean_labels.copy())
        deep, _ = mlp_forward(params, "backbone", ds.features[client.train_idx])
        e, _ = mlp_forward(params, "ec.expr", deep)
        want = federation.batch_prototypes(
            e, client.working_labels[client.train_idx], 4)
        protos, present = federation.compute_prototypes(client, ds)
        assert same(protos, want[0]) and same(present, want[1])


# ---------------------------------------------------------------------------
# Stacked kernels: K models in one call, against each model alone
# ---------------------------------------------------------------------------

K = 3


def stacked(layout, seed):
    """K random models of layout as the first K rows of a (K + 1, P)
    matrix, as lockstep training holds them, and each model as a Params
    over a copy of its own. Biases and slopes are random too."""
    rows = []
    for j in range(K):
        p = init_params(layout, child_rng(seed, "row", j))
        rng = child_rng(seed, "extra", j)
        for block in p.blocks.values():
            for _, _, b, s in block:
                if b is not None:
                    b[...] = rng.standard_normal(b.shape)
                if s is not None:
                    s[...] = rng.uniform(-0.5, 0.5)
        rows.append(p)
    matrix = np.zeros((K + 1, layout.size))
    matrix[:K] = [p.vector for p in rows]
    return Params(layout, matrix[:K]), rows


def grad_stack(layout):
    return Params(layout, np.zeros((K + 1, layout.size))[:K])


class TestStackedSameBits:
    @pytest.mark.parametrize("act", ACTS)
    @pytest.mark.parametrize("rows", [1, 32])
    def test_mlp(self, act, rows):
        layout = Layout().add("mlp", [5, 7, 3], [act, act])
        params, alone = stacked(layout, seed=rows * 10 + len(act))
        rng = child_rng(10, "x", act, rows)
        x = rng.standard_normal((K, rows, 5))
        x[:, 0, :2] = 0.0  # exact zeros reach the ReLU and PReLU masks
        g_out = rng.standard_normal((K, rows, 3))
        out, cache = mlp_forward(params, "mlp", x)
        grads = grad_stack(layout)
        g_in = mlp_backward(params, "mlp", cache, g_out, grads)
        no_input = grad_stack(layout)
        assert mlp_backward(params, "mlp", cache, g_out, no_input,
                            input_grad=False) is None
        assert same(no_input.vector, grads.vector)
        for j, p in enumerate(alone):
            want, want_cache = mlp_forward(p, "mlp", x[j])
            assert same(out[j], want)
            want_grads = Params(layout)
            want_in = mlp_backward(p, "mlp", want_cache, g_out[j], want_grads)
            assert same(g_in[j], want_in)
            assert same(grads.vector[j], want_grads.vector)

    @pytest.mark.parametrize("rows", [1, 32])
    def test_hgnn(self, rows):
        layout = hypergraph.add_hgnn(Layout(), "h", [6, 5, 5, 4])
        params, alone = stacked(layout, seed=20 + rows)
        rng = child_rng(11, "hgnn", rows)
        x = rng.standard_normal((K, rows, 6))
        s = hypergraph.normalized_operator(
            hypergraph.build_knn_hypergraph(x, 3, CFG))
        g_out = rng.standard_normal((K, rows, 4))
        out, cache = hypergraph.hgnn_forward(params, "h", x, s)
        grads = grad_stack(layout)
        g_in = hypergraph.hgnn_backward(params, "h", cache, g_out, grads)
        for j, p in enumerate(alone):
            want, want_cache = hypergraph.hgnn_forward(p, "h", x[j], s[j])
            assert same(out[j], want)
            want_grads = Params(layout)
            want_in = hypergraph.hgnn_backward(p, "h", want_cache, g_out[j],
                                               want_grads)
            assert same(g_in[j], want_in)
            assert same(grads.vector[j], want_grads.vector)

    @pytest.mark.parametrize("rows", [2, 32])
    def test_ue_and_ec(self, rows):
        cfg = ExperimentConfig(feature_dim=6, backbone_dim=8, compact_dim=6,
                               relational_dim=5, estimator_hidden=4,
                               expr_dim=5, classes=4, neighbor_count=3)
        layout = federation.model_layout(cfg)
        params, alone = stacked(layout, seed=30 + rows)
        rng = child_rng(12, "ue-ec", rows)
        x = rng.standard_normal((K, rows, cfg.backbone_dim))
        g_beta = rng.standard_normal((K, rows))
        g_logits = rng.standard_normal((K, rows, cfg.classes))
        g_e = rng.standard_normal((K, rows, cfg.expr_dim))
        beta, ue_cache = ue_block.ue_forward(x, params, cfg)
        logits, e, ec_cache = ec_block.ec_forward(x, params)
        grads = grad_stack(layout)
        g_ec = ec_block.ec_backward(params, ec_cache, g_logits, grads,
                                    g_e.copy())
        g_ue = ue_block.ue_backward(params, ue_cache, g_beta, grads)
        for j, p in enumerate(alone):
            want_beta, want_ue_cache = ue_block.ue_forward(x[j], p, cfg)
            assert same(beta[j], want_beta)
            # the estimator's input, the uncertainty feature [c, r]
            assert same(ue_cache[2][0][0][j], want_ue_cache[2][0][0])
            want_logits, want_e, want_ec_cache = ec_block.ec_forward(x[j], p)
            assert same(logits[j], want_logits) and same(e[j], want_e)
            want_grads = Params(layout)
            want_g_ec = ec_block.ec_backward(p, want_ec_cache, g_logits[j],
                                             want_grads, g_e[j].copy())
            want_g_ue = ue_block.ue_backward(p, want_ue_cache, g_beta[j],
                                             want_grads)
            assert same(g_ec[j], want_g_ec) and same(g_ue[j], want_g_ue)
            assert same(grads.vector[j], want_grads.vector)

    @pytest.mark.parametrize("n", [1, 2, 32])
    def test_losses(self, n):
        rng = child_rng(13, "losses", n)
        logits = 3.0 * rng.standard_normal((K, n, 7))
        labels = rng.integers(1, 8, (K, n))
        beta = rng.uniform(0.0, 1.0, (K, n))
        beta[1] = beta[1, 0]  # equal betas: ties in the certain split
        got = ue_block.weighted_ce_loss(logits, labels, beta)
        for j in range(K):
            want = ue_block.weighted_ce_loss(logits[j], labels[j], beta[j])
            assert all(same(g[j], w) for g, w in zip(got, want))
        for cfg in (ExperimentConfig(eta=0.9, zeta=0.6),
                    ExperimentConfig(eta=0.9, zeta=0.5,
                                     zeta_mode="threshold")):
            got = ue_block.weight_reg_loss(beta, cfg)
            for j in range(K):
                want = ue_block.weight_reg_loss(beta[j], cfg)
                assert all(same(g[j], w) for g, w in zip(got, want))

    def test_sgd_update(self):
        layout = Layout().add("mlp", [5, 7, 3], ["prelu", "linear"])
        params, alone = stacked(layout, seed=40)
        grads, _ = stacked(layout, seed=41)
        want = [(p.vector.copy(), grads.vector[j].copy())
                for j, p in enumerate(alone)]
        grads.vector *= 0.3
        params.vector -= grads.vector
        for j, (vector, g) in enumerate(want):
            g *= 0.3
            vector -= g
            assert same(params.vector[j], vector)


# ---------------------------------------------------------------------------
# Set-up: the streams, initialization, label noise and the partition
# ---------------------------------------------------------------------------

def same_state(a, b):
    """Two generators at the same point of the same stream: every word of
    their bit generators' state, the buffer too, with its dtype."""
    sa, sb = a.bit_generator.state, b.bit_generator.state
    return (sa["bit_generator"] == sb["bit_generator"]
            and same(sa["state"]["counter"], sb["state"]["counter"])
            and same(sa["state"]["key"], sb["state"]["key"])
            and same(sa["buffer"], sb["buffer"])
            and all(sa[k] == sb[k]
                    for k in ("buffer_pos", "has_uint32", "uinteger")))


STREAM_LABELS = [(), ("data",), ("noise",), ("partition",), ("init", 0),
                 ("init", 49), ("init-global",), ("select", 7),
                 ("train", 3, 17, 0), ("train", 99, 4, 1), ("row", "é", -1),
                 (2.5, None, (1, 2))]

# one-layer and two-layer blocks, their weights 3, 5, 2 + 3, 7 and 2
# words: no size is a multiple of 4, so across the subsets below a run of
# skipped blocks starts at every position of Philox's 4-word block
INIT_BLOCKS = [("a", [3, 1], ["linear"]), ("b", [1, 5], ["relu"]),
               ("c", [2, 1, 3], ["prelu", "linear"]),
               ("d", [7, 1], ["sigmoid"]), ("e", [1, 2], ["prelu"])]


def init_layout(keep):
    layout = Layout()
    for (prefix, dims, acts), kept in zip(INIT_BLOCKS, keep):
        if kept:
            layout.add(prefix, dims, acts)
    return layout


class RecordingRng:
    """A generator that logs every call dirichlet_partition makes on it,
    with its arguments."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def permutation(self, n):
        self.calls.append(("permutation", n))
        return self.rng.permutation(n)

    def dirichlet(self, alpha):
        self.calls.append(("dirichlet", alpha.tobytes()))
        return self.rng.dirichlet(alpha)


# seven classes of 1, 1, 2, 5, 30, 60 and 101 samples, in shuffled order
PARTITION_LABELS = np.repeat(np.arange(1, 8), [1, 1, 2, 5, 30, 60, 101])[
    old_child_rng(0, "order").permutation(200)]


class TestSetupSameBits:
    def test_child_rng(self):
        for seed, labels in itertools.product((0, 1, 5, 1009, 2 ** 40),
                                              STREAM_LABELS):
            got, want = child_rng(seed, *labels), old_child_rng(seed, *labels)
            assert same_state(got, want), (seed, labels)
            assert same(got.random(5), want.random(5))
            assert same(got.integers(7, size=5), want.integers(7, size=5))
            assert same_state(got, want), (seed, labels)

    @pytest.mark.parametrize("spare", [False, True],
                             ids=["whole-words", "spare-half-word"])
    def test_skip_doubles(self, spare):
        for before, n in itertools.product(
                range(8), list(range(14)) + [16416, 16417, 16418, 16419]):
            got, want = (child_rng(5, "skip", before) for _ in range(2))
            for rng in (got, want):
                rng.random(before)
                if spare:  # a 32-bit draw keeps the other half of its word
                    rng.integers(5, dtype=np.int32)
            want.random(n)
            skip_doubles(got, n)
            assert same_state(got, want), (before, n)
            assert same(got.random(9), want.random(9))

    def test_init_params_skips_what_it_threw_away(self):
        # every subset of the blocks, so a skipped block comes first, last
        # and two or more in a row
        source = init_layout([True] * len(INIT_BLOCKS))
        starts = set()
        for order in ("abcde", "eadcb"):
            for keep in itertools.product((False, True),
                                          repeat=len(INIT_BLOCKS)):
                layout = init_layout(keep)
                plan = draw_plan(layout, order, source)
                want_plan = old_draw_plan(layout, order, source)
                for seed in range(3):
                    got_rng = child_rng(seed, "init", order, keep)
                    want_rng = old_child_rng(seed, "init", order, keep)
                    got = init_params(layout, got_rng, plan)
                    want = old_init_params(layout, want_rng, want_plan)
                    assert same(got.vector, want.vector), (order, keep)
                    assert same_state(got_rng, want_rng), (order, keep)
                drawn = 0
                for offset, size, _ in plan:
                    if offset is None:
                        starts.add(drawn % 4)
                    drawn += size
        assert starts == {0, 1, 2, 3}

    def test_init_params_default_plan(self):
        layout = init_layout([True] * len(INIT_BLOCKS))
        assert same(init_params(layout, child_rng(3, "p")).vector,
                    old_init_params(layout, old_child_rng(3, "p")).vector)

    @pytest.mark.parametrize("classes", range(2, 9))
    def test_inject_label_noise(self, classes):
        ds = generate_synthetic(classes, 3, 20, 1.0,
                                child_rng(classes, "noise-data"), 1.0)
        for rate in (0.0, 0.01, 0.25, 0.5, 0.99, 1.0):
            got_rng, want_rng = (child_rng(classes, "noise", rate)
                                 for _ in range(2))
            got = inject_label_noise(ds, rate, got_rng)
            want = old_inject_label_noise(ds, rate, want_rng)
            # and a second pass over labels that are already noisy
            got = inject_label_noise(got, rate, got_rng)
            want = old_inject_label_noise(want, rate, want_rng)
            for name in ("features", "observed_labels", "clean_labels",
                         "feature_corrupted"):
                assert same(getattr(got, name), getattr(want, name)), \
                    (rate, name)
            assert same_state(got_rng, want_rng), rate

    def test_dirichlet_partition(self):
        seen = dict.fromkeys(("first draw", "redrawn", "error"), 0)
        for clients, alpha, seed in itertools.product(
                (1, 2, 3, 7, 20, 41, 60), (0.05, 0.3, 1.0, 5.0), range(3)):
            got_rng, want_rng = (RecordingRng(child_rng(seed, "part",
                                                        clients, alpha))
                                 for _ in range(2))
            try:
                want = old_dirichlet_partition(PARTITION_LABELS, clients,
                                               alpha, want_rng)
            except RuntimeError:
                with pytest.raises(PartitionError):
                    dirichlet_partition(PARTITION_LABELS, clients, alpha,
                                        got_rng, 0.2)
                seen["error"] += 1
            else:
                got = dirichlet_partition(PARTITION_LABELS, clients, alpha,
                                          got_rng, 0.2)
                for g, w in zip(got.train_indices + got.test_indices,
                                want[0] + want[1]):
                    assert same(g, w), (clients, alpha, seed)
                draws = sum(name == "dirichlet" for name, _ in want_rng.calls)
                seen["redrawn" if draws > 7 else "first draw"] += 1
            assert got_rng.calls == want_rng.calls, (clients, alpha, seed)
            assert same_state(got_rng.rng, want_rng.rng)
        assert min(seen.values()) > 0, seen

    # 0.29, 0.57 and 0.58 of 100 rows are just below 29, 57 and 58 in
    # float64; 0.001 of 100 rows hits none
    @pytest.mark.parametrize("rate", [0.1, 0.29, 0.57, 0.58, 0.001])
    @pytest.mark.parametrize("noise_rate", [0.0, 0.3])
    def test_build_dataset_corrupts_a_rate_of_rows(self, rate, noise_rate):
        cfg = ExperimentConfig(seed=3, classes=4, feature_dim=3,
                               samples_per_class=25, noise_rate=noise_rate,
                               corruption_rate=rate, corruption_severity=2.0)
        clean = federation.build_dataset(
            dataclasses.replace(cfg, corruption_severity=0.0))
        want = old_corrupt_features(clean, rate, cfg.corruption_severity,
                                    child_rng(cfg.seed, "corrupt"))
        got = federation.build_dataset(cfg)
        for name in ("features", "feature_corrupted", "observed_labels"):
            assert same(getattr(got, name), getattr(want, name)), name
        assert got.feature_corrupted.sum() == _rate_count(rate, 100)


# three cells: on two processes the main one runs cells 0 and 2, so its
# results and the worker's are not in cell order until they are dealt back
SWEEP = ["classes=3", "feature_dim=6", "samples_per_class=20",
         "client_count=3", "rounds=2", "batch_size=8", "neighbor_count=3",
         "ec_neighbor_count=3", "backbone_dim=8", "compact_dim=6",
         "relational_dim=6", "estimator_hidden=6", "expr_dim=6",
         "dirichlet_alpha=[0.3,1.0,5.0]"]
CELL_DIRS = ["dirichlet_alpha=0.3", "dirichlet_alpha=1.0",
             "dirichlet_alpha=5.0"]


class TestSweepSummarySameBits:
    def test_summary_matches_the_cells_files(self, monkeypatch, tmp_path):
        """The sweep summarizes, in cell order, the config and accuracy
        that each cell's resolved_config.json and metrics.csv hold, and
        writes the bytes of the summary built from those files: with
        every cell in this process, and with cell 1 in a cell worker."""
        emit, seen = cli.emit_summary, []

        def spy(runs, out_path):
            seen.append(runs)
            emit(runs, out_path)

        monkeypatch.setattr(cli, "emit_summary", spy)
        for cpus in (1, 2):
            fake_cpus(monkeypatch, cpus)
            assert len(cli.deal_cells(CELL_DIRS)) == cpus
            out = tmp_path / str(cpus)
            args = ["sweep", "--out", str(out)]
            for item in SWEEP:
                args += ["--set", item]
            assert cli.main(args) == 0
            dirs = [out / d for d in CELL_DIRS]
            want = []
            for d in dirs:
                with open(d / "resolved_config.json") as fh:
                    cfg = json.load(fh)
                rows = old_read_metrics(d / "metrics.csv")
                want.append((cfg, federation.final_mean_accuracy(rows)))
            assert seen.pop() == want, cpus
            old_emit_summary(dirs, tmp_path / f"want{cpus}.csv")
            assert ((out / "summary.csv").read_bytes()
                    == (tmp_path / f"want{cpus}.csv").read_bytes()), cpus
