"""The hot-path kernels against frozen copies of the formulas they
replaced, compared with np.array_equal: a rewrite for speed must keep
every bit of every output, or the golden metrics hashes move.

Each `old_*` function below is the earlier implementation, kept verbatim
apart from its name. Do not "fix" or tidy them: they are the reference.
"""

import numpy as np
import pytest
import scipy.linalg

from hyperfed import ec_block, federation, hypergraph, ue_block
from hyperfed.config import ExperimentConfig
from hyperfed.numcore import (Layout, Params, child_rng, init_params,
                              mlp_backward, mlp_forward, pairwise_sq_dist,
                              softmax_rows, solve_linear)

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
        n=n, incidence=h, edge_weights=edge_weights,
        vertex_degrees=vertex_degrees, edge_degrees=edge_sizes,
        clamped=clamped)


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
    return (t.n == u.n and t.clamped == u.clamped
            and all(same(getattr(t, f), getattr(u, f))
                    for f in ("incidence", "edge_weights", "vertex_degrees",
                              "edge_degrees")))


def mlp(dims, acts, seed, negative_slope=False):
    p = init_params(Layout().add("mlp", dims, acts), child_rng(seed, "p"),
                    ["mlp"])
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

    @pytest.mark.parametrize("rows", [1, 32])
    def test_hgnn_backward(self, rows):
        rng = child_rng(7, "hgnn", rows)
        p = init_params(hypergraph.add_hgnn(Layout(), "h", [6, 5, 5, 4]), rng,
                        ["h"])
        x = rng.standard_normal((rows, 6))
        s = old_normalized_operator(old_build_knn_hypergraph(x, 3, CFG))
        g_out = rng.standard_normal((rows, 4))
        out, cache = hypergraph.hgnn_forward(p, "h", x, s)
        want_out, want_cache = old_hgnn_forward(p, "h", x, s)
        assert same(out, want_out)
        grads, want_grads = Params(p.layout), Params(p.layout)
        g_in = hypergraph.hgnn_backward(p, "h", cache, g_out, grads)
        want = old_hgnn_backward(p, "h", want_cache, g_out, want_grads)
        assert same(g_in, want)
        assert same(grads.vector, want_grads.vector)


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
            assert got[2] == want[2]

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
            _, grad_protos, _ = federation.prototype_loss(
                protos, present, glob, glob_present)
            got = federation.prototype_row_grads(grad_protos, counts, labels,
                                                 lambda2)
            want = old_grad_e(e, grad_protos, counts, labels, lambda2)
            assert same(got, want)


def small_model(seed):
    cfg = ExperimentConfig(feature_dim=6, backbone_dim=8, expr_dim=5,
                           classes=4)
    return cfg, federation.init_model(federation.model_layout(cfg),
                                      child_rng(seed, "model"))


class _Dataset:
    def __init__(self, features, labels):
        self.features, self.clean_labels = features, labels
        self.n_classes = int(labels.max())


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
