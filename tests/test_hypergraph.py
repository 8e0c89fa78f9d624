import numpy as np
import pytest

from hyperfed.hypergraph import (KernelConfig, add_hgnn,
                                 build_knn_hypergraph, hgnn_backward,
                                 hgnn_forward, median_bandwidth,
                                 normalized_operator)
from hyperfed.numcore import (DimensionError, Layout, Params, child_rng,
                              finite_diff_grad, init_params,
                              pairwise_sq_dist)


def init_hgnn(dims, rng):
    """A one-block model "h": an HGNN stack with Glorot thetas."""
    return init_params(add_hgnn(Layout(), "h", dims), rng, ["h"])


def hand_layer(theta, act):
    """A one-layer HGNN block "h" with the given theta."""
    p = Params(Layout().add("h", list(theta.shape), [act], bias=False))
    p["h.w0"][...] = theta
    return p


def operator_oracle(t):
    """Triple-loop evaluation of Dv^-1/2 H W De^-1 H^T Dv^-1/2."""
    n = t.n
    s = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for e in range(n):
                acc += (t.incidence[i, e] * t.edge_weights[e]
                        * t.incidence[j, e] / t.edge_degrees[e])
            s[i, j] = acc / np.sqrt(t.vertex_degrees[i] * t.vertex_degrees[j])
    return s


def knn_loop_oracle(features, cfg):
    """Per-vertex reference: incidence from a loop over each vertex's
    sorted neighbors, edge weights from one dot product per hyperedge."""
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    d2 = pairwise_sq_dist(x)
    h = np.zeros((n, n))
    if cfg.neighbor_count >= n:
        h[:, :] = 1.0
    else:
        order = np.argsort(d2, axis=1, kind="stable")
        for v in range(n):
            members = [u for u in order[v] if u != v][:cfg.neighbor_count]
            h[v, v] = 1.0
            h[members, v] = 1.0
    dist = np.sqrt(d2)
    positive = dist[dist > 0.0]
    if cfg.bandwidth_mode == "fixed":
        sigma = cfg.fixed_sigma
    else:
        sigma = float(np.median(positive)) if positive.size else 0.0
    affinity = (np.exp(-d2 / (2.0 * sigma * sigma)) if sigma > 0.0
                else np.ones_like(d2))
    edge_sizes = h.sum(axis=0)
    edge_weights = np.array([
        float(affinity[e, :] @ h[:, e]) / edge_sizes[e] for e in range(n)])
    return h, edge_weights, h @ edge_weights, edge_sizes


def _oracle_batch(seed):
    """Random batch; most seeds plant ties, duplicate rows or ReLU zeros."""
    rng = child_rng(seed, "oracle-batch")
    n = int(rng.integers(2, 40))
    x = rng.standard_normal((n, int(rng.integers(1, 65))))
    kind = seed % 4
    if kind == 1:
        x = np.round(x)
    elif kind == 2:
        x[rng.integers(0, n, size=n // 2)] = x[0]
    elif kind == 3:
        x = np.maximum(x, 0.0)
    return x, int(rng.integers(1, 12))


class TestBuildKnn:
    @pytest.mark.parametrize("mode", ["median", "fixed"])
    def test_bit_identical_to_loop_oracle(self, mode):
        cases = [_oracle_batch(seed) for seed in range(300)]
        cases += [(np.ones((5, 3)), 2), (np.arange(8.0).reshape(4, 2), 3),
                  (np.arange(8.0).reshape(4, 2), 9), ([[0.5, -1.0]], 1)]
        for x, k in cases:
            cfg = KernelConfig(neighbor_count=k, bandwidth_mode=mode,
                               fixed_sigma=0.7)
            t = build_knn_hypergraph(x, cfg)
            want = knn_loop_oracle(x, cfg)
            got = (t.incidence, t.edge_weights, t.vertex_degrees,
                   t.edge_degrees)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (np.shape(x), k)
            assert t.clamped == (k >= np.shape(x)[0])

    def test_single_vertex(self):
        t = build_knn_hypergraph([[0.0, 0.0]], KernelConfig(neighbor_count=1))
        assert t.clamped
        assert np.array_equal(t.incidence, [[1.0]])
        assert np.allclose(t.edge_weights, [1.0])
        assert np.allclose(t.vertex_degrees, [1.0])
        assert np.allclose(t.edge_degrees, [1.0])

    def test_line_neighbors_by_hand(self):
        t = build_knn_hypergraph([[0.0], [1.0], [10.0]],
                                 KernelConfig(neighbor_count=1))
        # hyperedges: {v0,v1}, {v1,v0}, {v2,v1}
        want_h = np.array([[1.0, 1.0, 0.0],
                           [1.0, 1.0, 1.0],
                           [0.0, 0.0, 1.0]])
        assert np.array_equal(t.incidence, want_h)
        assert np.allclose(t.edge_degrees, [2.0, 2.0, 2.0])
        # with unit weights Dv = [2, 3, 1]
        unit = t.incidence @ np.ones(3)
        assert np.allclose(unit, [2.0, 3.0, 1.0])

    def test_identical_features_unit_weights(self):
        t = build_knn_hypergraph(np.ones((4, 3)), KernelConfig(neighbor_count=2))
        assert np.allclose(t.edge_weights, 1.0)
        assert np.allclose(t.edge_degrees, [3.0, 3.0, 3.0, 3.0])

    def test_k_clamped_when_too_large(self):
        t = build_knn_hypergraph(np.arange(6.0).reshape(3, 2),
                                 KernelConfig(neighbor_count=5))
        assert t.clamped
        assert np.all(t.incidence == 1.0)
        assert np.allclose(t.edge_degrees, 3.0)

    def test_edge_column_count(self):
        rng = child_rng(3, "cols")
        t = build_knn_hypergraph(rng.standard_normal((9, 4)),
                                 KernelConfig(neighbor_count=3))
        assert np.allclose(t.incidence.sum(axis=0), 4.0)
        assert np.all(np.diag(t.incidence) == 1.0)

    def test_deterministic_rebuild(self):
        rng = child_rng(3, "det")
        x = rng.standard_normal((12, 5))
        a = build_knn_hypergraph(x, KernelConfig(neighbor_count=4))
        b = build_knn_hypergraph(x, KernelConfig(neighbor_count=4))
        assert np.array_equal(a.incidence, b.incidence)
        assert np.array_equal(a.edge_weights, b.edge_weights)

    def test_degree_recomputation_invariant(self):
        rng = child_rng(3, "deg")
        t = build_knn_hypergraph(rng.standard_normal((15, 3)),
                                 KernelConfig(neighbor_count=5))
        assert np.allclose(t.edge_degrees, t.incidence.sum(axis=0))
        assert np.allclose(t.vertex_degrees, t.incidence @ t.edge_weights)
        assert np.all(t.edge_weights > 0.0)
        assert np.all(t.vertex_degrees > 0.0)

    def test_fixed_sigma_mode(self):
        x = [[0.0], [1.0], [3.0]]
        a = build_knn_hypergraph(x, KernelConfig(neighbor_count=1,
                                                 bandwidth_mode="fixed",
                                                 fixed_sigma=1.0))
        # e0 = {v0, v1}: mean of exp(0) and exp(-1/2)
        assert np.isclose(a.edge_weights[0], (1.0 + np.exp(-0.5)) / 2.0)


def _stack(seed):
    """(B, n, d) stack whose slices differ in kind (ties, duplicate rows,
    ReLU zeros), so their counts of positive distances differ."""
    rng = child_rng(seed, "stack")
    b, n, d = (int(rng.integers(1, 6)), int(rng.integers(1, 24)),
               int(rng.integers(1, 9)))
    x = rng.standard_normal((b, n, d))
    for i in range(b):
        kind = (seed + i) % 4
        if kind == 1:
            x[i] = np.round(x[i])
        elif kind == 2:
            x[i, rng.integers(0, n, size=n // 2)] = x[i, 0]
        elif kind == 3:
            x[i] = np.maximum(x[i], 0.0)
    return x, int(rng.integers(1, 12))


TOPOLOGY_FIELDS = ("incidence", "edge_weights", "vertex_degrees",
                   "edge_degrees")


class TestStackedCalls:
    @pytest.mark.parametrize("mode", ["median", "fixed"])
    def test_stack_equals_slice_by_slice(self, mode):
        varied = 0   # stacks whose slices differ in positive distances
        for seed in range(120):
            x, k = _stack(seed)
            cfg = KernelConfig(neighbor_count=k, bandwidth_mode=mode,
                               fixed_sigma=0.7)
            stacked = build_knn_hypergraph(x, cfg)
            s_stacked = normalized_operator(stacked)
            layers = init_hgnn([x.shape[-1], 3, 2],
                                      child_rng(seed, "layers"))
            r_stacked, _ = hgnn_forward(layers, "h", x, s_stacked)
            for i, xi in enumerate(x):
                one = build_knn_hypergraph(xi, cfg)
                for name in TOPOLOGY_FIELDS:
                    assert np.array_equal(getattr(stacked, name)[i],
                                          getattr(one, name)), (seed, name)
                assert (stacked.n, stacked.clamped) == (one.n, one.clamped)
                s_one = normalized_operator(one)
                assert np.array_equal(s_stacked[i], s_one), seed
                assert np.array_equal(r_stacked[i],
                                      hgnn_forward(layers, "h", xi,
                                                   s_one)[0]), seed
            positive = np.sum(pairwise_sq_dist(x) > 0.0, axis=(-2, -1))
            varied += len(set(positive.tolist())) > 1
        assert varied > 0

    def test_stack_of_one_is_the_batch(self):
        x, k = _oracle_batch(7)
        cfg = KernelConfig(neighbor_count=k)
        one = build_knn_hypergraph(x, cfg)
        stacked = build_knn_hypergraph(x[None], cfg)
        for name in TOPOLOGY_FIELDS:
            assert np.array_equal(getattr(stacked, name)[0],
                                  getattr(one, name))

    def test_stack_dimension_errors(self):
        with pytest.raises(DimensionError):
            build_knn_hypergraph(np.zeros((3, 0, 2)), KernelConfig())
        with pytest.raises(DimensionError):
            hgnn_forward(init_hgnn([2, 2], child_rng(0, "l")), "h",
                         np.zeros((2, 3, 2)), np.zeros((2, 4, 4)))


def median_oracle(d2):
    dist = np.sqrt(d2)
    positive = dist[dist > 0.0]
    return float(np.median(positive)) if positive.size else np.inf


class TestMedianBandwidth:
    @pytest.mark.parametrize("x", [
        [[0.0]],                                   # n = 1
        [[0.0], [2.0]],                            # n = 2
        [[1.0], [1.0]],                            # n = 2, no positive
        [[0.0], [0.0], [3.0]],                     # zero distance
        [[0.0], [1.0], [2.0], [3.0]],              # ties
        [[0.0], [1.0], [1.0], [2.0], [5.0], [5.0]],
        np.ones((5, 3)),                           # all identical
    ])
    def test_hand_cases(self, x):
        d2 = pairwise_sq_dist(x)
        assert median_bandwidth(d2) == median_oracle(d2)

    def test_one_triangle_median_is_np_median(self):
        for seed in range(400):
            x, _ = _oracle_batch(seed)
            d2 = pairwise_sq_dist(x)
            assert median_bandwidth(d2) == median_oracle(d2), seed
        for seed in range(120):
            x, _ = _stack(seed)
            d2 = pairwise_sq_dist(x)
            got = median_bandwidth(d2)
            assert got.shape == x.shape[:1]
            for i in range(x.shape[0]):
                assert got[i] == median_oracle(d2[i]), seed


class TestNormalizedOperator:
    def test_single_vertex(self):
        t = build_knn_hypergraph([[0.0, 1.0]], KernelConfig(neighbor_count=1))
        assert np.allclose(normalized_operator(t), [[1.0]])

    def test_two_vertices_shared_edge_hand_value(self):
        t = build_knn_hypergraph([[0.0], [0.0]], KernelConfig(neighbor_count=1))
        s = normalized_operator(t)
        assert np.allclose(s, [[0.5, 0.5], [0.5, 0.5]])

    def test_matches_triple_loop_oracle(self):
        t = build_knn_hypergraph([[0.0], [1.0], [10.0]],
                                 KernelConfig(neighbor_count=1))
        s = normalized_operator(t)
        assert np.max(np.abs(s - operator_oracle(t))) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_psd_bounded(self, seed):
        rng = child_rng(seed, "spec")
        n = int(rng.integers(3, 25))
        t = build_knn_hypergraph(rng.standard_normal((n, 4)),
                                 KernelConfig(neighbor_count=min(4, n - 1)))
        s = normalized_operator(t)
        assert np.max(np.abs(s - s.T)) <= 1e-10
        ev = np.linalg.eigvalsh(s)
        assert ev[0] >= -1e-10
        assert ev[-1] <= 1.0 + 1e-8


class TestHgnnForward:
    def test_identity(self):
        x = child_rng(5, "id").standard_normal((4, 3))
        layers = hand_layer(np.eye(3), "linear")
        out, _ = hgnn_forward(layers, "h", x, np.eye(4))
        assert np.array_equal(out, x)

    def test_relu_zeroes_negatives(self):
        x = np.array([[-1.0, 2.0], [3.0, -4.0]])
        layers = hand_layer(np.eye(2), "relu")
        out, _ = hgnn_forward(layers, "h", x, np.eye(2))
        assert np.array_equal(out, np.maximum(x, 0.0))

    def test_matches_straight_line_oracle(self):
        rng = child_rng(5, "fwd")
        x = rng.standard_normal((4, 3))
        s = rng.standard_normal((4, 4))
        s = 0.5 * (s + s.T)
        layers = init_hgnn([3, 5, 2], rng)
        out, _ = hgnn_forward(layers, "h", x, s)
        h = np.maximum(s @ x @ layers["h.w0"], 0.0)
        want = s @ h @ layers["h.w1"]
        assert np.allclose(out, want, atol=1e-13)

    def test_composition_property(self):
        rng = child_rng(5, "comp")
        x = rng.standard_normal((5, 3))
        s = np.eye(5) * 0.5
        layers = init_hgnn([3, 4, 2], rng)
        full, _ = hgnn_forward(layers, "h", x, s)
        step1, _ = hgnn_forward(hand_layer(layers["h.w0"], "relu"), "h", x, s)
        step2, _ = hgnn_forward(hand_layer(layers["h.w1"], "linear"), "h",
                                step1, s)
        assert np.allclose(full, step2)


class TestHgnnBackward:
    def test_zero_grad(self):
        rng = child_rng(6, "z")
        x = rng.standard_normal((4, 3))
        layers = init_hgnn([3, 4, 2], rng)
        out, cache = hgnn_forward(layers, "h", x, np.eye(4))
        # NaN first: the backward pass must write every gradient
        gts = Params(layers.layout, np.full(layers.layout.size, np.nan))
        gx = hgnn_backward(layers, "h", cache, np.zeros_like(out), gts)
        assert all(np.all(g == 0) for g in (gts["h.w0"], gts["h.w1"]))
        assert np.all(gx == 0)

    def test_single_linear_layer_analytic(self):
        rng = child_rng(6, "lin")
        x = rng.standard_normal((4, 3))
        s = rng.standard_normal((4, 4))
        layers = hand_layer(rng.standard_normal((3, 2)), "linear")
        out, cache = hgnn_forward(layers, "h", x, s)
        g = rng.standard_normal(out.shape)
        gts = Params(layers.layout)
        hgnn_backward(layers, "h", cache, g, gts)
        assert np.allclose(gts["h.w0"], (s @ x).T @ g)

    def test_two_layer_relu_finite_difference(self):
        rng = child_rng(6, "fd")
        x = rng.standard_normal((5, 3))
        topo = build_knn_hypergraph(rng.standard_normal((5, 3)),
                                    KernelConfig(neighbor_count=2))
        s = normalized_operator(topo)
        layers = init_hgnn([3, 4, 2], rng)
        target = rng.standard_normal((5, 2))

        def loss_of(vec):
            out, _ = hgnn_forward(Params(layers.layout, vec), "h", x, s)
            return float(np.sum((out - target) ** 2))

        out, cache = hgnn_forward(layers, "h", x, s)
        gts = Params(layers.layout)
        hgnn_backward(layers, "h", cache, 2.0 * (out - target), gts)
        fd = finite_diff_grad(loss_of, layers.vector)
        analytic = gts.vector
        assert np.max(np.abs(analytic - fd)
                      / np.maximum(np.abs(fd), 1e-6)) <= 1e-4

    def test_grad_input_finite_difference(self):
        rng = child_rng(6, "fdx")
        x = rng.standard_normal((4, 3))
        s = 0.3 * np.eye(4) + 0.1
        layers = init_hgnn([3, 4, 2], rng)
        target = rng.standard_normal((4, 2))

        def loss_of(vec):
            out, _ = hgnn_forward(layers, "h", vec.reshape(4, 3), s)
            return float(np.sum((out - target) ** 2))

        out, cache = hgnn_forward(layers, "h", x, s)
        gx = hgnn_backward(layers, "h", cache, 2.0 * (out - target),
                           Params(layers.layout))
        fd = finite_diff_grad(loss_of, x.ravel())
        assert np.max(np.abs(gx.ravel() - fd)
                      / np.maximum(np.abs(fd), 1e-6)) <= 1e-4
