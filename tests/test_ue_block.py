import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfed import hypergraph
from hyperfed.config import ExperimentConfig
from hyperfed.hypergraph import build_knn_hypergraph, normalized_operator
from hyperfed.numcore import Layout, Params, child_rng, init_params, \
    mlp_forward, softmax_rows
from hyperfed.oracles import finite_diff_grad, rel_err
from hyperfed.ue_block import (add_ue, split_certain_uncertain, ue_backward,
                               ue_forward, weight_reg_loss, weighted_ce_loss)

CFG = ExperimentConfig(neighbor_count=2)


def small_ue(rng, in_dim=4, d_c=3, d_r=3, hidden=4):
    return init_params(add_ue(Layout(), in_dim, d_c, d_r, hidden), rng)


def ue_features(cache):
    """The uncertainty feature [compact, relational], the estimator's
    input, from a ue_forward cache."""
    return cache[2][0][0]


def block_slice(layout, prefix):
    """The slice of the model vector that holds one block."""
    spans = [(o, o + math.prod(shape))
             for name, (o, shape) in layout.slots.items()
             if name.startswith(prefix + ".")]
    return slice(spans[0][0], spans[-1][1])


class TestUeForward:
    def test_zero_estimator_gives_half(self):
        rng = child_rng(2, "half")
        p = small_ue(rng)
        for w in (p["ue.estimator.w0"], p["ue.estimator.w1"]):
            w[:] = 0.0
        x = rng.standard_normal((6, 4))
        beta, _ = ue_forward(x, p, CFG)
        assert np.allclose(beta, 0.5)

    def test_single_sample_degenerate_topology(self):
        rng = child_rng(2, "single")
        p = small_ue(rng)
        x = rng.standard_normal((1, 4))
        beta, _ = ue_forward(x, p, CFG)
        c, _ = mlp_forward(p, "ue.compact", x)
        r, _ = hypergraph.hgnn_forward(p, "ue.hgnn", c, np.eye(1))
        want, _ = mlp_forward(p, "ue.estimator",
                              np.concatenate([c, r], axis=1))
        assert np.allclose(beta, want[:, 0])

    def test_matches_straight_line_pipeline_oracle(self):
        rng = child_rng(2, "oracle")
        p = small_ue(rng)
        x = rng.standard_normal((6, 4))
        got, cache = ue_forward(x, p, CFG)

        c, _ = mlp_forward(p, "ue.compact", x)
        s = normalized_operator(
            build_knn_hypergraph(c, CFG.neighbor_count, CFG))
        r, _ = hypergraph.hgnn_forward(p, "ue.hgnn", c, s)
        u = np.concatenate([c, r], axis=1)
        beta, _ = mlp_forward(p, "ue.estimator", u)
        assert np.max(np.abs(got - beta[:, 0])) <= 1e-12
        assert np.max(np.abs(ue_features(cache) - u)) <= 1e-12

    def test_beta_strictly_inside_unit_interval(self):
        rng = child_rng(2, "range")
        p = small_ue(rng)
        x = 100.0 * rng.standard_normal((8, 4))
        beta, _ = ue_forward(x, p, CFG)
        assert np.all(beta > 0.0)
        assert np.all(beta < 1.0)


    @pytest.mark.parametrize("mode", ["median", "fixed"])
    def test_stack_equals_slice_by_slice(self, mode):
        cfg = ExperimentConfig(neighbor_count=3, bandwidth_mode=mode,
                               fixed_sigma=0.8)
        for seed in range(30):
            rng = child_rng(seed, "ue-stack")
            p = small_ue(rng)
            x = rng.standard_normal((int(rng.integers(1, 5)),
                                     int(rng.integers(1, 20)), 4))
            if seed % 3 == 1:
                x[0, : x.shape[1] // 2] = x[0, 0]   # duplicate rows
            beta, cache = ue_forward(x, p, cfg)
            for i, xi in enumerate(x):
                one, one_cache = ue_forward(xi, p, cfg)
                assert np.array_equal(beta[i], one), seed
                assert np.array_equal(ue_features(cache)[i],
                                      ue_features(one_cache)), seed


class TestWeightRegLoss:
    def test_margin_satisfied(self):
        loss, grad = weight_reg_loss(
            [0.1, 0.9], ExperimentConfig(eta=0.2, zeta=0.5))
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_zero_gap(self):
        loss, _ = weight_reg_loss(
            [0.5, 0.5], ExperimentConfig(eta=0.2, zeta=0.5))
        assert loss == pytest.approx(0.2)

    def test_hand_case_and_subgradient(self):
        beta = [0.2, 0.3, 0.8, 0.9]
        cfg = ExperimentConfig(eta=0.2, zeta=0.5)
        loss, grad = weight_reg_loss(beta, cfg)
        assert loss == 0.0  # beta_U - beta_C = 0.85 - 0.25 = 0.6 >= 0.2
        loss, grad = weight_reg_loss(
            beta, ExperimentConfig(eta=0.7, zeta=0.5))
        assert loss == pytest.approx(0.1)
        assert np.allclose(grad, [0.5, 0.5, -0.5, -0.5])

    def test_too_small_batch(self):
        for zeta_mode in ("fraction", "threshold"):
            loss, grad = weight_reg_loss([0.5], ExperimentConfig(
                eta=0.9, zeta_mode=zeta_mode))
            assert loss == 0.0 and np.all(grad == 0.0)

    @given(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=12),
           st.permutations(range(12)))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, betas, perm):
        cfg = ExperimentConfig(eta=0.3, zeta=0.6)
        base, _ = weight_reg_loss(np.array(betas), cfg)
        order = [i for i in perm if i < len(betas)]
        shuffled, _ = weight_reg_loss(np.array(betas)[order], cfg)
        assert base == pytest.approx(shuffled, abs=1e-12)

    @given(st.lists(st.floats(0.01, 0.99), min_size=4, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_exact_zero_when_gap_exceeds_margin(self, betas):
        cfg = ExperimentConfig(eta=0.1, zeta=0.5)
        beta = np.array(betas)
        certain, uncertain = split_certain_uncertain(beta, cfg)
        gap = beta[uncertain].mean() - beta[certain].mean()
        loss, grad = weight_reg_loss(beta, cfg)
        if gap >= cfg.eta:
            assert loss == 0.0
            assert np.all(grad == 0.0)

    def test_threshold_mode_splits_on_absolute_beta(self):
        cfg = ExperimentConfig(eta=0.2, zeta=0.5, zeta_mode="threshold")
        certain, uncertain = split_certain_uncertain(
            np.array([0.1, 0.6, 0.4, 0.9]), cfg)
        assert sorted(certain) == [0, 2]
        assert sorted(uncertain) == [1, 3]


class TestWeightedCeLoss:
    def test_beta_one_limit_is_uniform(self):
        logits = np.array([[3.0, -1.0, 0.5, 2.0, 0.0, 1.0, -2.0]])
        loss, _, _ = weighted_ce_loss(logits, [3], np.array([1.0 - 1e-12]))
        assert loss == pytest.approx(np.log(7.0), abs=1e-6)
        assert np.log(7.0) == pytest.approx(1.945910, abs=1e-6)

    def test_beta_zero_reduces_to_plain_ce(self):
        rng = child_rng(4, "ce")
        logits = rng.standard_normal((5, 3))
        labels = rng.integers(1, 4, size=5)
        loss, _, _ = weighted_ce_loss(logits, labels, np.zeros(5))
        p = softmax_rows(logits)
        want = -np.mean(np.log(p[np.arange(5), labels - 1]))
        assert loss == pytest.approx(want, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = child_rng(4, "fd")
        logits = rng.standard_normal((4, 3))
        labels = rng.integers(1, 4, size=4)
        beta = rng.uniform(0.1, 0.9, size=4)
        loss, gl, gb = weighted_ce_loss(logits, labels, beta)

        fd_l = finite_diff_grad(
            lambda v: weighted_ce_loss(v.reshape(4, 3), labels, beta)[0],
            logits.ravel())
        fd_b = finite_diff_grad(
            lambda v: weighted_ce_loss(logits, labels, v)[0], beta)
        assert rel_err(gl.ravel(), fd_l) <= 1e-4
        assert rel_err(gb, fd_b) <= 1e-4

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            weighted_ce_loss(np.zeros((1, 3)), [4], np.zeros(1))

    def test_raising_beta_moves_prediction_toward_uniform(self):
        # positive true-class margin: higher beta shrinks the true-class prob
        logits = np.array([[4.0, 0.0, -1.0]])
        probs = []
        for b in (0.0, 0.3, 0.6, 0.9):
            p = softmax_rows((1.0 - b) * logits)
            probs.append(p[0, 0])
        assert all(a > b for a, b in zip(probs, probs[1:]))
        assert probs[-1] < 0.6  # approaching 1/3


class TestUeBackward:
    def test_zero_incoming_gradients(self):
        rng = child_rng(8, "z")
        p = small_ue(rng)
        x = rng.standard_normal((5, 4))
        _, cache = ue_forward(x, p, CFG)
        # NaN first: the backward pass must write every gradient
        grads = Params(p.layout, np.full(p.layout.size, np.nan))
        gx = ue_backward(p, cache, np.zeros(5), grads)
        assert np.all(gx == 0.0)
        assert all(np.all(grads[f"ue.estimator.w{i}"] == 0) for i in (0, 1))
        assert all(np.all(grads[f"ue.hgnn.w{i}"] == 0) for i in (0, 1))

    def _full_loss_gradcheck(self, which):
        """FD check of the full lambda1*L_W + L_WCE loss w.r.t. one
        parameter group, with the hypergraph operator frozen."""
        rng = child_rng(8, which)
        p = small_ue(rng)
        x = rng.standard_normal((6, 4))
        labels = rng.integers(1, 4, size=6)
        logits = rng.standard_normal((6, 3))
        lam1 = 0.8
        reg = ExperimentConfig(eta=0.9, zeta=0.5)

        c, _ = mlp_forward(p, "ue.compact", x)
        s = normalized_operator(
            build_knn_hypergraph(c, CFG.neighbor_count, CFG))

        def loss_with(params):
            beta, _ = ue_forward(x, params, CFG, operator=s)
            lw, _ = weight_reg_loss(beta, reg)
            lce, _, _ = weighted_ce_loss(logits, labels, beta)
            return lce + lam1 * lw

        beta, cache = ue_forward(x, p, CFG, operator=s)
        _, _, gb_ce = weighted_ce_loss(logits, labels, beta)
        _, gb_w = weight_reg_loss(beta, reg)
        grads = Params(p.layout)
        ue_backward(p, cache, gb_ce + lam1 * gb_w, grads)

        block = block_slice(p.layout, f"ue.{which}")
        vec = p.vector[block]
        analytic = grads.vector[block]

        def loss_of(v):
            trial = p.vector.copy()
            trial[block] = v
            return loss_with(Params(p.layout, trial))

        assert rel_err(analytic, finite_diff_grad(loss_of, vec)) <= 1e-4

    def test_estimator_path_finite_difference(self):
        self._full_loss_gradcheck("estimator")

    def test_compact_path_finite_difference(self):
        self._full_loss_gradcheck("compact")

    def test_hgnn_path_finite_difference(self):
        self._full_loss_gradcheck("hgnn")


class TestEstimatorPrivacyStructure:
    def test_copy_keeps_estimator_separate(self):
        rng = child_rng(9, "cp")
        p = small_ue(rng)
        q = Params(p.layout, p.vector.copy())
        q["ue.estimator.w0"][:] = 99.0
        assert not np.allclose(p["ue.estimator.w0"], 99.0)

    def test_named_tensors_mark_estimator_private(self):
        from hyperfed import federation
        from hyperfed.config import ExperimentConfig
        cfg = ExperimentConfig()
        params = federation.init_model(cfg, [child_rng(9, "priv")])[0]
        layout = params.layout
        spans = {k: (o, o + math.prod(shape))
                 for k, (o, shape) in layout.slots.items()}
        private = {k for k, (lo, _) in spans.items() if lo >= layout.n_shared}
        shared = set(spans) - private
        assert private  # estimator tensors exist
        assert all(k.startswith("ue.estimator.") for k in private)
        assert not any(k.startswith("ue.estimator.") for k in shared)
        assert all(spans[k][1] <= layout.n_shared for k in shared)
        # everything else is shared, and the tail holds nothing else
        assert np.array_equal(federation.shared_tensors(params),
                              params.vector[:layout.n_shared])
        assert sum(spans[k][1] - spans[k][0] for k in private) == \
            layout.size - layout.n_shared
