import itertools
import math

import numpy as np
import pytest

from hyperfed import ec_block
from hyperfed.ec_block import (PropagationConfig, RefineConfig, add_ec,
                               ec_backward, ec_forward, label_propagate,
                               one_hot, propagation_system, refine_labels,
                               scores_to_labels)
from hyperfed.hypergraph import KernelConfig
from hyperfed.numcore import (Layout, LinearSolveError, Params, child_rng,
                              finite_diff_grad, init_params)
from hyperfed.ue_block import weighted_ce_loss


def init_ec(in_dim, expr_dim, n_classes, rng):
    return init_params(add_ec(Layout(), in_dim, expr_dim, n_classes), rng,
                       ["ec.expr", "ec.classifier"])


def block_slice(layout, prefix):
    """The slice of the model vector that holds one block."""
    spans = [(o, o + math.prod(shape))
             for name, (o, shape) in layout.slots.items()
             if name.startswith(prefix + ".")]
    return slice(spans[0][0], spans[-1][1])


def richardson_solve(a, y, iters=20000, tol=1e-12):
    """Independent iterative solution of a x = y for SPD a with
    eigenvalues in [1, 1 + 2/lambda]: damped Richardson iteration."""
    ev_hi = np.linalg.eigvalsh(a)[-1]
    omega = 2.0 / (1.0 + ev_hi)
    x = np.zeros_like(y)
    for _ in range(iters):
        r = y - a @ x
        if np.max(np.abs(r)) < tol:
            break
        x = x + omega * r
    return x


class TestLabelPropagate:
    def test_single_vertex_fixed_point(self):
        y = one_hot([2], 3)
        out = label_propagate(
            np.zeros((1, 2)), y,
            PropagationConfig(KernelConfig(neighbor_count=1)))
        assert np.allclose(out, y, atol=1e-12)

    def test_huge_lambda_returns_labels(self):
        rng = child_rng(12, "lam")
        feats = rng.standard_normal((8, 3))
        y = one_hot(rng.integers(1, 4, size=8), 3)
        out = label_propagate(feats, y, PropagationConfig(
            KernelConfig(neighbor_count=3), trade_off=1e9))
        assert np.max(np.abs(out - y)) <= 1e-6

    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_two_independent_oracles(self, lam):
        rng = child_rng(12, "two", str(lam))
        n, c = 9, 4
        feats = rng.standard_normal((n, 3))
        y = one_hot(rng.integers(1, c + 1, size=n), c)
        cfg = PropagationConfig(KernelConfig(neighbor_count=3), trade_off=lam)
        closed = label_propagate(feats, y, cfg)
        a = propagation_system(feats, cfg)
        by_inverse = np.linalg.inv(a) @ y
        by_iteration = richardson_solve(a, y)
        assert np.max(np.abs(closed - by_inverse)) <= 1e-8
        assert np.max(np.abs(closed - by_iteration)) <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_system_matrix_spd(self, seed):
        rng = child_rng(12, "spd", seed)
        feats = rng.standard_normal((int(rng.integers(3, 30)), 4))
        a = propagation_system(
            feats, PropagationConfig(KernelConfig(neighbor_count=3)))
        assert np.max(np.abs(a - a.T)) <= 1e-10
        assert np.linalg.eigvalsh(a)[0] >= 1.0 - 1e-8

    def test_harmonic_labels_on_disconnected_components(self):
        # two tight clusters far apart, K=1: labels constant per component
        feats = np.array([[0.0], [0.1], [100.0], [100.1]])
        labels = [1, 1, 2, 2]
        y = one_hot(labels, 2)
        out = label_propagate(
            feats, y, PropagationConfig(KernelConfig(neighbor_count=1)))
        _, hard = scores_to_labels(out)
        assert list(hard) == labels


    def test_stack_equals_slice_by_slice(self):
        for seed in range(30):
            rng = child_rng(seed, "prop-stack")
            b, n, c = (int(rng.integers(1, 5)), int(rng.integers(1, 16)),
                       int(rng.integers(2, 5)))
            feats = rng.standard_normal((b, n, 3))
            labels = rng.integers(1, c + 1, size=(b, n))
            y = one_hot(labels, c)
            cfg = PropagationConfig(
                KernelConfig(neighbor_count=int(rng.integers(1, 6))),
                trade_off=float(rng.uniform(0.05, 2.0)))
            out = label_propagate(feats, y, cfg)
            assert out.shape == (b, n, c)
            for i in range(b):
                assert np.array_equal(y[i], one_hot(labels[i], c))
                assert np.array_equal(out[i],
                                      label_propagate(feats[i], y[i], cfg))
                assert np.array_equal(scores_to_labels(out)[1][i],
                                      scores_to_labels(out[i])[1])

    def test_stacked_singular_system_raises(self, monkeypatch):
        monkeypatch.setattr(ec_block, "propagation_system",
                            lambda f, cfg: np.stack([np.eye(2),
                                                     np.zeros((2, 2))]))
        with pytest.raises(LinearSolveError):
            label_propagate(np.zeros((2, 2, 1)), np.ones((2, 2, 2)),
                            PropagationConfig())


class TestScoresToLabels:
    def test_dominant_score(self):
        _, labels = scores_to_labels(np.array([[0.0, 5.0, 0.0]]))
        assert labels[0] == 2

    def test_tie_breaks_to_lowest_class(self):
        probs, labels = scores_to_labels(np.zeros((1, 3)))
        assert np.allclose(probs, 1.0 / 3.0)
        assert labels[0] == 1

    def test_matches_loop_argmax_oracle(self):
        rng = child_rng(13, "argmax")
        scores = rng.standard_normal((4, 3))
        _, labels = scores_to_labels(scores)
        for i in range(4):
            best, best_c = -np.inf, None
            for cidx in range(3):
                if scores[i, cidx] > best:
                    best, best_c = scores[i, cidx], cidx + 1
            assert labels[i] == best_c


class TestRefineLabels:
    CFG = RefineConfig(threshold=0.6)

    def test_rule_fires(self):
        refined, changes = refine_labels([0.8], [3], [3], [5], self.CFG)
        assert refined[0] == 3
        assert changes == [(0, 5, 3)]

    def test_below_threshold_keeps_original(self):
        refined, changes = refine_labels([0.4], [3], [3], [5], self.CFG)
        assert refined[0] == 5 and not changes

    def test_disagreement_keeps_original(self):
        refined, changes = refine_labels([0.9], [2], [4], [5], self.CFG)
        assert refined[0] == 5 and not changes

    def test_exhaustive_truth_table(self):
        for beta, lp, ls, orig in itertools.product(
                (0.3, 0.6, 0.9), (1, 2), (1, 2), (1, 2, 3)):
            refined, changes = refine_labels([beta], [lp], [ls], [orig],
                                             self.CFG)
            if beta >= 0.6 and lp == ls:
                want = lp
            else:
                want = orig
            assert refined[0] == want
            assert bool(changes) == (want != orig)

    def test_never_changes_below_threshold_property(self):
        rng = child_rng(13, "cons")
        n = 40
        beta = rng.uniform(0, 1, size=n)
        lp = rng.integers(1, 5, size=n)
        ls = rng.integers(1, 5, size=n)
        orig = rng.integers(1, 5, size=n)
        refined, changes = refine_labels(beta, lp, ls, orig, self.CFG)
        changed = {i for i, _, _ in changes}
        want = {int(i) for i in range(n)
                if beta[i] >= 0.6 and lp[i] == ls[i] and lp[i] != orig[i]}
        assert changed == want
        assert np.all(refined[beta < 0.6] == orig[beta < 0.6])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            refine_labels([0.5], [1, 2], [1], [1], self.CFG)


    def test_stack_changes_count_in_flattened_order(self):
        beta = np.array([[0.9, 0.1], [0.7, 0.8]])
        lp = np.array([[2, 2], [1, 3]])
        orig = np.array([[1, 1], [2, 3]])
        refined, changes = refine_labels(beta, lp, lp, orig, self.CFG)
        assert np.array_equal(refined, [[2, 1], [1, 3]])
        assert changes == [(0, 1, 2), (2, 2, 1)]

class TestEcForwardBackward:
    def test_zero_classifier_uniform_loss(self):
        rng = child_rng(14, "zero")
        p = init_ec(4, 3, 5, rng)
        p["ec.classifier.w0"][:] = 0.0
        x = rng.standard_normal((6, 4))
        labels = rng.integers(1, 6, size=6)
        logits, _, _ = ec_forward(x, p)
        loss, _, _ = weighted_ce_loss(logits, labels, np.zeros(6))
        assert loss == pytest.approx(np.log(5.0), abs=1e-12)

    def test_identity_mlp_hand_classifier(self):
        p = Params(add_ec(Layout(), 3, 3, 2))
        p["ec.expr.w0"][...] = np.eye(3)
        p["ec.classifier.w0"][...] = [[1.0, 0.0], [0.0, 2.0], [1.0, -1.0]]
        p["ec.classifier.b0"][...] = [0.5, -0.5]
        x = np.array([[1.0, 2.0, 3.0]])
        logits, e, _ = ec_forward(x, p)
        assert np.array_equal(e, x)
        assert np.allclose(logits, [[1 + 3 + 0.5, 4 - 3 - 0.5]])

    def test_gradient_matches_finite_differences(self):
        rng = child_rng(14, "fd")
        p = init_ec(4, 3, 3, rng)
        x = rng.standard_normal((5, 4))
        labels = rng.integers(1, 4, size=5)
        beta = rng.uniform(0.1, 0.9, size=5)

        def loss_of(vec, block):
            trial = p.vector.copy()
            trial[block] = vec
            logits, _, _ = ec_forward(x, Params(p.layout, trial))
            return weighted_ce_loss(logits, labels, beta)[0]

        logits, _, cache = ec_forward(x, p)
        _, grad_logits, _ = weighted_ce_loss(logits, labels, beta)
        grads = Params(p.layout)
        ec_backward(p, cache, grad_logits, grads)
        for prefix in ("ec.expr", "ec.classifier"):
            block = block_slice(p.layout, prefix)
            fd = finite_diff_grad(lambda v: loss_of(v, block),
                                  p.vector[block])
            analytic = grads.vector[block]
            assert np.max(np.abs(analytic - fd)
                          / np.maximum(np.abs(fd), 1e-6)) <= 1e-4
