import copy
import mmap
import os
import pickle

import numpy as np
import pytest

from hyperfed.numcore import (DimensionError, Layout, LinearSolveError,
                              Params, child_rng, init_params, mlp_backward,
                              mlp_forward, pairwise_sq_dist, softmax_rows,
                              solve_linear, zero_vector)
from hyperfed.oracles import finite_diff_grad


def mlp_params(dims, acts, rng):
    """A one-block model "mlp" with Glorot weights."""
    return init_params(Layout().add("mlp", dims, acts), rng)


def hand_mlp(weights, biases, acts):
    """A one-block model "mlp" with the given weights and biases."""
    dims = [weights[0].shape[0]] + [w.shape[1] for w in weights]
    p = Params(Layout().add("mlp", dims, acts))
    for i, (w, b) in enumerate(zip(weights, biases)):
        p[f"mlp.w{i}"][...] = w
        p[f"mlp.b{i}"][...] = b
    return p


class TestSolveLinear:
    def test_identity(self):
        b = np.arange(6.0).reshape(3, 2)
        assert np.allclose(solve_linear(np.eye(3), b), b)

    def test_diagonal(self):
        a = np.diag([2.0, 4.0])
        b = np.array([[2.0], [8.0]])
        assert np.allclose(solve_linear(a, b), [[1.0], [2.0]])

    @pytest.mark.parametrize("n", [10, 50, 200])
    def test_random_spd_residual(self, n):
        rng = child_rng(11, "spd", n)
        m = rng.standard_normal((n, n))
        a = m @ m.T + n * np.eye(n)
        b = rng.standard_normal((n, 3))
        x = solve_linear(a, b)
        resid = np.max(np.abs(a @ x - b))
        assert resid <= 1e-8 * max(1.0, np.max(np.abs(b)))

    def test_singular_raises(self):
        with pytest.raises(LinearSolveError):
            solve_linear(np.zeros((2, 2)), np.ones((2, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["a diagonal", "a lower", "a upper",
                                       "b", "b vector"])
    def test_non_finite_input_raises_value_error(self, bad, where):
        """As scipy's check_finite does, wherever the entry is: also in
        the triangle Cholesky does not read, and in a b the solve would
        pass through."""
        a, b = 4.0 * np.eye(3), np.ones((3, 2))
        if where == "b vector":
            b = np.ones(3)
        target, index = {"a diagonal": (a, (1, 1)), "a lower": (a, (2, 0)),
                         "a upper": (a, (0, 2)), "b": (b, (1, 1)),
                         "b vector": (b, (2,))}[where]
        target[index] = bad
        with pytest.raises(ValueError, match="infs or NaNs") as info:
            solve_linear(a, b)
        assert type(info.value) is ValueError

    def test_not_positive_definite_raises(self):
        with pytest.raises(LinearSolveError, match="not positive definite"):
            solve_linear(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))

    def test_pivot_below_tolerance_raises(self):
        # Cholesky succeeds, but its second pivot is sqrt(1e-30) = 1e-15
        with pytest.raises(LinearSolveError, match="singular"):
            solve_linear(np.diag([1.0, 1e-30]), np.ones((2, 1)))

    def test_overflowing_result_raises(self):
        with pytest.raises(FloatingPointError):
            solve_linear(np.diag([1e-20, 1.0]), np.full(2, 1e300))

    @pytest.mark.parametrize("a,b", [
        (np.ones((2, 3)), np.ones((2, 1))),
        (np.ones(4), np.ones(4)),
        (np.eye(3), np.ones((2, 1))),
    ])
    def test_shape_errors_are_dimension_errors(self, a, b):
        with pytest.raises(DimensionError):
            solve_linear(a, b)


class TestSoftmaxRows:
    def test_symmetry(self):
        assert np.allclose(softmax_rows([[0.0, 0.0]]), [[0.5, 0.5]])

    def test_overflow_guard(self):
        assert np.allclose(softmax_rows([[1000.0, 1000.0]]), [[0.5, 0.5]])

    def test_closed_form(self):
        out = softmax_rows([[np.log(1.0), np.log(3.0)]])
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one_over_wide_range(self):
        rng = child_rng(11, "softmax")
        m = rng.uniform(-1e3, 1e3, size=(40, 9))
        sums = softmax_rows(m).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12


class TestMlp:
    def test_identity_linear_layer(self):
        p = hand_mlp([np.eye(3)], [np.zeros(3)], ["linear"])
        x = child_rng(1, "x").standard_normal((4, 3))
        out, _ = mlp_forward(p, "mlp", x)
        assert np.array_equal(out, x)

    def test_sigmoid_of_zero(self):
        p = hand_mlp([np.zeros((3, 2))], [np.zeros(2)], ["sigmoid"])
        out, _ = mlp_forward(p, "mlp", np.ones((5, 3)))
        assert np.allclose(out, 0.5)

    def test_two_layer_relu_matches_straight_line_oracle(self):
        rng = child_rng(1, "fwd")
        p = mlp_params([3, 5, 2], ["relu", "linear"], rng)
        x = rng.standard_normal((6, 3))
        out, _ = mlp_forward(p, "mlp", x)
        h = np.maximum(x @ p["mlp.w0"] + p["mlp.b0"], 0.0)
        want = h @ p["mlp.w1"] + p["mlp.b1"]
        assert np.allclose(out, want, atol=1e-14)

    def test_zero_grad_output(self):
        rng = child_rng(1, "zg")
        p = mlp_params([3, 4, 2], ["prelu", "sigmoid"], rng)
        x = rng.standard_normal((5, 3))
        _, cache = mlp_forward(p, "mlp", x)
        # NaN first: the backward pass must write every gradient
        grads = Params(p.layout, np.full(p.layout.size, np.nan))
        gx = mlp_backward(p, "mlp", cache, np.zeros((5, 2)), grads)
        assert all(np.all(grads[f"mlp.w{i}"] == 0) for i in range(2))
        assert all(np.all(grads[f"mlp.b{i}"] == 0) for i in range(2))
        assert np.all(gx == 0)

    def test_linear_layer_analytic_grad(self):
        # loss = sum(output) => grad_W = x^T 1, grad_b = 1
        rng = child_rng(1, "lin")
        p = mlp_params([3, 2], ["linear"], rng)
        x = rng.standard_normal((4, 3))
        _, cache = mlp_forward(p, "mlp", x)
        grads = Params(p.layout)
        mlp_backward(p, "mlp", cache, np.ones((4, 2)), grads)
        assert np.allclose(grads["mlp.w0"], x.T @ np.ones((4, 2)))
        assert np.allclose(grads["mlp.b0"], 4.0)

    def test_cache_layer_count_mismatch(self):
        rng = child_rng(1, "cm")
        p = mlp_params([3, 4, 2], ["relu", "linear"], rng)
        q = mlp_params([3, 2], ["linear"], rng)
        _, cache = mlp_forward(q, "mlp", rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            mlp_backward(p, "mlp", cache, np.zeros((2, 2)), Params(p.layout))


    def test_stack_equals_slice_by_slice(self):
        for seed in range(20):
            rng = child_rng(seed, "stack")
            acts = ["relu", "prelu", "sigmoid", "linear"]
            p = mlp_params([5, 7, 3], [acts[seed % 4], "linear"], rng)
            x = rng.standard_normal((int(rng.integers(1, 6)),
                                     int(rng.integers(1, 33)), 5))
            out, cache = mlp_forward(p, "mlp", x)
            for i, xi in enumerate(x):
                out_i, cache_i = mlp_forward(p, "mlp", xi)
                assert np.array_equal(out[i], out_i), seed
                for layer, layer_i in zip(cache, cache_i):
                    for a, b in zip(layer, layer_i):
                        assert np.array_equal(a[i], b), seed

    def test_input_without_row_axis_rejected(self):
        p = mlp_params([3, 2], ["relu"], child_rng(0, "p"))
        with pytest.raises(DimensionError):
            mlp_forward(p, "mlp", np.ones(3))


class TestParams:
    def test_layout_packs_names_in_order_private_last(self):
        layout = Layout().add("a", [2, 3], ["prelu"])
        layout.add("h", [3, 3, 1], ["relu", "linear"], bias=False)
        layout.add("p", [1, 2], ["linear"], private=True)
        assert layout.slots == {
            "a.w0": (0, (2, 3)), "a.b0": (6, (3,)), "a.s0": (9, (1,)),
            "h.w0": (10, (3, 3)), "h.w1": (19, (3, 1)),
            "p.w0": (22, (1, 2)), "p.b0": (24, (2,))}
        assert (layout.n_shared, layout.size) == (22, 26)
        with pytest.raises(ValueError):
            layout.add("late", [2, 2], ["relu"])

    def test_views_alias_the_vector(self):
        rng = child_rng(2, "alias")
        p = mlp_params([3, 4, 2], ["prelu", "sigmoid"], rng)
        x = rng.standard_normal((5, 3))
        before, _ = mlp_forward(p, "mlp", x)
        p.vector[p.layout.slots["mlp.s0"][0]] = -3.0
        assert p["mlp.s0"][0] == -3.0
        after, _ = mlp_forward(p, "mlp", x)
        assert not np.array_equal(before, after)
        p.vector -= 0.5
        moved, _ = mlp_forward(p, "mlp", x)
        assert not np.array_equal(after, moved)

    @pytest.mark.parametrize("populate", [True, False])
    def test_zero_vector_is_private_writable_zeros(self, populate,
                                                   monkeypatch):
        if not populate:  # the path of platforms without MAP_POPULATE
            monkeypatch.delattr(mmap, "MAP_POPULATE", raising=False)
        elif not hasattr(mmap, "MAP_POPULATE"):
            pytest.skip("no MAP_POPULATE on this platform")
        v = zero_vector(1000)
        assert v.shape == (1000,) and not np.any(v)
        v[:] = 1.0
        pid = os.fork()
        if pid == 0:  # a forked copy writes its own pages only
            v[:] = 7.0
            os._exit(0)
        os.waitpid(pid, 0)
        assert np.all(v == 1.0)
        assert zero_vector(0).shape == (0,)

    def test_deep_copy_and_pickle_view_their_own_vector(self):
        p = mlp_params([3, 4, 2], ["prelu", "sigmoid"], child_rng(2, "copy"))
        for q in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert np.array_equal(q["mlp.w0"], p["mlp.w0"])
            q.vector[:] = 1.0
            assert np.all(q["mlp.w0"] == 1.0)
            assert np.all(q.blocks["mlp"][1][1] == 1.0)
            assert not np.any(p.vector == 1.0)

    def test_vector_of_wrong_length_rejected(self):
        layout = Layout().add("mlp", [3, 2], ["relu"])
        with pytest.raises(DimensionError):
            Params(layout, np.zeros(layout.size + 1))


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda t: float(t[0] ** 2), np.array([3.0]))
        assert abs(g[0] - 6.0) <= 1e-6

    def test_constant(self):
        g = finite_diff_grad(lambda t: 5.0, np.array([1.0, -2.0]))
        assert np.all(g == 0.0)


class TestPairwiseSqDist:
    def test_single_point(self):
        assert np.array_equal(pairwise_sq_dist([[1.0, 2.0]]), [[0.0]])

    def test_points_on_line(self):
        d = pairwise_sq_dist([[0.0], [3.0]])
        assert np.allclose(d, [[0.0, 9.0], [9.0, 0.0]])

    def test_matches_loop_oracle(self):
        rng = child_rng(1, "pd")
        x = rng.standard_normal((5, 4))
        d = pairwise_sq_dist(x)
        for i in range(5):
            for j in range(5):
                want = float(np.sum((x[i] - x[j]) ** 2))
                assert abs(d[i, j] - want) <= 1e-10
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0.0)


    def test_stack_equals_slice_by_slice(self):
        rng = child_rng(1, "pd-stack")
        x = rng.standard_normal((4, 9, 3))
        x[1, 5] = x[1, 2]
        d = pairwise_sq_dist(x)
        for i in range(4):
            assert np.array_equal(d[i], pairwise_sq_dist(x[i]))
            assert np.array_equal(d[i], d[i].T)


class TestRng:
    def test_same_seed_same_stream(self):
        a = child_rng(42, "x").standard_normal(10)
        b = child_rng(42, "x").standard_normal(10)
        assert np.array_equal(a, b)

    def test_child_streams_differ(self):
        a = child_rng(42, "x").standard_normal(10)
        b = child_rng(42, "y").standard_normal(10)
        c = child_rng(43, "x").standard_normal(10)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_tuple_labels(self):
        a = child_rng(0, "train", 3, 1).standard_normal(4)
        b = child_rng(0, "train", 3, 1).standard_normal(4)
        assert np.array_equal(a, b)
