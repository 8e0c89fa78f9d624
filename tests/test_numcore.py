import numpy as np
import pytest

from hyperfed import numcore
from hyperfed.numcore import (DimensionError, LinearSolveError, child_rng,
                              finite_diff_grad, init_mlp, mat_mul,
                              mlp_backward, mlp_forward, mlp_from_vector,
                              mlp_to_vector, pairwise_sq_dist, softmax_rows,
                              solve_linear)


def rel_err(a, b, floor=1e-6):
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b) / np.maximum(np.abs(b), floor))


class TestMatMul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(mat_mul(a, np.eye(2)), a)

    def test_identity_times_vector(self):
        b = np.array([[5.0], [7.0]])
        assert np.array_equal(mat_mul(np.eye(2), b), b)

    def test_hand_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        ones = np.array([[1.0], [1.0]])
        assert np.array_equal(mat_mul(a, ones), np.array([[3.0], [7.0]]))

    def test_dimension_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 2\).*\(3, 1\)"):
            mat_mul(np.eye(2), np.zeros((3, 1)))


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
        x = solve_linear(a, b, spd=True)
        resid = np.max(np.abs(a @ x - b))
        assert resid <= 1e-8 * max(1.0, np.max(np.abs(b)))

    def test_singular_raises(self):
        with pytest.raises(LinearSolveError):
            solve_linear(np.zeros((2, 2)), np.ones((2, 1)))

    def test_nonsymmetric_lu_path(self):
        rng = child_rng(11, "lu")
        a = rng.standard_normal((8, 8)) + 8 * np.eye(8)
        b = rng.standard_normal((8, 2))
        x = solve_linear(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-8


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
        p = numcore.MlpParams([np.eye(3)], [np.zeros(3)], ["linear"])
        x = child_rng(1, "x").standard_normal((4, 3))
        out, _ = mlp_forward(p, x)
        assert np.array_equal(out, x)

    def test_sigmoid_of_zero(self):
        p = numcore.MlpParams([np.zeros((3, 2))], [np.zeros(2)], ["sigmoid"])
        out, _ = mlp_forward(p, np.ones((5, 3)))
        assert np.allclose(out, 0.5)

    def test_two_layer_relu_matches_straight_line_oracle(self):
        rng = child_rng(1, "fwd")
        p = init_mlp([3, 5, 2], ["relu", "linear"], rng)
        x = rng.standard_normal((6, 3))
        out, _ = mlp_forward(p, x)
        h = np.maximum(x @ p.weights[0] + p.biases[0], 0.0)
        want = h @ p.weights[1] + p.biases[1]
        assert np.allclose(out, want, atol=1e-14)

    def test_zero_grad_output(self):
        rng = child_rng(1, "zg")
        p = init_mlp([3, 4, 2], ["prelu", "sigmoid"], rng)
        x = rng.standard_normal((5, 3))
        _, cache = mlp_forward(p, x)
        grads, gx = mlp_backward(p, cache, np.zeros((5, 2)))
        assert all(np.all(w == 0) for w in grads.weights)
        assert all(np.all(b == 0) for b in grads.biases)
        assert np.all(gx == 0)

    def test_linear_layer_analytic_grad(self):
        # loss = sum(output) => grad_W = x^T 1, grad_b = 1
        rng = child_rng(1, "lin")
        p = init_mlp([3, 2], ["linear"], rng)
        x = rng.standard_normal((4, 3))
        _, cache = mlp_forward(p, x)
        grads, _ = mlp_backward(p, cache, np.ones((4, 2)))
        assert np.allclose(grads.weights[0], x.T @ np.ones((4, 2)))
        assert np.allclose(grads.biases[0], 4.0)

    @pytest.mark.parametrize("acts", [["relu", "linear"],
                                      ["prelu", "sigmoid"],
                                      ["sigmoid", "relu", "linear"]])
    def test_backward_matches_finite_differences(self, acts):
        rng = child_rng(1, "fd", str(acts))
        dims = [3] + [4] * (len(acts) - 1) + [2]
        p = init_mlp(dims, acts, rng)
        x = rng.standard_normal((6, 3))
        target = rng.standard_normal((6, 2))

        def loss_of(vec):
            out, _ = mlp_forward(mlp_from_vector(vec, p), x)
            return float(np.sum((out - target) ** 2))

        out, cache = mlp_forward(p, x)
        grads, _ = mlp_backward(p, cache, 2.0 * (out - target))
        fd = finite_diff_grad(loss_of, mlp_to_vector(p))
        assert rel_err(mlp_to_vector(grads), fd) <= 1e-4

    def test_cache_layer_count_mismatch(self):
        rng = child_rng(1, "cm")
        p = init_mlp([3, 4, 2], ["relu", "linear"], rng)
        q = init_mlp([3, 2], ["linear"], rng)
        _, cache = mlp_forward(q, rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            mlp_backward(p, cache, np.zeros((2, 2)))


    def test_stack_equals_slice_by_slice(self):
        for seed in range(20):
            rng = child_rng(seed, "stack")
            acts = ["relu", "prelu", "sigmoid", "linear"]
            p = init_mlp([5, 7, 3], [acts[seed % 4], "linear"], rng)
            x = rng.standard_normal((int(rng.integers(1, 6)),
                                     int(rng.integers(1, 33)), 5))
            out, cache = mlp_forward(p, x)
            for i, xi in enumerate(x):
                out_i, cache_i = mlp_forward(p, xi)
                assert np.array_equal(out[i], out_i), seed
                for layer, layer_i in zip(cache, cache_i):
                    for a, b in zip(layer, layer_i):
                        assert np.array_equal(a[i], b), seed

    def test_input_without_row_axis_rejected(self):
        p = init_mlp([3, 2], ["relu"], child_rng(0, "p"))
        with pytest.raises(DimensionError):
            mlp_forward(p, np.ones(3))


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
