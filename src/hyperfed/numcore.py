"""Dense linear algebra primitives, small MLPs with analytic gradients,
and a finite-difference gradient oracle.

Everything works on float64 numpy arrays. All operations are pure: they
never mutate their arguments and are deterministic given their inputs.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

ACTIVATIONS = ("linear", "relu", "prelu", "sigmoid")

PIVOT_TOL = 1e-12


class DimensionError(ValueError):
    pass


class LinearSolveError(ValueError):
    pass


def child_rng(seed, *labels):
    """Deterministic child stream keyed by (seed, labels).

    Uses a counter-based Philox generator whose 128-bit key is a hash of
    the seed and labels, so the stream is reproducible on any platform and
    independent of how many other streams were drawn first.
    """
    h = hashlib.blake2b(repr((int(seed),) + tuple(labels)).encode("utf-8"),
                        digest_size=16)
    key = int.from_bytes(h.digest(), "little")
    return np.random.Generator(np.random.Philox(key=key))


def _check_finite(name, a):
    if not np.all(np.isfinite(a)):
        raise FloatingPointError(f"non-finite values in {name}")


def mat_mul(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"mat_mul: cannot multiply {a.shape} by {b.shape}")
    out = a @ b
    _check_finite("mat_mul result", out)
    return out


def solve_linear(a, b, spd=False):
    """Solve a X = b with a direct dense factorization.

    spd=True uses Cholesky, otherwise partial-pivot LU. A pivot (or
    Cholesky diagonal) below 1e-12 raises LinearSolveError.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"solve_linear: matrix must be square, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise DimensionError(
            f"solve_linear: rhs rows {b.shape[0]} != matrix size {a.shape[0]}")
    if spd:
        try:
            c, low = scipy.linalg.cho_factor(a, check_finite=True)
        except scipy.linalg.LinAlgError as exc:
            raise LinearSolveError(f"Cholesky failed: {exc}") from exc
        if np.min(np.abs(np.diag(c))) < PIVOT_TOL:
            raise LinearSolveError("matrix is numerically singular")
        x = scipy.linalg.cho_solve((c, low), b)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(a, check_finite=True)
        if np.min(np.abs(np.diag(lu))) < PIVOT_TOL:
            raise LinearSolveError("matrix is numerically singular")
        x = scipy.linalg.lu_solve((lu, piv), b)
    _check_finite("solve_linear result", x)
    return x


def softmax_rows(m):
    m = np.asarray(m, dtype=np.float64)
    shifted = m - np.max(m, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def pairwise_sq_dist(x):
    """Squared Euclidean distances between the rows of each (n, d) slice
    of x (..., n, d); returns (..., n, n), exactly symmetric."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-2]
    sq = (x * x).sum(axis=-1)
    d2 = sq[..., :, None] + sq[..., None, :] - 2.0 * (x @ x.mT)
    np.maximum(d2, 0.0, out=d2)
    d2 = 0.5 * (d2 + d2.mT)
    d2.reshape(-1, n * n)[:, ::n + 1] = 0.0  # the diagonal of every slice
    return d2


# ---------------------------------------------------------------------------
# Small MLPs with hand-derived gradients
# ---------------------------------------------------------------------------

@dataclass
class MlpParams:
    """Per-layer weights (in x out), biases (out,), activation tags and
    PReLU slopes (ignored for non-prelu layers)."""
    weights: list
    biases: list
    activations: list
    slopes: list = field(default_factory=list)

    def __post_init__(self):
        if not self.slopes:
            self.slopes = [0.25] * len(self.weights)
        for act in self.activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        for i in range(len(self.weights) - 1):
            if self.weights[i].shape[1] != self.weights[i + 1].shape[0]:
                raise DimensionError(
                    f"layer {i} out-dim {self.weights[i].shape[1]} != "
                    f"layer {i + 1} in-dim {self.weights[i + 1].shape[0]}")

    @property
    def in_dim(self):
        return self.weights[0].shape[0]

    @property
    def out_dim(self):
        return self.weights[-1].shape[1]

    def copy(self):
        return MlpParams([w.copy() for w in self.weights],
                         [b.copy() for b in self.biases],
                         list(self.activations),
                         list(self.slopes))


def init_mlp(dims, activations, rng, slopes=None):
    """Glorot-uniform weights, zero biases; PReLU slopes start at 0.25."""
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases, list(activations),
                     list(slopes) if slopes else None)


def _activate(z, act, slope):
    if act == "linear":
        return z
    if act == "relu":
        return np.maximum(z, 0.0)
    if act == "prelu":
        return np.where(z > 0.0, z, slope * z)
    if act == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    raise ValueError(act)


def _activate_grad(z, a, act, slope):
    if act == "linear":
        return np.ones_like(z)
    if act == "relu":
        return (z > 0.0).astype(np.float64)
    if act == "prelu":
        return np.where(z > 0.0, 1.0, slope)
    if act == "sigmoid":
        return a * (1.0 - a)
    raise ValueError(act)


def mlp_forward(params, x):
    """Forward pass of x (..., n, in_dim), each (n, in_dim) slice on its
    own; returns (output (..., n, out_dim), cache) where the cache holds
    per-layer inputs and pre-activations for the backward pass."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != params.in_dim:
        raise DimensionError(
            f"mlp_forward: input shape {x.shape} does not end in "
            f"(n, {params.in_dim})")
    cache = []
    a = x
    for w, b, act, slope in zip(params.weights, params.biases,
                                params.activations, params.slopes):
        z = a @ w + b
        out = _activate(z, act, slope)
        cache.append((a, z, out))
        a = out
    return a, cache


def mlp_backward(params, cache, grad_output):
    """Gradients of a scalar loss whose output-gradient is grad_output.

    Returns (grad_params: MlpParams-shaped, grad_input). PReLU slope
    gradients land in grad_params.slopes.
    """
    layers = len(params.weights)
    if len(cache) != layers:
        raise ValueError("cache does not match params (layer count differs)")
    weights, biases, slopes = [None] * layers, [None] * layers, [0.0] * layers
    g = np.asarray(grad_output, dtype=np.float64)
    for i in reversed(range(layers)):
        x_in, z, out = cache[i]
        act = params.activations[i]
        dz = g * _activate_grad(z, out, act, params.slopes[i])
        if act == "prelu":
            slopes[i] = float(np.sum(g * np.where(z > 0.0, 0.0, z)))
        weights[i] = x_in.T @ dz
        biases[i] = np.sum(dz, axis=0)
        g = dz @ params.weights[i].T
    return MlpParams(weights, biases, list(params.activations), slopes), g


def mlp_axpy(params, grads, scale):
    """params + scale * grads, as a new MlpParams (SGD step helper)."""
    return MlpParams(
        [w + scale * gw for w, gw in zip(params.weights, grads.weights)],
        [b + scale * gb for b, gb in zip(params.biases, grads.biases)],
        list(params.activations),
        [s + scale * gs for s, gs in zip(params.slopes, grads.slopes)])


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

def finite_diff_grad(loss_fn, theta, h=1e-5):
    """Central-difference gradient of a scalar function of a flat vector."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += h
        tm[i] -= h
        grad[i] = (loss_fn(tp) - loss_fn(tm)) / (2.0 * h)
    return grad


def flatten_arrays(arrays):
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel()
                           for a in arrays]) if arrays else np.zeros(0)


def unflatten_arrays(vec, templates):
    out, pos = [], 0
    for t in templates:
        t = np.asarray(t)
        out.append(vec[pos:pos + t.size].reshape(t.shape).copy())
        pos += t.size
    return out


def mlp_to_vector(params):
    parts = []
    for w, b, act, s in zip(params.weights, params.biases,
                            params.activations, params.slopes):
        parts.append(w.ravel())
        parts.append(b.ravel())
        if act == "prelu":
            parts.append(np.array([s]))
    return np.concatenate(parts)


def mlp_from_vector(vec, template):
    out = template.copy()
    pos = 0
    for i, (w, b, act) in enumerate(zip(template.weights, template.biases,
                                        template.activations)):
        out.weights[i] = vec[pos:pos + w.size].reshape(w.shape).copy()
        pos += w.size
        out.biases[i] = vec[pos:pos + b.size].copy()
        pos += b.size
        if act == "prelu":
            out.slopes[i] = float(vec[pos])
            pos += 1
    return out
