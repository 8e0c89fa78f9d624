"""Dense linear algebra primitives, the flat parameter vector, small MLPs
with analytic gradients, and a finite-difference gradient oracle.

Everything works on float64 numpy arrays. A model's parameters are one
float64 vector with named views (Layout, Params); the backward passes
write their gradients into a second vector of the same layout. Every
other operation is pure and all are deterministic given their inputs.
"""

from __future__ import annotations

import hashlib
import math
import mmap
from dataclasses import dataclass

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


# the LAPACK routines behind scipy.linalg.cho_factor and cho_solve, called
# directly: scipy's wrappers around them cost several times the factoring
# of a 32 x 32 system, and passing the same arrays and flags gives the
# same bits
_POTRF, _POTRS = scipy.linalg.get_lapack_funcs(("potrf", "potrs"),
                                               (np.zeros((1, 1)),))


def solve_linear(a, b):
    """Solve a X = b for a symmetric positive definite a by Cholesky. A
    non-finite a or b raises ValueError; a that is not positive definite,
    or has a Cholesky diagonal below 1e-12, raises LinearSolveError."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"solve_linear: matrix must be square, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise DimensionError(
            f"solve_linear: rhs rows {b.shape[0]} != matrix size {a.shape[0]}")
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    c, info = _POTRF(a, lower=0, clean=0)
    if info > 0:
        raise LinearSolveError(f"Cholesky failed: {info}-th leading minor "
                               f"of the array is not positive definite")
    if abs(c.diagonal()).min() < PIVOT_TOL:
        raise LinearSolveError("matrix is numerically singular")
    x, _ = _POTRS(c, b, lower=0)
    # a non-finite entry of b always reaches x, so b is checked only then
    if not np.isfinite(x).all():
        if not np.isfinite(b).all():
            raise ValueError("array must not contain infs or NaNs")
        raise FloatingPointError("non-finite values in solve_linear result")
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
    # sq_i + sq_j - 2 x_i.x_j, clipped at 0 and symmetrized as
    # 0.5 * (d + d^T), in two buffers
    gram = x @ x.mT
    gram *= 2.0
    d = sq[..., :, None] + sq[..., None, :]
    d -= gram
    np.maximum(d, 0.0, out=d)
    d2 = np.add(d, d.mT, out=gram)
    d2 *= 0.5
    d2.reshape(-1, n * n)[:, ::n + 1] = 0.0  # the diagonal of every slice
    return d2


# ---------------------------------------------------------------------------
# One float64 vector per model, and small dense blocks over it
# ---------------------------------------------------------------------------

class Layout:
    """Where each named tensor of a model lives in its float64 vector:
    name -> (offset, shape), packed in the order the blocks are added.

    A block is a stack of dense layers under one prefix: layer i has the
    weights "{prefix}.w{i}" (in, out), the bias "{prefix}.b{i}" (out,)
    unless the block is bias-free, and for a prelu layer the slope
    "{prefix}.s{i}" (1,). Private blocks come after every shared one, so
    vector[:n_shared] holds exactly the shared tensors.
    """

    def __init__(self):
        self.slots = {}
        self.activations = {}  # block prefix -> activation of each layer
        self.size = 0
        self.n_shared = 0

    def add(self, prefix, dims, activations, bias=True, private=False):
        """Append a block of len(activations) layers of widths dims;
        returns the layout."""
        if len(dims) != len(activations) + 1:
            raise DimensionError(
                f"{prefix}: {len(dims)} dims for {len(activations)} layers")
        if not private and self.n_shared != self.size:
            raise ValueError(f"{prefix}: a shared block after a private one")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        self.activations[prefix] = tuple(activations)
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            self._add(f"{prefix}.w{i}", (fan_in, fan_out))
            if bias:
                self._add(f"{prefix}.b{i}", (fan_out,))
            if activations[i] == "prelu":
                self._add(f"{prefix}.s{i}", (1,))
        if not private:
            self.n_shared = self.size
        return self

    def _add(self, name, shape):
        self.slots[name] = (self.size, shape)
        self.size += math.prod(shape)


def zero_vector(size):
    """size float64 zeros in a private anonymous memory map of their own,
    for the vectors of models and the server's aggregated head. A map
    goes back to the system when it is freed; a heap vector would leave a
    hole of several MB once a run's clients are freed (or of 1 MB or more
    between a round's model-sized heap vectors and whatever the process
    allocated after them), and the benchmark's in-process yardstick
    (bench/yardstick.py) then reuses its pages instead of faulting in
    fresh ones and reads the host as faster than it is. Temporary: once
    the yardstick runs in a process of its own, np.zeros will do.

    Where the platform has MAP_POPULATE (Linux), the kernel fills the
    pages in the same call, which is cheaper than faulting them in one by
    one on the first write: fleet_baseline set-up, with 51 model vectors,
    took 8% less time on a 2 vCPU x86-64 Linux VM."""
    if hasattr(mmap, "MAP_POPULATE"):
        buf = mmap.mmap(-1, 8 * max(size, 1),
                        flags=mmap.MAP_PRIVATE | mmap.MAP_POPULATE)
    else:  # macOS has no MAP_POPULATE, and Windows' mmap takes no flags
        buf = mmap.mmap(-1, 8 * max(size, 1), access=mmap.ACCESS_COPY)
    return np.frombuffer(buf, np.float64, count=size)


@dataclass(eq=False)
class Params:
    """A model's parameters: one float64 vector (zeros by default) and
    views of it by tensor name and, per block, by layer as
    (activation, weights, bias or None, slope or None). The views are
    derived, not fields: writing to the vector changes every view."""
    layout: Layout
    vector: np.ndarray = None

    def __post_init__(self):
        if self.vector is None:
            self.vector = np.zeros(self.layout.size)
        if self.vector.shape != (self.layout.size,):
            raise DimensionError(f"vector shape {self.vector.shape} != "
                                 f"({self.layout.size},)")
        self.views = {name: self.vector[o:o + math.prod(s)].reshape(s)
                      for name, (o, s) in self.layout.slots.items()}
        self.blocks = {
            prefix: [(act, *(self.views.get(f"{prefix}.{kind}{i}")
                             for kind in "wbs"))
                     for i, act in enumerate(acts)]
            for prefix, acts in self.layout.activations.items()}

    def __getitem__(self, name):
        return self.views[name]


def init_params(layout, rng, order):
    """A model over a zero_vector: Glorot-uniform weights drawn block by
    block in the given order of the layout's prefixes; biases start at
    zero and PReLU slopes at 0.25."""
    params = Params(layout, zero_vector(layout.size))
    for prefix in order:
        for _, w, _, slope in params.blocks[prefix]:
            fan_in, fan_out = w.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            if slope is not None:
                slope[...] = 0.25
    return params


def _layers(params, prefix, x, cache):
    """The layer loop of mlp_forward and forward: block prefix on x
    (..., n, in_dim); appends (input, pre-activation, output) per layer
    to cache unless it is None.

    ReLU and sigmoid run in place on the fresh pre-activation: the
    backward pass reads only the output of a sigmoid, and a ReLU's output
    is positive exactly where its input is, so its cached "pre-activation"
    is the output itself."""
    layers = params.blocks[prefix]
    x = np.asarray(x, dtype=np.float64)
    in_dim = layers[0][1].shape[0]
    if x.ndim < 2 or x.shape[-1] != in_dim:
        raise DimensionError(
            f"mlp_forward: input shape {x.shape} does not end in "
            f"(n, {in_dim})")
    a = x
    for act, w, b, slope in layers:
        z = a @ w
        z += b
        if act == "relu":
            out = np.maximum(z, 0.0, out=z)
        elif act == "prelu":
            out = np.where(z > 0.0, z, slope * z)
        elif act == "sigmoid":  # 1 / (1 + exp(-z))
            out = np.negative(z, out=z)
            np.exp(out, out=out)
            out += 1.0
            np.divide(1.0, out, out=out)
        else:
            out = z
        if cache is not None:
            cache.append((a, z, out))
        a = out
    return a


def mlp_forward(params, prefix, x):
    """Forward pass of block prefix on x (..., n, in_dim), each (n, in_dim)
    slice on its own; returns (output (..., n, out_dim), cache) where the
    cache holds per-layer inputs and pre-activations for the backward
    pass."""
    cache = []
    return _layers(params, prefix, x, cache), cache


def forward(params, prefixes, x):
    """The blocks prefixes applied in turn to x, as mlp_forward computes
    them but keeping no backward cache: for passes whose cache would be
    thrown away, such as evaluation."""
    for prefix in prefixes:
        x = _layers(params, prefix, x, None)
    return x


def mlp_backward(params, prefix, cache, grad_output, grads):
    """Gradients of a scalar loss whose output-gradient is grad_output.

    Writes the gradient of every tensor of block prefix into its view of
    grads (a Params of the same layout) and returns the input gradient.
    """
    layers = params.blocks[prefix]
    if len(cache) != len(layers):
        raise ValueError("cache does not match params (layer count differs)")
    g = np.asarray(grad_output, dtype=np.float64)
    for (act, w, _, slope), (_, gw, gb, gs), (x_in, z, out) in zip(
            reversed(layers), reversed(grads.blocks[prefix]),
            reversed(cache)):
        if act == "relu":
            dz = g * (z > 0.0)
        elif act == "prelu":
            positive = z > 0.0
            gs[0] = np.sum(g * np.where(positive, 0.0, z))
            dz = g * np.where(positive, 1.0, slope)
        elif act == "sigmoid":
            dz = g * (out * (1.0 - out))
        else:
            dz = g
        np.matmul(x_in.T, dz, out=gw)
        np.add.reduce(dz, axis=0, out=gb)  # np.sum without its wrapper
        g = dz @ w.T
    return g


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
