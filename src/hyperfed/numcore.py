"""Dense linear algebra primitives, the flat parameter vector, and small
MLPs with analytic gradients.

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
from numpy.random.bit_generator import ISeedSequence

ACTIVATIONS = ("linear", "relu", "prelu", "sigmoid")

PIVOT_TOL = 1e-12


class DimensionError(ValueError):
    pass


class LinearSolveError(ValueError):
    pass


class _PhiloxKey(ISeedSequence):
    """A Philox key given as its two little-endian 64-bit words. Philox
    reads the key of a seed sequence through generate_state, so passing
    one gives the state Philox(key=...) gives, without the default
    SeedSequence that Philox(key=...) also builds from OS entropy and
    then never reads."""

    def __init__(self, digest):
        self.words = np.frombuffer(digest, dtype="<u8")

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != self.words.size or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two 64-bit words")
        return self.words


def child_rng(seed, *labels):
    """Deterministic child stream keyed by (seed, labels).

    Uses a counter-based Philox generator whose 128-bit key is a hash of
    the seed and labels, so the stream is reproducible on any platform and
    independent of how many other streams were drawn first. Its state is
    that of Philox(key=int.from_bytes(digest, "little")), counter 0,
    built without reading OS entropy.
    """
    h = hashlib.blake2b(repr((int(seed),) + tuple(labels)).encode("utf-8"),
                        digest_size=16)
    return np.random.Generator(np.random.Philox(_PhiloxKey(h.digest())))


def skip_doubles(rng, n):
    """Move rng past n float64 draws, to the state drawing them leaves.

    Each double (rng.random, rng.uniform) takes one 64-bit word of the
    stream. Philox makes its words in blocks of 4, one block per counter
    value, and keeps the current block in a buffer. The words left in the
    buffer are drawn as raw words; after them, the counter jumps over
    whole blocks, and the last 1 to 4 words are drawn as raw words from
    the next block, so even the buffer ends as drawing leaves it. rng
    must draw from Philox, as child_rng's streams do."""
    bitgen = rng.bit_generator
    state = bitgen.state
    left = 4 - state["buffer_pos"]
    if n <= left:
        bitgen.random_raw(n)
        return
    bitgen.advance((n - left - 1) // 4)
    bitgen.random_raw((n - left - 1) % 4 + 1)
    if state["has_uint32"]:  # advance dropped a 32-bit draw's spare half
        after = bitgen.state
        after.update(has_uint32=1, uinteger=state["uinteger"])
        bitgen.state = after


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
    """Softmax over the last axis, computed in one fresh buffer."""
    m = np.asarray(m, dtype=np.float64)
    e = m - np.max(m, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


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
    for the vectors of models and the matrices of client stacks. A map
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
    derived, not fields: writing to the vector changes every view.

    The vector may also be a (K, size) matrix whose rows are K models of
    one layout, such as K clients trained in lockstep: every view then
    has the leading axis K, and the kernels treat slice k of a stacked
    input with model k."""
    layout: Layout
    vector: np.ndarray = None

    def __post_init__(self):
        if self.vector is None:
            self.vector = np.zeros(self.layout.size)
        if self.vector.ndim not in (1, 2) or \
                self.vector.shape[-1] != self.layout.size:
            raise DimensionError(f"vector shape {self.vector.shape} does "
                                 f"not end in ({self.layout.size},)")
        lead = self.vector.shape[:-1]
        # a column slice of the rows splits its last axis without a copy
        self.views = {name: self.vector[..., o:o + math.prod(s)].reshape(
                          lead + s)
                      for name, (o, s) in self.layout.slots.items()}
        self.blocks = {
            prefix: [(act, *(self.views.get(f"{prefix}.{kind}{i}")
                             for kind in "wbs"))
                     for i, act in enumerate(acts)]
            for prefix, acts in self.layout.activations.items()}

    def __getitem__(self, name):
        return self.views[name]


def draw_plan(layout, order, source):
    """What init_params draws: the weights of the blocks of the layout
    source, in the given order of its prefixes, each as (offset in layout,
    size, Glorot-uniform bound). The weights of blocks that layout lacks
    are skipped, not drawn: each run of them is one (None, size, None)
    entry. A plan serves any number of models."""
    plan = []
    for prefix in order:
        for name, (_, shape) in source.slots.items():
            if not name.startswith(prefix + ".w"):
                continue
            size = math.prod(shape)
            if name in layout.slots:
                plan.append((layout.slots[name][0], size,
                             np.sqrt(6.0 / sum(shape))))
            elif plan and plan[-1][0] is None:
                plan[-1] = (None, plan[-1][1] + size, None)
            else:
                plan.append((None, size, None))
    return plan


def init_params(layout, rng, plan=None):
    """A model over a zero_vector: Glorot-uniform weights drawn by plan,
    by default block by block in the layout's order; biases start at
    zero and PReLU slopes at 0.25. A skipped entry of the plan moves the
    stream past its draws (skip_doubles), so every weight that is drawn
    has the value it would have if the skipped ones were drawn too."""
    params = Params(layout, zero_vector(layout.size))
    for offset, size, bound in plan or draw_plan(layout, layout.activations,
                                                 layout):
        if offset is None:
            skip_doubles(rng, size)
        else:
            params.vector[offset:offset + size] = rng.uniform(-bound, bound,
                                                              size=size)
    for layers in params.blocks.values():
        for _, _, _, slope in layers:
            if slope is not None:
                slope[...] = 0.25
    return params


def _layers(params, prefix, x, cache, s=None):
    """The layer loop of mlp_forward, forward and hgnn_forward: block
    prefix on x (..., n, in_dim), or on x (K, n, in_dim) with stacked
    params (K models); appends (input, pre-activation, output) per layer
    to cache unless it is None. A bias or slope broadcasts over the rows
    of its own slice. An operator s (..., n, n) mixes each layer's input
    rows first, and s @ a is the cached input.

    ReLU and sigmoid run in place on the fresh pre-activation: the
    backward pass reads only the output of a sigmoid, and a ReLU's output
    is positive exactly where its input is, so its cached "pre-activation"
    is the output itself."""
    layers = params.blocks[prefix]
    x = np.asarray(x, dtype=np.float64)
    in_dim = layers[0][1].shape[-2]
    if x.ndim < 2 or x.shape[-1] != in_dim:
        raise DimensionError(
            f"mlp_forward: input shape {x.shape} does not end in "
            f"(n, {in_dim})")
    if s is not None and x.shape[-2] != s.shape[-1]:
        raise DimensionError(
            f"signal rows {x.shape[-2]} != operator size {s.shape[-1]}")
    a = x
    for act, w, b, slope in layers:
        if s is not None:
            a = s @ a
        z = a @ w
        if b is not None:
            z += b[..., None, :]
        if act == "relu":
            out = np.maximum(z, 0.0, out=z)
        elif act == "prelu":
            out = np.where(z > 0.0, z, slope[..., None, :] * z)
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


def mlp_backward(params, prefix, cache, grad_output, grads,
                 input_grad=True):
    """Gradients of a scalar loss whose output-gradient is grad_output.

    Writes the gradient of every tensor of block prefix into its view of
    grads (a Params of the same layout, stacked as params is) and returns
    the input gradient, or None when input_grad is False: the first
    layer's dz @ w^T is then skipped.
    """
    return _layers_backward(params, prefix, cache, grad_output, grads,
                            input_grad)


def _layers_backward(params, prefix, cache, grad_output, grads,
                     input_grad=True, s=None):
    """The layer loop of mlp_backward and hgnn_backward over a cache of
    _layers; the operator s is a constant: g = s^T @ (dz @ w^T)."""
    layers = params.blocks[prefix]
    if len(cache) != len(layers):
        raise ValueError("cache does not match params (layer count differs)")
    g = np.asarray(grad_output, dtype=np.float64)
    for i, ((act, w, _, slope), (_, gw, gb, gs), (x_in, z, out)) in \
            enumerate(zip(reversed(layers), reversed(grads.blocks[prefix]),
                          reversed(cache))):
        if act == "relu":
            dz = g * (z > 0.0)
        elif act == "prelu":
            positive = z > 0.0
            np.add.reduce(g * np.where(positive, 0.0, z), axis=(-2, -1),
                          out=gs[..., 0])  # np.sum of each slice
            dz = g * np.where(positive, 1.0, slope[..., None, :])
        elif act == "sigmoid":
            dz = g * (out * (1.0 - out))
        else:
            dz = g
        np.matmul(x_in.mT, dz, out=gw)
        if gb is not None:
            np.add.reduce(dz, axis=-2, out=gb)  # np.sum without its wrapper
        if i + 1 < len(layers) or input_grad:
            g = dz @ w.mT
            if s is not None:
                g = s.mT @ g
        else:
            g = None
    return g
