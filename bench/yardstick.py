"""A fixed computation that measures how fast the host runs right now.

The host's speed drifts by a quarter or more within minutes: other tenants
share its cores and caches, and CPU time rises with wall time, so this is
not descheduling. The yardstick does the kinds of work hyperfed spends its
time in (k-NN on a 32-row batch with a Python loop per vertex, small
matmuls, a Gaussian kernel, a 32x32 Cholesky solve, an evaluation-sized
matmul over 2,100 rows) but uses no hyperfed code, so no change to the
program can move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.linalg

# About the median yardstick time on the host the benchmark was calibrated
# on: 2 vCPU x86-64, numpy 2.4.6 on OpenBLAS 0.3.31, one thread.
REFERENCE_S = 0.15

_ITERATIONS = 60


def measure():
    """Seconds the yardstick takes now."""
    rng = np.random.default_rng(20250101)
    x = rng.standard_normal((32, 64))
    w = rng.standard_normal((64, 64))
    feats = rng.standard_normal((2100, 32))
    w2 = rng.standard_normal((32, 64))
    t0 = perf_counter()
    acc = 0.0
    for _ in range(_ITERATIONS):
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
        order = np.argsort(d2, axis=1, kind="stable")
        h = np.zeros((32, 32))
        for v in range(32):
            h[[u for u in order[v] if u != v][:10], v] = 1.0
        affinity = np.exp(-d2 / 2.0)
        z = np.maximum(x @ w, 0.0) @ w.T
        a = np.eye(32) * 40.0 + (h * affinity) @ h.T
        y = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), z[:, :7])
        acc += float(y.sum()) + float(np.maximum(feats @ w2, 0.0).sum())
    elapsed = perf_counter() - t0
    if not np.isfinite(acc):
        raise FloatingPointError("yardstick produced a non-finite value")
    return elapsed
