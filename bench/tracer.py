"""Span tracer that wraps hyperfed's public functions from outside.

A span is a call of one traced function. For every span name the tracer
keeps calls, total time and self time (total minus the time covered by
nested spans). Probes attached to a few spans record work counts where the
work happens: rows fed to the hypergraph builder, bytes entering
aggregation, evaluations repeated on an unchanged model, and relabel
batches that hold a candidate.

Functions imported by name into several modules (``from .numcore import
mlp_forward``) have one binding per importing module; installing the
tracer replaces every binding in every hyperfed module, so no call path
escapes it. Leaving the ``with`` block restores the originals.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import pkgutil
from collections import Counter
from time import perf_counter

import numpy as np

KNN = "hypergraph.build_knn_hypergraph"


class TraceError(RuntimeError):
    pass


def hyperfed_modules():
    """The hyperfed package and every module in it, imported."""
    pkg = importlib.import_module("hyperfed")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"hyperfed.{info.name}"))
    return mods


def resolve(qualname):
    """'federation.evaluate' -> the function object defined there."""
    mod, name = qualname.split(".")
    try:
        return getattr(importlib.import_module(f"hyperfed.{mod}"), name)
    except (ImportError, AttributeError) as exc:
        raise TraceError(f"cannot trace {qualname}: {exc}") from exc


def _walk(obj):
    """Yield the arrays and scalars inside a parameter container, in a
    fixed order, whatever its representation (dataclasses, dicts, lists,
    plain objects)."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _walk(item)
    elif isinstance(obj, dict):
        for key in sorted(obj, key=str):
            yield str(key)
            yield from _walk(obj[key])
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _walk(getattr(obj, f.name))
    elif hasattr(obj, "__dict__"):
        yield from _walk(vars(obj))
    else:
        yield obj


def digest(*objs):
    h = hashlib.blake2b(digest_size=16)
    for obj in objs:
        for leaf in _walk(obj):
            if isinstance(leaf, np.ndarray):
                h.update(repr((leaf.dtype.str, leaf.shape)).encode())
                h.update(np.ascontiguousarray(leaf))
            else:
                h.update(repr(leaf).encode())
    return h.digest()


def nbytes(obj):
    return sum(leaf.nbytes for leaf in _walk(obj)
               if isinstance(leaf, np.ndarray))


# ---------------------------------------------------------------------------
# Probes: (tracer, bound arguments, result) -> None, run after the span
# ---------------------------------------------------------------------------

def _probe_knn(tracer, span, args, result):
    tracer.counts[f"{span}.rows"] += int(np.shape(args["features"])[0])


def _probe_evaluate(tracer, span, args, result):
    key = digest(args["params"], args["idx"])
    if key in tracer.seen_evals:
        tracer.counts[f"{span}.redundant"] += 1
    tracer.seen_evals.add(key)


def _probe_aggregate(tracer, span, args, result):
    tracer.counts[f"{span}.bytes_in"] += nbytes(args["updates"])


def _probe_refine(tracer, span, args, result):
    beta = np.asarray(args["beta"])
    if beta.size and np.max(beta) >= args["cfg"].threshold:
        tracer.counts["ec_block.refine.candidate_batches"] += 1
    tracer.counts["ec_block.refine.labels_changed"] += len(result[1])


PROBES = {
    "hypergraph.build_knn_hypergraph": _probe_knn,
    "federation.evaluate": _probe_evaluate,
    "federation.aggregate": _probe_aggregate,
    "ec_block.refine_labels": _probe_refine,
}


class Tracer:
    """Context manager that traces the given qualified function names.

    Self time excludes nested spans and the probes' own bookkeeping, which
    is reported separately as ``bookkeeping_s``.
    """

    def __init__(self, qualnames):
        self.qualnames = list(qualnames)
        self.stats = {}            # span -> [calls, total_s, self_s]
        self.counts = Counter()
        self.seen_evals = set()
        self.bookkeeping_s = 0.0
        self._stack = []           # [time covered by children] per open span
        self._patched = []

    def __enter__(self):
        # the (q, fn) values keep every target alive, so ids stay unique
        targets = {id(fn): (q, fn)
                   for q, fn in ((q, resolve(q)) for q in self.qualnames)}
        for mod in hyperfed_modules():
            short = mod.__name__.rpartition(".")[2]
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is None:
                    continue
                q, fn = hit
                span = q
                if q == KNN and short in ("ue_block", "ec_block"):
                    span = f"{q}.{short[:2]}"   # tell UE and EC uses apart
                setattr(mod, attr, self._wrap(fn, q, span))
                self._patched.append((mod, attr, value))
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        return False

    def _wrap(self, fn, qualname, span):
        stats = self.stats.setdefault(span, [0, 0.0, 0.0])
        probe = PROBES.get(qualname)
        signature = inspect.signature(fn) if probe else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if probe is not None:
                t1 = perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                probe(self, span, bound.arguments, result)
                book = perf_counter() - t1
                self.bookkeeping_s += book
                if stack:
                    stack[-1][0] += book
            return result

        wrapper.__traced__ = fn
        return wrapper

    def total(self, span):
        return self.stats.get(span, [0, 0.0, 0.0])[1]

    def calls(self, span):
        return self.stats.get(span, [0, 0.0, 0.0])[0]
