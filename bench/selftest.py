"""The benchmark's own checks.

    python3 -m pytest -q bench/selftest.py

They check that the tracer wraps every binding of every traced function,
that each workload calls the spans it is predicted to call and none it is
predicted not to, that tracing leaves metrics.csv unchanged, that every
count repeats exactly between two traced runs, and that BENCHMARK.json
lists exactly the metrics the benchmark reports. Each workload runs three
times at seed 0, so the file takes about a minute.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import (ROOT, WORKDIR, WORKLOAD_NAMES, import_program,  # noqa: E402
                 per_layer, pin_environment, trace_fingerprint)

pin_environment()
import_program()

import pytest  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, hyperfed_modules, resolve  # noqa: E402

SEED = 0

# Functions imported by name into more than one module.
SHARED_BINDINGS = {
    "federation": ["mlp_forward", "mlp_backward"],
    "ue_block": ["mlp_forward", "mlp_backward", "build_knn_hypergraph",
                 "normalized_operator"],
    "ec_block": ["mlp_forward", "mlp_backward", "build_knn_hypergraph",
                 "normalized_operator", "solve_linear"],
}


def _bindings(fns):
    """(module, attribute) of every binding of the given functions."""
    ids = {id(fn) for fn in fns}
    return [(mod.__name__, attr) for mod in hyperfed_modules()
            for attr, value in vars(mod).items() if id(value) in ids]


def test_every_binding_is_wrapped_and_restored():
    originals = [resolve(q) for q in workloads.SPANS]
    before = _bindings(originals)
    with Tracer(workloads.SPANS):
        assert _bindings(originals) == []
        mods = {m.__name__.rpartition(".")[2]: m for m in hyperfed_modules()}
        for mod, names in SHARED_BINDINGS.items():
            for name in names:
                assert hasattr(getattr(mods[mod], name), "__traced__"), \
                    f"{mod}.{name} is not traced"
    assert _bindings(originals) == before


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def runs(request):
    w = workloads.WORKLOADS[request.param]
    os.makedirs(WORKDIR, exist_ok=True)
    traced = [workloads.run_rep(w, SEED, workloads.SPANS, WORKDIR)
              for _ in range(2)]
    plain = workloads.run_rep(w, SEED, workloads.SETUP_SPANS, WORKDIR)
    return w, traced, plain


def test_predicted_spans(runs):
    w, traced, _ = runs
    tracer = traced[0].tracer
    for span in workloads.CALLED[w.name]:
        assert tracer.calls(span) > 0, f"{span} not called on {w.name}"
    for span in workloads.ZERO[w.name]:
        assert tracer.calls(span) == 0, f"{span} called on {w.name}"


def test_tracing_leaves_outputs_unchanged(runs):
    _, traced, plain = runs
    assert [t.sha256 for t in traced] == [plain.sha256] * 2
    assert [t.final_acc for t in traced] == [plain.final_acc] * 2


def test_counts_repeat_exactly(runs):
    _, traced, plain = runs
    assert trace_fingerprint(traced[0].tracer) == \
        trace_fingerprint(traced[1].tracer)
    a, b = (per_layer([t], [plain.wall_s], [t.wall_s]) for t in traced)
    for name, (value, unit, _) in a.items():
        if unit != "%" and not name.startswith("trace."):
            assert b[name][0] == value, name


def test_outputs_match_reference(runs):
    w, _, plain = runs
    problems, numeric_change = workloads.check_rep(
        w, SEED, plain, workloads.load_reference())
    assert problems == []
    assert numeric_change is False


def test_knn_build_is_largest_self_time_on_noisy(runs):
    w, traced, _ = runs
    if w.name != "noisy_ue_ec":
        pytest.skip("prediction is for noisy_ue_ec")
    stats = traced[0].tracer.stats
    knn = sum(stats[f"{workloads.KNN}.{c}"][2] for c in ("ue", "ec"))
    others = [s[2] for span, s in stats.items()
              if not span.startswith(workloads.KNN)]
    assert knn > max(others)


def test_benchmark_json_lists_reported_metrics(runs):
    _, traced, plain = runs
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layer = per_layer(traced, [plain.wall_s], [t.wall_s for t in traced])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(k, unit, better) for k, (_, unit, better) in layer.items()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(workloads.END_TO_END.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(WORKLOAD_NAMES) == list(workloads.WORKLOADS)
