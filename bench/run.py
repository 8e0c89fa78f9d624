"""hyperfed benchmark: run one workload for a fixed time and report.

    python3 bench/run.py --workload noisy_ue_ec --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` repeats the workload untraced and reports the end-to-end
metrics (medians over the repetitions). ``--trace 1`` alternates untraced
and traced repetitions and reports the per-layer metrics and the tracing
overhead. Times are reported at a reference host speed: the yardstick
(``yardstick.py``) runs between repetitions, and each repetition's times
are scaled by the yardstick's reference time over the mean of the two
yardstick times around it; the reported values are medians of the scaled
times. Every repetition's outputs are checked; the last line of
standard output is the JSON result, and the full record (environment,
every repetition, the span table) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("noisy_ue_ec", "quiet_sweep", "fleet_baseline")

MIN_REPS = 3          # untraced repetitions, at least
MIN_TRACED = 2        # traced repetitions, at least: counts must repeat
WARMUP_ROUNDS = 1


def pin_environment():
    """One BLAS/OpenMP thread, sweep cells run in sequence. Must run before
    numpy is imported."""
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    os.environ.pop("HYPERFED_THREADS", None)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "hyperfed", "__init__.py")):
        raise SystemExit(f"error: no hyperfed sources under {SRC}; run from "
                         f"the root of a hyperfed checkout")
    sys.path.insert(0, SRC)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def per_layer(traced, untraced_walls, traced_walls):
    """Per-layer metrics from the traced repetitions; the wall times are in
    seconds at the reference host speed."""
    from workloads import KNN, LAYERS, span_names

    # share of the traced time, not counting the probes' bookkeeping
    wall = sum(r.wall_s + r.setup_s - r.tracer.bookkeeping_s for r in traced)
    self_s = {}
    for rep in traced:
        for span, (_, _, s) in rep.tracer.stats.items():
            self_s[span] = self_s.get(span, 0.0) + s
    first = traced[0].tracer
    m = {}
    for span in span_names():
        m[f"{span}.calls"] = (first.calls(span), "count", "lower")
        m[f"{span}.self_pct"] = (100.0 * self_s.get(span, 0.0) / wall, "%",
                                 "lower")
    for layer in LAYERS:
        s = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        m[f"{layer}.self_pct"] = (100.0 * s / wall, "%", "lower")
    for caller in ("ue", "ec"):
        m[f"{KNN}.{caller}.rows"] = (first.counts[f"{KNN}.{caller}.rows"],
                                     "count", "lower")
    m["federation.aggregate.bytes_in"] = (
        first.counts["federation.aggregate.bytes_in"], "B", "lower")
    evals = first.calls("federation.evaluate")
    m["federation.evaluate.redundant_frac"] = (
        first.counts["federation.evaluate.redundant"] / evals if evals else 0.0,
        "ratio", "lower")
    refines = first.calls("ec_block.refine_labels")
    m["ec_block.refine.candidate_batch_frac"] = (
        first.counts["ec_block.refine.candidate_batches"] / refines
        if refines else 0.0, "ratio", "higher")
    m["ec_block.refine.labels_changed"] = (
        first.counts["ec_block.refine.labels_changed"], "count", "higher")
    traced_wall = statistics.median(traced_walls)
    m["trace.traced_wall_s"] = (traced_wall, "s", "lower")
    m["trace.overhead_s"] = (
        traced_wall - statistics.median(untraced_walls), "s", "lower")
    return m


def trace_fingerprint(tracer):
    """Everything in a trace that must repeat exactly between runs."""
    return {k: v[0] for k, v in tracer.stats.items()}, dict(tracer.counts)


def attempt(w, seed, traced, reference, first_sha):
    """Run and check one repetition; returns (Rep or None, record)."""
    import workloads

    spans = workloads.SPANS if traced else workloads.SETUP_SPANS
    record = {"traced": traced}
    try:
        rep = workloads.run_rep(w, seed, spans, WORKDIR)
    except Exception as exc:  # noqa: BLE001 - reported as a failed repetition
        traceback.print_exc()
        record["problems"] = [f"raised {exc!r}"]
        print(f"  {'traced  ' if traced else 'untraced'} FAILED {exc!r}")
        return None, record
    problems, change = workloads.check_rep(w, seed, rep, reference)
    if first_sha is not None and rep.sha256 != first_sha:
        problems.append("metrics.csv differs from the first repetition's")
    record.update(wall_s=rep.wall_s, setup_s=rep.setup_s,
                  final_acc=rep.final_acc, sha256=rep.sha256,
                  numeric_change=change, problems=problems)
    status = "ok" if not problems else "FAILED " + "; ".join(problems)
    note = {None: "no reference for this seed", True: "NUMERIC CHANGE vs "
            "reference", False: "matches reference"}[change]
    print(f"  {'traced  ' if traced else 'untraced'} wall {rep.wall_s:.4f} s "
          f"setup {rep.setup_s:.4f} s final_acc "
          f"{' '.join(f'{a:.4f}' for a in rep.final_acc)} "
          f"sha256 {rep.sha256[:12]} ({note}) {status}", flush=True)
    return rep, record


def main(argv=None):
    args = parse_args(argv)
    pin_environment()
    import_program()
    import workloads
    import yardstick

    w = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    os.makedirs(WORKDIR, exist_ok=True)
    env = workloads.environment(w, args.seed)
    print(f"workload {w.name}: {w.why}")
    print("env " + json.dumps(env, sort_keys=True))

    try:  # load lazily imported code and fill caches; not measured
        workloads.run_rep(w, args.seed, workloads.SETUP_SPANS, WORKDIR,
                          rounds=WARMUP_ROUNDS)
    except Exception:  # noqa: BLE001 - the timed repetitions report it
        traceback.print_exc()

    done, records = [], []     # done: (traced, Rep, record) that completed
    ticks = []                 # yardstick seconds, one before each repetition
    failed = 0
    order = [False, True] if args.trace else [False]
    start = perf_counter()
    while True:
        for traced in order:
            ticks.append(yardstick.measure())
            first_sha = done[0][1].sha256 if done else None
            rep, record = attempt(w, args.seed, traced, reference, first_sha)
            record["rep"] = len(records) + 1
            records.append(record)
            failed += bool(record["problems"])
            if rep is not None:
                done.append((traced, rep, record))
        elapsed = perf_counter() - start
        cycles = len(records) // len(order)
        if (cycles >= (MIN_TRACED if args.trace else MIN_REPS)
                and elapsed + elapsed / cycles > args.seconds):
            break
    ticks.append(yardstick.measure())

    untraced = [r for t, r, _ in done if not t]
    traced = [r for t, r, _ in done if t]
    if not untraced or (args.trace and not traced):
        print("error: no repetition completed", file=sys.stderr)
        return 1

    # The host's speed drifts within seconds; scale each repetition by the
    # yardstick runs right before and after it, so its times are seconds at
    # the reference speed.
    for k, record in enumerate(records):
        record["yardstick_s"] = (ticks[k] + ticks[k + 1]) / 2
    for _, rep, record in done:
        scale = yardstick.REFERENCE_S / record["yardstick_s"]
        record["ref_wall_s"] = scale * rep.wall_s
        record["ref_setup_s"] = scale * rep.setup_s

    def at_ref(key, of_traced):
        return [rec[key] for t, _, rec in done if t == of_traced]

    measured = {"wall_s": statistics.median(r.wall_s for r in untraced),
                "setup_s": statistics.median(r.setup_s for r in untraced),
                "yardstick_s": statistics.median(ticks)}
    if args.trace:
        first = trace_fingerprint(traced[0].tracer)
        for t, rep, record in done:
            if t and trace_fingerprint(rep.tracer) != first:
                failed += not record["problems"]
                record["problems"].append("trace counts differ from the "
                                          "first traced repetition's")
                print(f"  rep {record['rep']} FAILED: trace counts differ")
        metrics = per_layer(traced, at_ref("ref_wall_s", False),
                            at_ref("ref_wall_s", True))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "wall_s": statistics.median(at_ref("ref_wall_s", False)),
            "setup_s": statistics.median(at_ref("ref_setup_s", False)),
            "peak_rss_mb": rss_mb,
            "final_acc": statistics.mean(untraced[0].final_acc),
        }
        metrics = {k: (values[k], unit)
                   for k, unit in workloads.END_TO_END.items()}
    attempted = len(records)
    print(f"{len(records)} repetitions in {perf_counter() - start:.1f} s, "
          f"{failed} failed (failed_frac {failed / attempted:.4f})")
    print(f"  measured wall_s {measured['wall_s']:.4f} s, setup_s "
          f"{measured['setup_s']:.4f} s, yardstick "
          f"{measured['yardstick_s']:.4f} s (medians); the times below are "
          f"at reference speed ({yardstick.REFERENCE_S} s)")
    for name, (value, unit, *_) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    if args.trace:
        print(f"  {'span':44s} {'calls':>8s} {'total_s':>9s} {'self_s':>9s}")
        totals = {}
        for rep in traced:
            for span, (c, t, s) in rep.tracer.stats.items():
                acc = totals.setdefault(span, [c, 0.0, 0.0])
                acc[1] += t / len(traced)
                acc[2] += s / len(traced)
        for span, (c, t, s) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
            print(f"  {span:44s} {c:8d} {t:9.4f} {s:9.4f}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v[0], "unit": v[1]}
                          for k, v in metrics.items()}}
    record = dict(result, env=env, failed_frac=failed / attempted,
                  measured=measured, yardstick_samples=ticks,
                  repetitions=records)
    if args.trace:
        record["spans"] = {k: {"calls": c, "total_s": t, "self_s": s}
                           for k, (c, t, s) in totals.items()}
        record["bookkeeping_s"] = statistics.mean(r.tracer.bookkeeping_s
                                                  for r in traced)
    path = os.path.join(WORKDIR, f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
