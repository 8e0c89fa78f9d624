"""Command-line entry point: run | sweep | check | export-plot.

`run` executes a single experiment into an output directory. `sweep` takes
list-valued `--set` overrides as sweep axes and runs the cartesian product,
its cells in parallel processes where the CPUs allow, then writes a
method-by-alpha summary table with a column for each other field that
differs between the runs. `check` runs the built-in invariant
suite. `export-plot` reshapes a metrics.csv into long format.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys

import numpy as np

from . import config as config_mod
from . import federation, processes, selfcheck
from .config import ConfigError
from .data import CsvFormatError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _add_common(parser):
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config field")
    parser.add_argument("--out", required=True, help="output directory")


def cmd_run(args):
    cfg = config_mod.parse_config(args.config, args.overrides)
    federation.run_experiment(cfg, out_dir=args.out)
    print(f"wrote {os.path.join(args.out, 'metrics.csv')}")
    return EXIT_OK


def _split_axes(overrides, seeds):
    """Scalar overrides merge into the base; list-valued ones sweep."""
    base, axes, keys = [], {}, set()
    for item in overrides:
        key, value = config_mod.parse_override(item)
        keys.add(key)
        if isinstance(value, list):
            if not value:
                raise ConfigError(f"sweep axis {key!r} is empty")
            axes[key] = value
        else:
            base.append(item)
    if seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {seeds}")
    if seeds > 1:
        if "seed" in keys:
            raise ConfigError(
                "--seeds cannot be combined with a 'seed' override; give "
                "one or the other")
        axes["seed"] = list(range(seeds))
    return base, axes


def _combo_dirname(combo):
    """One path component per cell: "%" and the path separators in an
    axis value are percent-escaped ("/" -> "%2F", "%" -> "%25"), so a
    value such as /data/a.csv cannot nest the cell's directory."""
    escape = {c: f"%{ord(c):02X}" for c in ("%", "/", os.sep, os.altsep)
              if c}
    return ",".join(
        f"{k}={''.join(escape.get(c, c) for c in str(v))}" for k, v in combo)


def cmd_sweep(args):
    base, axes = _split_axes(args.overrides, args.seeds)
    keys = sorted(axes)
    combos = [tuple(zip(keys, values))
              for values in itertools.product(*(axes[k] for k in keys))]
    run_dirs = []
    jobs = []
    for combo in combos:
        overrides = base + [f"{k}={json.dumps(v)}" for k, v in combo]
        cfg = config_mod.parse_config(args.config, overrides)
        out_dir = os.path.join(args.out, _combo_dirname(combo) or "run")
        run_dirs.append(out_dir)
        jobs.append((cfg, out_dir))
    run_cells(jobs)

    summary_path = os.path.join(args.out, "summary.csv")
    emit_summary(run_dirs, summary_path)
    print(f"wrote {summary_path}")
    return EXIT_OK


def deal_cells(cells):
    """The processes that run a sweep's cells, this one first, as a list
    of (CPU share, cells) pairs.

    P = min(cells, process slots) processes, with the cells and the usable
    CPUs dealt round-robin: process i runs cells i, i + P, i + 2P, ... on
    CPUs i, i + P, ... of the sorted usable set. A fixed deal, not a
    queue, so this process runs the same cells every time. With one
    process its share is None: it keeps every CPU and runs every cell."""
    n = min(len(cells), processes.process_slots())
    if n < 2:
        return [(None, cells)]
    cpus = sorted(os.sched_getaffinity(0))
    return [(cpus[i::n], cells[i::n]) for i in range(n)]


def _run_share(cpus, cells):
    if cpus is not None:
        os.sched_setaffinity(0, cpus)
    for cfg, out_dir in cells:
        federation.run_experiment(cfg, out_dir=out_dir)


def run_cells(cells):
    """Run (config, output directory) cells: this process runs its share
    of deal_cells, and a worker forked through processes.Forked each
    other share. A cell worker's pipe carries its share in and no result
    back: the cells write their own output directories. Each cell forks
    its round workers from its own CPU share (federation.worker_count).
    Every cell writes the same bits on any number of processes, so the
    outputs are those of the cells run in order. A worker's exception is
    raised again here once this process's cells are done."""
    (cpus, mine), *others = deal_cells(cells)
    mask = os.sched_getaffinity(0) if others else None
    try:
        with processes.Forked() as workers:
            for job in others:
                workers.fork(_run_share).send(job)
            _run_share(cpus, mine)
            workers.replies()
    finally:
        if mask is not None:
            os.sched_setaffinity(0, mask)


def cmd_check(args):
    failures = selfcheck.run_all()
    return EXIT_OK if failures == 0 else EXIT_RUNTIME


def cmd_export_plot(args):
    with open(args.metrics, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    value_cols = [c for c in (reader.fieldnames or [])
                  if c not in ("round", "client_id", "split")]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "client_id", "split", "metric", "value"])
        for row in rows:
            for col in value_cols:
                if row[col] != "":
                    writer.writerow([row["round"], row["client_id"],
                                     row["split"], col, row[col]])
    print(f"wrote {args.out}")
    return EXIT_OK


def emit_summary(run_dirs, out_path):
    """Final-round mean personalized accuracy per (method, alpha), with
    std over seeds when a cell has several runs. Every other field whose
    value differs between the runs labels the rows in a column of its
    own, so runs of different configs are never averaged together."""
    runs = []
    for d in run_dirs:
        cfg_path = os.path.join(d, "resolved_config.json")
        metrics_path = os.path.join(d, "metrics.csv")
        if not (os.path.exists(cfg_path) and os.path.exists(metrics_path)):
            continue
        with open(cfg_path) as fh:
            cfg = json.load(fh)
        rows = _read_metrics(metrics_path)
        runs.append((cfg, federation.final_mean_accuracy(rows, split="test")))

    axes = sorted({k for cfg, _ in runs for k in cfg
                   if k not in ("seed", "method", "dirichlet_alpha")
                   and len({c.get(k) for c, _ in runs}) > 1})
    cells = {}
    for cfg, acc in runs:
        label = (cfg["method"], *(cfg.get(k) for k in axes))
        cells.setdefault((label, cfg["dirichlet_alpha"]), []).append(acc)

    labels = sorted({label for label, _ in cells})
    alphas = sorted({a for _, a in cells})
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", *axes] + [f"alpha={a:g}" for a in alphas])
        for label in labels:
            # an axis value as it is written in a `--set` override
            out = [label[0], *(v if isinstance(v, str) else json.dumps(v)
                               for v in label[1:])]
            for a in alphas:
                vals = cells.get((label, a))
                if not vals:
                    out.append("absent")
                elif len(vals) == 1:
                    out.append(f"{vals[0]:.4f}")
                else:
                    out.append(f"{np.mean(vals):.4f}+-{np.std(vals):.4f}")
            writer.writerow(out)


def _read_metrics(path):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for r in reader:
            rows.append([int(r["round"]), int(r["client_id"]), r["split"],
                         float(r["accuracy"]) if r["accuracy"] else float("nan")])
    return rows


def build_parser():
    parser = argparse.ArgumentParser(prog="hyperfed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="cartesian sweep over list overrides")
    _add_common(p_sweep)
    p_sweep.add_argument("--seeds", type=int, default=1,
                         help="replicate each cell over seeds 0..N-1")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_check = sub.add_parser("check", help="run the built-in invariant suite")
    p_check.set_defaults(fn=cmd_check)

    p_plot = sub.add_parser("export-plot", help="reshape metrics.csv to long format")
    p_plot.add_argument("--metrics", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(fn=cmd_export_plot)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CsvFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
