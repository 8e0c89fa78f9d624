"""Command-line entry point: run | sweep | check | export-plot.

`run` executes a single experiment into an output directory. `sweep` takes
list-valued `--set` overrides as sweep axes and runs the cartesian product,
its cells in parallel processes where the CPUs allow, then writes a
method-by-alpha summary table with a column for each other field that
differs between the runs. `check` runs the acceptance gate's five oracle
criteria (hyperfed.oracles). `export-plot` reshapes a metrics.csv into
long format.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import os
import sys

import numpy as np

from . import config as config_mod
from . import federation, oracles, processes
from .config import ConfigError
from .data import CsvFormatError, read_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _add_common(parser):
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config field")
    parser.add_argument("--out", required=True, help="output directory")


@contextlib.contextmanager
def output_dirs(paths):
    """Create the output directories before any run starts, so that one
    that cannot be made fails at once, as a ConfigError naming it, not
    after training. If the command then fails, the directories this made
    are removed again while they are empty."""
    made = []
    for path in paths:
        new, head = [], os.path.abspath(path)
        while not os.path.lexists(head):
            new.append(head)
            head = os.path.dirname(head)
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror}") from exc
        made += reversed(new)
    try:
        yield
    except BaseException:
        for path in reversed(made):
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def cmd_run(args):
    cfg = config_mod.parse_config(args.config, args.overrides)
    with output_dirs([args.out]):
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
    """Run the cartesian product of the sweep axes. An axis with two
    values that give the same config (seed=[1,1], lambda2=[1,1.0]) is a
    ConfigError naming the axis and both values, before any directory is
    made: its cells would run one config into one directory twice."""
    base, axes = _split_axes(args.overrides, args.seeds)
    keys = sorted(axes)
    jobs, cells = [], {}
    for picks in itertools.product(*(range(len(axes[k])) for k in keys)):
        combo = [(k, axes[k][i]) for k, i in zip(keys, picks)]
        overrides = base + [f"{k}={json.dumps(v)}" for k, v in combo]
        cfg = config_mod.parse_config(args.config, overrides)
        first = cells.setdefault(cfg, picks)
        if first != picks:
            # the cells differ on an axis whose two values coerce equal
            k, i, j = next((k, i, j) for k, i, j in zip(keys, first, picks)
                           if i != j)
            raise ConfigError(
                f"{k}: the values {json.dumps(axes[k][i])} and "
                f"{json.dumps(axes[k][j])} give the same config")
        jobs.append((cfg, os.path.join(args.out,
                                       _combo_dirname(combo) or "run")))
    with output_dirs([args.out, *(out_dir for _, out_dir in jobs)]):
        results = run_cells(jobs)

    summary_path = os.path.join(args.out, "summary.csv")
    emit_summary(results, summary_path)
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
    """Run cells in order, on cpus when given. Returns each cell's
    (config dict, final mean test accuracy), the accuracy at the 12
    significant digits that its metrics.csv holds (NaN where that is
    empty)."""
    if cpus is not None:
        os.sched_setaffinity(0, cpus)
    results = []
    for cfg, out_dir in cells:
        rows, _, _ = federation.run_experiment(cfg, out_dir=out_dir)
        acc = float(f"{federation.final_mean_accuracy(rows):.12g}")
        results.append((config_mod.config_to_dict(cfg), acc))
    return results


def run_cells(cells):
    """Run (config, output directory) cells: this process runs its share
    of deal_cells, and a worker forked through processes.Forked each
    other share. A cell worker's pipe carries its share in and the
    results of _run_share back. Each cell forks its round workers from
    its own CPU share (federation.worker_count).
    Every cell writes the same bits on any number of processes, so the
    outputs are those of the cells run in order. A worker's exception is
    raised again here once this process's cells are done. Returns the
    cells' results in cell order."""
    (cpus, mine), *others = deal_cells(cells)
    mask = os.sched_getaffinity(0) if others else None
    try:
        with processes.Forked() as workers:
            for job in others:
                workers.fork(_run_share).send(job)
            shares = [_run_share(cpus, mine), *workers.replies()]
    finally:
        if mask is not None:
            os.sched_setaffinity(0, mask)
    # share i holds cells i, i + P, i + 2P, ... of the P shares
    results = [None] * len(cells)
    for i, share in enumerate(shares):
        results[i::len(shares)] = share
    return results


def cmd_check(args):
    """Every check runs; one that raises fails with its exception named."""
    passed = []
    for name, check in oracles.CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # noqa: BLE001 - a raising check fails
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        passed.append(ok)
    return EXIT_OK if all(passed) else EXIT_RUNTIME


def cmd_export_plot(args):
    """A metrics file whose header lacks round, client_id or split, or
    with a row of another field count than the header's, is a format
    error naming the file (and the row's line), before --out is made."""
    keys = ["round", "client_id", "split"]
    header, rows = read_csv(args.metrics)
    missing = [k for k in keys if k not in header]
    if missing:
        raise CsvFormatError(
            f"{args.metrics}: the header has no {missing[0]!r} column")
    rows = [dict(zip(header, fields)) for _, fields in rows]
    value_cols = [c for c in header if c not in keys]
    try:
        fh = open(args.out, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"{args.out}: {exc.strerror}") from exc
    with fh:
        writer = csv.writer(fh)
        writer.writerow(keys + ["metric", "value"])
        for row in rows:
            for col in value_cols:
                if row[col] != "":
                    writer.writerow([row["round"], row["client_id"],
                                     row["split"], col, row[col]])
    print(f"wrote {args.out}")
    return EXIT_OK


def _alpha_header(a):
    """alpha=%g if that reads back as a, else alpha=repr(a): one per a."""
    short = f"{a:g}"
    return f"alpha={short if float(short) == a else repr(a)}"


def emit_summary(runs, out_path):
    """Final-round mean personalized accuracy per (method, alpha), from a
    sweep's (config dict, accuracy) results, with std over seeds when a
    cell has several runs. Every other field whose value differs between
    the runs labels the rows in a column of its own, so runs of different
    configs are never averaged together."""
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
        writer.writerow(["method", *axes] + [_alpha_header(a) for a in alphas])
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

    p_check = sub.add_parser(
        "check", help="run the acceptance gate's five oracle criteria")
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
