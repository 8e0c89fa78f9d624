"""Command-line entry point: run | sweep | check | export-plot.

`run` executes a single experiment into an output directory. `sweep` takes
list-valued `--set` overrides as sweep axes and runs the cartesian product,
then writes a method-by-alpha summary table. `check` runs the built-in
invariant suite. `export-plot` reshapes a metrics.csv into long format.
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
from . import federation, selfcheck
from .config import ConfigError

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


def _split_axes(config_path, overrides, seeds):
    """Scalar overrides merge into the base; list-valued ones sweep."""
    base, axes, keys = [], {}, set()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        key = key.strip()
        keys.add(key)
        value = config_mod._parse_override_value(raw.strip())
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
    return ",".join(f"{k}={v}" for k, v in combo)


def cmd_sweep(args):
    base, axes = _split_axes(args.config, args.overrides, args.seeds)
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
    # cells run one after another; each run trains on every usable CPU
    for cfg, out_dir in jobs:
        federation.run_experiment(cfg, out_dir=out_dir)

    summary_path = os.path.join(args.out, "summary.csv")
    emit_summary(run_dirs, summary_path)
    print(f"wrote {summary_path}")
    return EXIT_OK


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
    std over seeds when a cell has several runs."""
    cells = {}
    for d in run_dirs:
        cfg_path = os.path.join(d, "resolved_config.json")
        metrics_path = os.path.join(d, "metrics.csv")
        if not (os.path.exists(cfg_path) and os.path.exists(metrics_path)):
            continue
        with open(cfg_path) as fh:
            cfg = json.load(fh)
        rows = _read_metrics(metrics_path)
        acc = federation.final_mean_accuracy(rows, split="test")
        cells.setdefault((cfg["method"], cfg["dirichlet_alpha"]), []).append(acc)

    methods = sorted({m for m, _ in cells})
    alphas = sorted({a for _, a in cells})
    lines = ["method," + ",".join(f"alpha={a:g}" for a in alphas)]
    for m in methods:
        out = [m]
        for a in alphas:
            vals = cells.get((m, a))
            if not vals:
                out.append("absent")
            elif len(vals) == 1:
                out.append(f"{vals[0]:.4f}")
            else:
                out.append(f"{np.mean(vals):.4f}+-{np.std(vals):.4f}")
        lines.append(",".join(out))
    with open(out_path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
