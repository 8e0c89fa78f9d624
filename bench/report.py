"""Run every workload and print its metrics side by side.

    python3 bench/report.py --seed 0 [--seconds 40] [--trace 1]

Each workload runs as its own `bench/run.py` process (so peak memory is
per workload). The run length defaults to BENCHMARK.json's run_seconds,
the length the bounds were set from. The table gives every metric with
its unit, then each workload's correctness status and failed fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import HERE, ROOT, WORKLOAD_NAMES


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=0)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    results, units = {}, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            results[name] = None
            continue
        results[name] = json.loads(lines[-1])
        for metric, v in results[name]["metrics"].items():
            units[metric] = v["unit"]

    width = max([len(m) for m in units] + [12])
    print(f"{'metric':{width}s} {'unit':6s} "
          + " ".join(f"{n:>16s}" for n in WORKLOAD_NAMES))
    for metric, unit in units.items():
        cells = [f"{r['metrics'][metric]['value']:16.6g}" if r else
                 f"{'-':>16s}" for r in results.values()]
        print(f"{metric:{width}s} {unit:6s} " + " ".join(cells))
    status = [("correct" if r["correct"] else "INCORRECT") if r else "ERROR"
              for r in results.values()]
    frac = [f"{r['failed'] / r['attempted']:.4f} ({r['failed']}/"
            f"{r['attempted']})" if r else "-" for r in results.values()]
    print(f"{'status':{width}s} {'':6s} " + " ".join(f"{s:>16s}" for s in status))
    print(f"{'failed_frac':{width}s} {'ratio':6s} "
          + " ".join(f"{f:>16s}" for f in frac))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
