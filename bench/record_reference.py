"""Record the reference outputs the benchmark checks every run against.

    python3 bench/record_reference.py --seeds 0-99,1009

Runs every workload once per seed, untraced, and writes each seed's final
accuracies and metrics hash into bench/reference.json (entries for other
seeds are kept). Record references only from a commit whose numerics are
the accepted ones: a later run whose metrics hash differs is reported as a
numeric change, and one whose final accuracy leaves the tolerance fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import WORKDIR, WORKLOAD_NAMES, import_program, pin_environment

TOLERANCE = 0.03   # absolute, on each cell's final accuracy


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=seed_list, required=True,
                   help="comma-separated seeds and ranges, e.g. 0-99,1009")
    args = p.parse_args(argv)
    pin_environment()
    import_program()
    import workloads

    path = workloads.REFERENCE_PATH
    if os.path.exists(path):
        ref = workloads.load_reference()
    else:
        ref = {"tolerance": TOLERANCE, "workloads": {}}
    os.makedirs(WORKDIR, exist_ok=True)
    for name in WORKLOAD_NAMES:
        w = workloads.WORKLOADS[name]
        entry = ref["workloads"].setdefault(name, {"seeds": {}})
        for seed in args.seeds:
            rep = workloads.run_rep(w, seed, workloads.SETUP_SPANS, WORKDIR)
            entry["seeds"][str(seed)] = {"final_acc": rep.final_acc,
                                         "sha256": rep.sha256}
            print(f"{name} seed {seed}: final_acc {rep.final_acc} "
                  f"sha256 {rep.sha256[:12]}", flush=True)
        entry["seeds"] = dict(sorted(entry["seeds"].items(),
                                     key=lambda kv: int(kv[0])))
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
