"""Throughput ladder: informational, not gated, not a benchmark workload.

    python3 perfbench/ladder.py [--seed N]

Runs the fed-mesh-overload generator once at each pod count in RUNGS, with
the 50-minute submit window of the ROADMAP.md ladder (same clusters, so
offered load grows with the rung), each in a fresh child like run.py, and
prints pods_per_s per rung and the max/min ratio. ROADMAP.md aims for throughput within 2x across the
ladder; today it falls as runs grow.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import run
import workloads

RUNGS = (500, 1000, 2000)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fedsched throughput ladder")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "fedsched", "__init__.py")):
        print("error: run from the root of a fedsched checkout (src/fedsched not found)",
              file=sys.stderr)
        return 2
    os.makedirs(run.WORK_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="ladder-", dir=run.WORK_DIR)
    rates = []
    try:
        for pods in RUNGS:
            config_path = os.path.join(scratch, f"pods-{pods}.json")
            with open(config_path, "w", encoding="utf-8") as handle:
                json.dump(workloads.fed_mesh_overload(args.seed, pods=pods, window_min=50), handle)
            result = run.run_child(config_path, os.path.join(scratch, "out"))
            if not result["ok"]:
                print(f"rung {pods} pods FAILED: {result['violations']}")
                return 1
            rates.append(result["pods_per_s"])
            print(f"rung {pods:>5} pods  {result['pods_per_s']:>9.1f} pods/s  "
                  f"run {result['run_s']:.2f} s  {result['events']} events")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"pods_per_s max/min ratio {max(rates) / min(rates):.2f} (target: within 2x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
