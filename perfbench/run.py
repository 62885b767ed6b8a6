"""Run benchmark for fedsched: seeded workloads, one CLI-equivalent run per
fresh child process, closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. NAME is one of workloads.WORKLOADS, or
`all` to run each in turn. The seed goes to the benchmark's generator; the
child receives only the generated config. Runs start one after another,
each in a new `python3 perfbench/child.py` process, until S seconds have
passed (the last run is finished, not cut).

`--trace 0` reports the end-to-end metrics as medians over the runs. Host
times are scaled to a reference CPU speed sampled in each child while it
runs (see child.PROBE_NOMINAL_S); unscaled host seconds are printed too.
`--trace 1` alternates untraced and traced runs and reports the per-layer
metrics of the traced ones, plus the tracing overhead. Every run is checked
(checks.py); every run of one seed, traced or not, must write the same
`events.jsonl` bytes. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import stats
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench"
TRACE_DIR = os.path.join(WORK_DIR, "trace")
# A whole invocation must end within 180 s; stop starting children before.
TIME_LIMIT_S = 170.0

# Gated end-to-end metrics: medians over the untraced runs.
E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "pods_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
# End-to-end figures that can be 0 on a workload, so they are printed and
# carried in the traced result, but not gated.
OUTCOME_UNITS = {
    "fail_frac": "ratio",
    "sim_ttb_p50_ms": "ms",
    "sim_ttb_p95_ms": "ms",
    "sim_unschedulable_frac": "ratio",
}
HOST_TIME = ("wall_s", "setup_s", "pods_per_s")
LAYER_UNITS = {
    **tracer.LAYER_UNITS,
    "trace.overhead_s": "s",
    **OUTCOME_UNITS,
}


def run_child(config_path: str, out_dir: str, spans_path: str = None, timeout: float = None) -> dict:
    """Run child.py once and return its result; a crash is a failed run."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--config", config_path, "--out", out_dir]
    if spans_path is not None:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "violations": [f"run exceeded {timeout:.0f} s"]}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "violations": [f"child exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    return json.loads(lines[-1])


def _median(runs, key):
    return statistics.median(run[key] for run in runs)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Closed loop for `seconds`; returns the result object and prints a report."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_DIR)
    started = perf_counter()
    plain, traced = [], []
    try:
        config_path = os.path.join(scratch, "config.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(workloads.generate(workload, seed), handle, sort_keys=True)
        spans_path = os.path.join(TRACE_DIR, f"{workload}-seed{seed}.spans.tsv")
        out_dir = os.path.join(scratch, "out")
        while not plain or perf_counter() - started < seconds:
            plain.append(run_child(config_path, out_dir, timeout=TIME_LIMIT_S - (perf_counter() - started)))
            if trace:
                traced.append(run_child(config_path, out_dir, spans_path,
                                        TIME_LIMIT_S - (perf_counter() - started)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    runs = plain + traced
    ok_plain = [r for r in plain if r["ok"]]
    ok_traced = [r for r in traced if r["ok"]]
    failed = len(runs) - len(ok_plain) - len(ok_traced)
    digests = {r["digest"] for r in ok_plain + ok_traced}
    correct = failed == 0 and len(digests) == 1

    print(f"== {workload}  seed {seed}  ({workloads.WHY[workload]})")
    print(f"   runs {len(plain)} untraced + {len(traced)} traced, failed {failed}, "
          f"{perf_counter() - started:.1f} s")
    for run in runs:
        for line in run["violations"]:
            print(f"   FAILED: {line}")
    if len(digests) > 1:
        print(f"   FAILED: events.jsonl differs between runs of one seed: {sorted(digests)}")
    print(f"   events.jsonl sha256 {' '.join(sorted(digests)) or '-'}")

    e2e, layers = {}, {}
    if ok_plain:
        outcome = {
            "fail_frac": failed / len(runs),
            **{key: _median(ok_plain, key) for key in OUTCOME_UNITS if key != "fail_frac"},
        }
        print("   wall_s per run " + " ".join(f"{r['wall_s']:.4g}" for r in ok_plain))
        print("   host seconds per run, unscaled "
              + " ".join(f"{r['host_wall_s']:.4g}" for r in ok_plain)
              + f"; speed scale median {_median(ok_plain, 'speed_scale'):.3f}")
        for key, unit in E2E_UNITS.items():
            values = [r[key] for r in ok_plain]
            q1, median, q3 = stats.quartiles(values)
            spread = f"  q1 {q1:.6g}  q3 {q3:.6g}" if key in HOST_TIME else ""
            print(f"   {key:<24} {median:>14.6g} {unit:<6} n={len(values)}{spread}")
            e2e[key] = {"value": median, "unit": unit}
        for key, unit in OUTCOME_UNITS.items():
            print(f"   {key:<24} {outcome[key]:>14.6g} {unit:<6} (not gated)")
        if ok_traced:
            values = {key: statistics.median(r["layers"][key] for r in ok_traced)
                      for key in tracer.LAYER_UNITS}
            values["trace.overhead_s"] = _median(ok_traced, "wall_s") - _median(ok_plain, "wall_s")
            values.update(outcome)
            print(f"   traced: spans of the last traced run in {spans_path}")
            for key, unit in LAYER_UNITS.items():
                print(f"   {key:<36} {values[key]:>14.6g} {unit}")
                layers[key] = {"value": values[key], "unit": unit}
    metrics = layers if trace else e2e
    return {"correct": correct and bool(metrics), "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fedsched run benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "fedsched", "__init__.py")):
        print("error: run from the root of a fedsched checkout (src/fedsched not found)",
              file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: measure(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{key}": metric
                for name, r in results.items()
                for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
