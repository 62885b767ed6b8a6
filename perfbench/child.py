"""One benchmark run in a fresh process: what `fedsched run --out` does.

    python3 perfbench/child.py --config CONFIG.json --out DIR [--spans FILE]

Loads the generated config dict (untimed), then times `validate_config`,
`Simulation(config)`, `run()` and the four writers into DIR, exactly as the
CLI does, and SETUP_REPEATS more set-ups of the same config. A speed probe
samples the host's speed meanwhile and scales the host times (see
PROBE_NOMINAL_S). Afterwards, untimed, it checks the run (checks.py), hashes `events.jsonl`,
and prints one JSON line with the measurements. With
`--spans`, the outside-in tracer is installed for the run, its per-layer
metrics are added and its spans are written to FILE.

Runs from the root of a checkout and imports fedsched from its `src/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import checks
import stats
import tracer as tracing

# Set-up is short and noisy, so each child times it this many more times
# after the measured run and reports the median with the measured one.
SETUP_REPEATS = 4

# The host's CPU speed changes by up to 2x within seconds, because other
# tenants share its cores. While a run is timed, a SIGALRM handler therefore
# times a fixed pure-Python loop (no fedsched code) every PROBE_INTERVAL_S.
# Host times are reported net of those samples and scaled by the mean of
# PROBE_NOMINAL_S / sample time: seconds at the speed at which the loop takes
# PROBE_NOMINAL_S, the usual state of the 2-core host the baseline was
# recorded on. The unscaled host seconds are reported as well.
PROBE_INTERVAL_S = 0.1
PROBE_LOOPS = 1_500
PROBE_NOMINAL_S = 0.005


@dataclass(frozen=True)
class _Cell:
    a: int
    b: int
    c: int


def _probe_loop() -> None:
    table = {}
    total = _Cell(0, 0, 0)
    for i in range(PROBE_LOOPS):
        cell = _Cell(i & 7, i & 15, 1)
        total = _Cell(total.a + cell.a, total.b + cell.b, total.c + cell.c)
        table[i & 1023] = sorted((cell.a, cell.b, i & 3))


class SpeedProbe:
    """Samples host speed during the timed part of a run.

    The handler runs in the main thread between bytecodes, so no thread is
    started. Each sample is kept as (start, end) so that time spent in the
    probe can be taken out of any interval, and out of the tracer's spans.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection of the run's heap is not host speed
        try:
            start = perf_counter()
            _probe_loop()
            end = perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.samples.append((start, end))

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def net(self, start: float, end: float) -> float:
        """Host seconds from start to end, less the samples taken in between."""
        return (end - start) - sum(e - s for s, e in self.samples if start <= s < end)

    def scale(self) -> float:
        return statistics.mean(PROBE_NOMINAL_S / (e - s) for s, e in self.samples)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _layer_metrics(tracer, records, events_bytes: int, scale: float) -> dict:
    selfs = tracer.self_times()
    calls = tracer.span_counts()
    counts = tracer.counts
    steps = tracer.step_durations_us()
    run_s = tracer.run_seconds()
    kinds: dict = {}
    elections = giveups = 0
    for rec in records:
        kinds[rec["kind"]] = kinds.get(rec["kind"], 0) + 1
        for fx in rec["fx"]:
            if fx["op"] == "proxy" and fx.get("state") == "Elected":
                elections += 1
            elif fx["op"] == "proxy" and fx.get("reason") == "max_retries":
                giveups += 1

    def ratio(num, den):
        return num / den if den else 0.0

    layers = {name: selfs.get(span, 0.0) for span, name in tracing.SPAN_METRICS.items()}
    layers.update({
        "federation.retry_pending_calls": calls.get("federation.retry_pending", 0),
        "federation.chaperons_scanned": counts["federation.chaperons_scanned"],
        "federation.retry_attempts": counts["federation.retry_attempts"],
        "federation.retry_success_ratio": ratio(
            counts["federation.retry_reserved"], counts["federation.retry_attempts"]
        ),
        "scheduling.snapshot_of_calls": calls.get("scheduling.snapshot_of", 0),
        "scheduling.schedule_one_calls": calls.get("scheduling.schedule_one", 0),
        "scheduling.nodes_considered": counts["scheduling.nodes_considered"],
        "scheduling.fit_ratio": ratio(
            counts["scheduling.fits"], calls.get("scheduling.schedule_one", 0)
        ),
        "cluster.allocatable_calls": counts["cluster.allocatable_calls"],
        "cluster.bind_calls": counts["cluster.bind_calls"],
        "cluster.reserve_calls": counts["cluster.reserve_calls"],
        "cluster.release_calls": counts["cluster.release_calls"],
        "cluster.unbind_calls": counts["cluster.unbind_calls"],
        "resources.vectors_built": counts["resources.vectors_built"],
        "federation.broadcast_calls": calls.get("federation.broadcast_aggregates", 0),
        "federation.reports_per_broadcast": ratio(
            counts["federation.reports_sent"], calls.get("federation.broadcast_aggregates", 0)
        ),
        "federation.elections": elections,
        "federation.election_timeouts": kinds.get("ElectionTimeout", 0),
        "federation.giveups": giveups,
        "sim.events": len(steps),
        "sim.events_per_s": ratio(len(steps), run_s),
        "sim.step_us_p50": stats.percentile(steps, 50),
        "sim.step_us_p99": stats.percentile(steps, 99),
        "engine.push_calls": counts["engine.push_calls"],
        "engine.queue_peak_len": counts["engine.queue_peak_len"],
        "engine.delivery_time_calls": counts["engine.delivery_time_calls"],
        "metrics.write_s": sum(selfs.get(name, 0.0) for name in tracing.WRITER_SPANS),
        "metrics.events_bytes": events_bytes,
        "trace.spans": len(tracer.span_start),
    })
    for kind in tracing.EVENT_KINDS:
        layers[f"sim.step_s.{kind}"] = selfs.get(f"sim.step.{kind}", 0.0)
    for key, unit in tracing.LAYER_UNITS.items():
        if unit in ("s", "us"):
            layers[key] *= scale
        elif unit == "1/s":
            layers[key] /= scale
    return layers


def _setup_intervals(raw: dict, repeats: int) -> list:
    """(start, end) of `repeats` more set-ups of the same config, each on a
    collected heap."""
    from fedsched.config import validate_config
    from fedsched.sim import Simulation

    intervals = []
    for _ in range(repeats):
        gc.collect()
        start = perf_counter()
        Simulation(validate_config(raw))
        intervals.append((start, perf_counter()))
    return intervals


def run_once(raw: dict, out_dir: str, spans_path: str = None) -> dict:
    """Run one config the way the CLI does and return the measurements."""
    from fedsched import config as config_mod
    from fedsched import metrics
    from fedsched.sim import Simulation

    tracer = tracing.Tracer() if spans_path is not None else None
    with SpeedProbe() as probe:
        if tracer is not None:
            tracer.install()
        try:
            start = perf_counter()
            config = config_mod.validate_config(raw)
            sim = Simulation(config)
            ready = perf_counter()
            report = sim.run()
            ran = perf_counter()
            os.makedirs(out_dir, exist_ok=True)
            events_path = os.path.join(out_dir, "events.jsonl")
            metrics.write_event_log(events_path, sim.events)
            metrics.write_pods_csv(os.path.join(out_dir, "pods.csv"), report)
            metrics.write_series_csv(os.path.join(out_dir, "timeseries.csv"), report)
            metrics.write_summary_json(os.path.join(out_dir, "summary.json"), report)
            done = perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setups = [(start, ready), *_setup_intervals(raw, SETUP_REPEATS)]
    scale = probe.scale()

    records = [metrics.record_of(event) for event in sim.events]
    found = checks.violations(records, sim, report)
    ttb = [row.time_to_bind for row in report.pods if row.time_to_bind is not None]
    pods = len(report.pods)
    run_s = probe.net(ready, ran) * scale
    result = {
        "ok": not found,
        "violations": found,
        "host_wall_s": probe.net(start, done),
        "speed_scale": scale,
        "wall_s": probe.net(start, done) * scale,
        "setup_s": statistics.median(probe.net(a, b) for a, b in setups) * scale,
        "run_s": run_s,
        "pods": pods,
        "pods_per_s": pods / run_s,
        "peak_rss_mib": peak_kib / 1024,
        "events": len(records),
        "sim_unschedulable_frac": sum(
            1 for row in report.pods if row.final_phase == "Unschedulable"
        ) / pods,
        "sim_ttb_p50_ms": stats.percentile(ttb, 50),
        "sim_ttb_p95_ms": stats.percentile(ttb, 95),
        "digest": _sha256(events_path),
    }
    if tracer is not None:
        tracer.exclude(probe.samples)
        result["layers"] = _layer_metrics(tracer, records, os.path.getsize(events_path), scale)
        tracer.write_spans(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import fedsched

    if not os.path.abspath(fedsched.__file__).startswith(src + os.sep):
        print(f"fedsched was imported from {fedsched.__file__}, not {src}", file=sys.stderr)
        return 2
    with open(args.config, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    try:
        result = run_once(raw, args.out, args.spans)
    except Exception:  # a run that raises is a failed run, reported to the parent
        result = {"ok": False, "violations": [traceback.format_exc(limit=5)]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
