"""Outside-in tracer: wraps fedsched's public functions from the benchmark.

Nothing under `src/` knows about it. `Tracer.install()` replaces each traced
function or method with a wrapper everywhere fedsched looks it up (a name
imported with `from .scheduling import schedule_one` is a separate binding
in `fedsched.sim`, so every fedsched module attribute that is the original
object is replaced), and `uninstall()` puts the originals back.

Layer-level calls record a span (name, start, end, parent, step id); spans
under one `Simulation.step` share that step's id. Calls too frequent for a
span (per-node `allocatable`, vector construction, queue pushes) are only
counted. Spans stay in flat arrays in memory and are written out by
`write_spans` at the end. Each layer's time is its spans' self time: their
duration minus the part covered by child spans and by intervals handed to
`exclude` (the benchmark's own speed probe).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from time import perf_counter
from typing import Dict, List

# Span names, and the `<module>.<what>_s` metric their self time feeds.
SPAN_METRICS = {
    "config.validate_config": "config.validate_s",
    "federation.retry_pending": "federation.retry_pending_s",
    "federation.broadcast_aggregates": "federation.broadcast_s",
    "scheduling.snapshot_of": "scheduling.snapshot_of_s",
    "scheduling.schedule_one": "scheduling.schedule_one_s",
    "cluster.aggregate_allocatable": "cluster.aggregate_allocatable_s",
    "metascale.on_tick": "metascale.on_tick_s",
    "sim.pending_requests": "sim.pending_requests_s",
    "metrics.build_report": "metrics.build_report_s",
}
WRITER_SPANS = (
    "metrics.write_event_log",
    "metrics.write_pods_csv",
    "metrics.write_series_csv",
    "metrics.write_summary_json",
)

EVENT_KINDS = (
    "PodSubmit", "BatchJobSubmit", "ChaperonCreate", "CandidateReport",
    "ElectionTimeout", "DelegateBind", "CandidateDelete", "StatusMirror",
    "PodComplete", "JobComplete", "RebalanceTick", "HeartbeatTick",
    "SensorMessage", "TriggerFired",
)

# Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = {
    "federation.retry_pending_calls": "count",
    "federation.retry_pending_s": "s",
    "federation.chaperons_scanned": "count",
    "federation.retry_attempts": "count",
    "federation.retry_success_ratio": "ratio",
    "scheduling.snapshot_of_calls": "count",
    "scheduling.snapshot_of_s": "s",
    "scheduling.schedule_one_calls": "count",
    "scheduling.schedule_one_s": "s",
    "scheduling.nodes_considered": "count",
    "scheduling.fit_ratio": "ratio",
    "cluster.allocatable_calls": "count",
    "cluster.aggregate_allocatable_s": "s",
    "cluster.bind_calls": "count",
    "cluster.reserve_calls": "count",
    "cluster.release_calls": "count",
    "cluster.unbind_calls": "count",
    "resources.vectors_built": "count",
    "federation.broadcast_calls": "count",
    "federation.broadcast_s": "s",
    "federation.reports_per_broadcast": "ratio",
    "federation.elections": "count",
    "federation.election_timeouts": "count",
    "federation.giveups": "count",
    "metascale.on_tick_s": "s",
    "sim.pending_requests_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.step_us_p50": "us",
    "sim.step_us_p99": "us",
    **{f"sim.step_s.{kind}": "s" for kind in EVENT_KINDS},
    "engine.push_calls": "count",
    "engine.queue_peak_len": "count",
    "engine.delivery_time_calls": "count",
    "metrics.build_report_s": "s",
    "metrics.write_s": "s",
    "metrics.events_bytes": "bytes",
    "config.validate_s": "s",
    "trace.spans": "count",
}


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_step = array("i")
        self.step_kinds: List[str] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._step = -1
        self._patches: list = []
        self._excluded: List[tuple] = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_step.append(self._step)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(perf_counter())
        return index

    def _end(self, index: int) -> None:
        self.span_end[index] = perf_counter()
        self._stack.pop()

    def spanned(self, name: str, fn, before=None, after=None):
        """Wrap `fn` in a span; `before(args)` and `after(args, result)`
        record counts at the same boundary."""
        name_id = self._name_id(name)
        begin, end = self._begin, self._end

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            index = begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------------

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _patch_function(self, fn, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "fedsched" or module_name.startswith("fedsched.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        from fedsched import cluster, config, engine, federation, metascale, metrics
        from fedsched import resources, scheduling, sim

        counts = self.counts
        for name in ("federation.chaperons_scanned", "federation.retry_attempts",
                     "federation.retry_reserved", "federation.reports_sent",
                     "scheduling.nodes_considered", "scheduling.fits",
                     "engine.queue_peak_len"):
            counts[name] = 0

        for name, fn in (
            ("config.validate_config", config.validate_config),
            ("scheduling.snapshot_of", scheduling.snapshot_of),
            ("metrics.build_report", metrics.build_report),
            ("metrics.write_event_log", metrics.write_event_log),
            ("metrics.write_pods_csv", metrics.write_pods_csv),
            ("metrics.write_series_csv", metrics.write_series_csv),
            ("metrics.write_summary_json", metrics.write_summary_json),
        ):
            self._patch_function(fn, self.spanned(name, fn))

        def scheduled(args, node):
            counts["scheduling.nodes_considered"] += len(args[1].nodes)
            if node is not None:
                counts["scheduling.fits"] += 1

        self._patch_function(
            scheduling.schedule_one,
            self.spanned("scheduling.schedule_one", scheduling.schedule_one, after=scheduled),
        )

        protocol = federation.FederationProtocol
        in_retry = [0]

        def scanning(args):
            counts["federation.chaperons_scanned"] += len(args[0].chaperons)

        retry_pending = self.spanned(
            "federation.retry_pending", protocol.retry_pending, before=scanning
        )

        def retry_pending_marked(*args, **kwargs):
            in_retry[0] += 1
            try:
                return retry_pending(*args, **kwargs)
            finally:
                in_retry[0] -= 1

        self._patch_method(protocol, "retry_pending", retry_pending_marked)

        try_candidate = protocol.try_candidate_schedule
        pending_state = federation.ChaperonState.PENDING_SCHEDULE

        def try_candidate_counted(self_, chaperon):
            result = try_candidate(self_, chaperon)
            if in_retry[0]:
                counts["federation.retry_attempts"] += 1
                if chaperon.state is not pending_state:
                    counts["federation.retry_reserved"] += 1
            return result

        self._patch_method(protocol, "try_candidate_schedule", try_candidate_counted)

        def reporting(args):
            protocol_, target = args[0], args[1]
            counts["federation.reports_sent"] += len(protocol_.ctx.graph.sources_of(target))

        self._patch_method(protocol, "broadcast_aggregates", self.spanned(
            "federation.broadcast_aggregates", protocol.broadcast_aggregates, before=reporting
        ))

        state_cls = cluster.ClusterState
        self._patch_method(state_cls, "aggregate_allocatable", self.spanned(
            "cluster.aggregate_allocatable", state_cls.aggregate_allocatable
        ))
        for attr, name in (
            ("allocatable", "cluster.allocatable_calls"),
            ("bind", "cluster.bind_calls"),
            ("reserve", "cluster.reserve_calls"),
            ("release_reservation", "cluster.release_calls"),
            ("unbind", "cluster.unbind_calls"),
        ):
            self._patch_method(state_cls, attr, self.counted(name, getattr(state_cls, attr)))

        vector = resources.ResourceVector
        self._patch_method(vector, "__post_init__",
                           self.counted("resources.vectors_built", vector.__post_init__))

        queue_push = engine.EventQueue.push

        def push_counted(queue, *args, **kwargs):
            event = queue_push(queue, *args, **kwargs)
            if len(queue) > counts["engine.queue_peak_len"]:
                counts["engine.queue_peak_len"] = len(queue)
            return event

        self._patch_method(engine.EventQueue, "push",
                           self.counted("engine.push_calls", push_counted))
        self._patch_method(engine.LatencyChannels, "delivery_time", self.counted(
            "engine.delivery_time_calls", engine.LatencyChannels.delivery_time
        ))

        self._patch_method(metascale.MetaScaler, "on_tick", self.spanned(
            "metascale.on_tick", metascale.MetaScaler.on_tick
        ))

        simulation = sim.Simulation
        for attr, name in (
            ("__init__", "sim.init"),
            ("run", "sim.run"),
            ("pending_requests", "sim.pending_requests"),
        ):
            self._patch_method(simulation, attr, self.spanned(name, getattr(simulation, attr)))

        step = simulation.step
        step_id = self._name_id("sim.step")
        begin, end, kinds = self._begin, self._end, self.step_kinds

        def step_traced(sim_self):
            self._step = len(kinds)
            kinds.append("")
            index = begin(step_id)
            try:
                event = step(sim_self)
            finally:
                end(index)
                self._step = -1
            kinds[-1] = event.kind
            return event

        self._patch_method(simulation, "step", step_traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def exclude(self, intervals) -> None:
        """Take the benchmark's own time inside spans (the speed probe's
        samples) out of them: each (start, end) becomes covered time of the
        innermost span open when it started."""
        for start, end in intervals:
            index = bisect_right(self.span_start, start) - 1
            while index >= 0 and self.span_end[index] < start:
                index = self.span_parent[index]
            if index >= 0:
                self._excluded.append((index, end - start))

    def _net_durations(self) -> List[float]:
        """Each span's duration less the excluded time anywhere inside it."""
        net = [end - start for start, end in zip(self.span_start, self.span_end)]
        for index, seconds in self._excluded:
            while index >= 0:
                net[index] -= seconds
                index = self.span_parent[index]
        return net

    def self_times(self) -> Dict[str, float]:
        """Self time per span name, with `sim.step` split by event kind."""
        net = self._net_durations()
        covered = [0.0] * len(net)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += net[i]
        step_id = self._name_ids.get("sim.step", -1)
        totals: Dict[str, float] = {}
        for i, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            if name_id == step_id:
                name = f"sim.step.{self.step_kinds[self.span_step[i]]}"
            totals[name] = totals.get(name, 0.0) + net[i] - covered[i]
        return totals

    def span_counts(self) -> Dict[str, int]:
        calls: Dict[str, int] = {}
        for name_id in self.span_name:
            name = self.names[name_id]
            calls[name] = calls.get(name, 0) + 1
        return calls

    def step_durations_us(self) -> List[float]:
        step_id = self._name_ids.get("sim.step", -1)
        net = self._net_durations()
        return [net[i] * 1e6 for i, name_id in enumerate(self.span_name) if name_id == step_id]

    def run_seconds(self) -> float:
        run_id = self._name_ids.get("sim.run", -1)
        net = self._net_durations()
        return sum(net[i] for i, name_id in enumerate(self.span_name) if name_id == run_id)

    def write_spans(self, path: str) -> None:
        """Write every span as `name start end parent step` lines (times in s)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\tstep\n")
            origin = self.span_start[0] if len(self.span_start) else 0.0
            for i in range(len(self.span_start)):
                name = self.names[self.span_name[i]]
                if name == "sim.step":
                    name = f"sim.step.{self.step_kinds[self.span_step[i]]}"
                handle.write(
                    f"{name}\t{self.span_start[i] - origin:.9f}\t"
                    f"{self.span_end[i] - origin:.9f}\t{self.span_parent[i]}\t{self.span_step[i]}\n"
                )
