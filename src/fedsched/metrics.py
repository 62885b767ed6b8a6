"""Run metrics, derived entirely from the event log.

The report builder consumes either live Event objects or records parsed back
from an exported JSONL log; both yield the same report, which is what makes
metrics recomputable after the fact (`fedsched report`).

Event log line format: one compact JSON object per line, in this field order,
    {"t":<ms>,"seq":<n>,"kind":"<EventKind>","payload":{...},"fx":[...]}
where "fx" lists the state changes the event's processing produced. Strings
are ASCII-escaped and non-finite floats are written as `NaN`/`Infinity`, as
`json.dumps` with `(",", ":")` separators does.

Every line goes through one encoder, built once at import: the C
accelerator that `json.JSONEncoder` would otherwise rebuild per call, or,
where the interpreter lacks it, a plain `JSONEncoder`. For a live Event the
head up to `"payload":` is written by hand and only the payload and effects
are encoded: `t` and `seq` are ints, and the kind is one of the
`engine.EVENT_KINDS` constants, none of which needs escaping. An Event of
any other kind, and a record read back from a log, is encoded whole.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Dict, Iterator, List, Optional, Tuple

from .engine import EVENT_KINDS, POD_SUBMIT, Event
from .errors import LogError
from .resources import ZERO, Triple, add_triples, subtract_triples


@dataclass
class PodRow:
    pod_id: str
    namespace: str
    role: str
    source_cluster: str
    federated: bool
    submit_time: int
    request: List[int]
    bind_time: Optional[int] = None
    bound_cluster: Optional[str] = None
    bound_node: Optional[str] = None
    complete_time: Optional[int] = None
    final_phase: str = "Pending"

    @property
    def time_to_bind(self) -> Optional[int]:
        if self.bind_time is None:
            return None
        return self.bind_time - self.submit_time


@dataclass
class SeriesRow:
    time: int
    cluster: str
    used: List[int]
    capacity: List[int]
    pending: int


@dataclass
class TriggerLatency:
    pod_id: str
    trigger_time: int
    bind_time: Optional[int]


@dataclass
class MetricsReport:
    pods: List[PodRow] = field(default_factory=list)
    series: List[SeriesRow] = field(default_factory=list)
    offloads: Dict[Tuple[str, str], int] = field(default_factory=dict)
    trigger_latencies: List[TriggerLatency] = field(default_factory=list)
    trigger_count: int = 0
    registry_version: int = 1
    event_count: int = 0
    end_time: int = 0

    def summary(self) -> dict:
        bound = [p for p in self.pods if p.bind_time is not None]
        ttb = sorted(p.time_to_bind for p in bound)
        fired = sorted(
            t.bind_time - t.trigger_time
            for t in self.trigger_latencies
            if t.bind_time is not None
        )
        return {
            "events": self.event_count,
            "end_time_ms": self.end_time,
            "pods_total": len(self.pods),
            "pods_bound": len(bound),
            "pods_completed": sum(1 for p in self.pods if p.final_phase == "Completed"),
            "pods_unschedulable": sum(1 for p in self.pods if p.final_phase == "Unschedulable"),
            "pods_pending_end": sum(1 for p in self.pods if p.final_phase == "Pending"),
            "time_to_bind_ms": {
                "mean": (sum(ttb) / len(ttb)) if ttb else None,
                "median": ttb[len(ttb) // 2] if ttb else None,
                "max": ttb[-1] if ttb else None,
            },
            "offloads": {f"{s}->{t}": n for (s, t), n in sorted(self.offloads.items())},
            "trigger_count": self.trigger_count,
            "trigger_to_bind_ms": {
                "mean": (sum(fired) / len(fired)) if fired else None,
                "max": fired[-1] if fired else None,
            },
            "registry_version": self.registry_version,
        }


@dataclass
class StaticInfo:
    """Per-node capacity and starting pool, needed to anchor the series."""

    node_capacity: Dict[str, Dict[str, List[int]]]
    node_pool: Dict[str, Dict[str, str]]


def static_info_of(config) -> StaticInfo:
    """Node capacities and pools as the run's config builds them at t=0,
    before any rebalancing; a report needs nothing else from the run."""
    capacity = {}
    pool = {}
    for cluster_cfg in config.clusters:
        nodes = cluster_cfg.build_nodes()
        capacity[cluster_cfg.cluster_id] = {n.node_id: n.capacity.as_list() for n in nodes}
        pool[cluster_cfg.cluster_id] = {n.node_id: n.pool.value for n in nodes}
    return StaticInfo(node_capacity=capacity, node_pool=pool)


def record_of(event) -> dict:
    if isinstance(event, Event):
        return {
            "t": event.time,
            "seq": event.seq,
            "kind": event.kind,
            "payload": event.payload,
            "fx": event.effects,
        }
    return event


def _make_encode(make_encoder):
    """The compact JSON encoding of one value, through a C encoder made once
    by `make_encoder` (`json.encoder.c_make_encoder`), or through a plain
    `JSONEncoder` when that is None. Neither checks for cycles: payloads and
    effects are trees of plain values."""
    fallback = json.JSONEncoder(separators=(",", ":"), check_circular=False)
    if make_encoder is None:
        return fallback.encode
    chunks = make_encoder(
        None, fallback.default, encode_basestring_ascii, None, ":", ",", False, False, True
    )

    def encode(value, _chunks=chunks, _join="".join):
        return _join(_chunks(value, 0))
    return encode


_encode = _make_encode(c_make_encoder)

# What follows `"seq":<n>` up to the payload, for each kind of live Event.
_KIND_HEADS = {kind: f',"kind":"{kind}","payload":' for kind in EVENT_KINDS}


def serialize_event(event) -> str:
    if isinstance(event, Event):
        head = _KIND_HEADS.get(event.kind)
        if head is not None:
            return (
                f'{{"t":{event.time},"seq":{event.seq}{head}'
                f'{_encode(event.payload)},"fx":{_encode(event.effects)}}}'
            )
    return _encode(record_of(event))


def write_event_log(path: str, events) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(serialize_event(event))
            handle.write("\n")


def read_event_log(path: str) -> Iterator[dict]:
    """The records of a written log, one per line, read as they are
    consumed, so a report holds no more of the log than one line. A file
    that cannot be read, or a line that is not JSON, is a LogError naming
    the file and line."""
    try:
        with open(path, "rb") as handle:
            for number, line in enumerate(handle, 1):
                try:
                    record = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    # ValueError covers malformed JSON and bytes that are not
                    # UTF-8; RecursionError, nesting too deep to decode.
                    raise LogError(f"invalid JSON: {exc}", f"{path}:{number}") from None
                yield record
    except OSError as exc:
        raise LogError(f"cannot read event log: {exc.strerror}", path) from None


# Effect ops the report does not read: the federation's bookkeeping of
# chaperons, proxies, status mirrors and reservations, and batch jobs. They
# are about three quarters of all effects, so one set lookup skips each
# before the op comparisons below.
_UNREAD_OPS = frozenset({"chaperon", "proxy", "mirror", "reserve", "release", "job"})


def build_report(events, static: StaticInfo) -> MetricsReport:
    report = MetricsReport()
    pods: Dict[str, PodRow] = {}

    # Container-pool capacity per cluster, adjusted by pool moves, and the
    # requests bound there, as (cpu, memory, gpu) triples. Going below zero
    # raises OvercommitError: only a broken log can do it.
    cap: Dict[str, Triple] = {}
    used: Dict[str, Triple] = {}
    pending: Dict[str, int] = {}
    node_in_container: Dict[Tuple[str, str], bool] = {}
    for cluster, nodes in static.node_capacity.items():
        total = ZERO
        for node_id, capacity in nodes.items():
            ready_container = static.node_pool[cluster][node_id] == "Container"
            node_in_container[(cluster, node_id)] = ready_container
            if ready_container:
                total = add_triples(total, capacity)
        cap[cluster] = total
        used[cluster] = ZERO
        pending[cluster] = 0

    # The last (used, capacity, pending) of each (time, cluster) touched.
    rows: Dict[Tuple[int, str], Tuple[Triple, Triple, int]] = {}

    def touch(time: int, cluster: str) -> None:
        rows[(time, cluster)] = (used[cluster], cap[cluster], pending[cluster])

    triggers: List[Tuple[int, List[str]]] = []
    count = 0
    end = 0

    for event in events:
        if isinstance(event, Event):
            t, kind, payload, effects = event.time, event.kind, event.payload, event.effects
        else:
            t, kind, payload, effects = event["t"], event["kind"], event["payload"], event["fx"]
        count += 1
        if t > end:
            end = t

        if kind == POD_SUBMIT:
            pods[payload["pod"]] = PodRow(
                pod_id=payload["pod"],
                namespace=payload["ns"],
                role=payload.get("role", "workload"),
                source_cluster=payload["cluster"],
                federated=payload["federated"],
                submit_time=t,
                request=list(payload["req"]),
            )
            pending[payload["cluster"]] += 1
            touch(t, payload["cluster"])

        for fx in effects:
            op = fx["op"]
            if op in _UNREAD_OPS:
                continue
            if op == "bind":
                row = pods[fx["pod"]]
                row.bind_time = t
                row.bound_cluster = fx["cluster"]
                row.bound_node = fx["node"]
                row.final_phase = "Bound"
                used[fx["cluster"]] = add_triples(used[fx["cluster"]], fx["req"])
                pending[fx["src"]] -= 1
                touch(t, fx["cluster"])
                touch(t, fx["src"])
            elif op == "unbind":
                used[fx["cluster"]] = subtract_triples(used[fx["cluster"]], fx["req"])
                row = pods[fx["pod"]]
                row.complete_time = t
                touch(t, fx["cluster"])
            elif op == "phase":
                pods[fx["pod"]].final_phase = fx["phase"]
            elif op == "unschedulable":
                row = pods[fx["pod"]]
                row.final_phase = "Unschedulable"
                pending[row.source_cluster] -= 1
                touch(t, row.source_cluster)
            elif op == "offload":
                key = (fx["src"], fx["dst"])
                report.offloads[key] = report.offloads.get(key, 0) + 1
            elif op == "pool_move":
                key = (fx["cluster"], fx["node"])
                if node_in_container[key]:
                    capacity = static.node_capacity[fx["cluster"]][fx["node"]]
                    cap[fx["cluster"]] = subtract_triples(cap[fx["cluster"]], capacity)
                    node_in_container[key] = False
                    touch(t, fx["cluster"])
            elif op == "node_ready":
                key = (fx["cluster"], fx["node"])
                if fx["pool"] == "Container" and not node_in_container[key]:
                    capacity = static.node_capacity[fx["cluster"]][fx["node"]]
                    cap[fx["cluster"]] = add_triples(cap[fx["cluster"]], capacity)
                    node_in_container[key] = True
                    touch(t, fx["cluster"])
            elif op == "registry":
                report.registry_version = fx["version"]
            elif op == "trigger":
                triggers.append((t, list(fx["pods"])))

    report.pods = sorted(pods.values(), key=lambda p: (p.submit_time, p.pod_id))
    # Popping each row as its SeriesRow is made keeps the two from
    # coexisting at the end of a run, when memory peaks.
    for time, cluster in sorted(rows):
        used_now, cap_now, pending_now = rows.pop((time, cluster))
        report.series.append(SeriesRow(time, cluster, list(used_now), list(cap_now), pending_now))
    report.event_count = count
    report.end_time = end
    report.trigger_count = len(triggers)
    for trigger_time, pod_ids in triggers:
        for pod_id in pod_ids:
            row = pods.get(pod_id)
            report.trigger_latencies.append(
                TriggerLatency(
                    pod_id=pod_id,
                    trigger_time=trigger_time,
                    bind_time=row.bind_time if row else None,
                )
            )
    return report


def write_pods_csv(path: str, report: MetricsReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "pod_id", "namespace", "role", "source_cluster", "federated",
                "submit_ms", "bind_ms", "time_to_bind_ms", "bound_cluster",
                "bound_node", "complete_ms", "final_phase",
                "cpu_millicores", "memory_bytes", "gpu_count",
            ]
        )
        for row in report.pods:
            writer.writerow(
                [
                    row.pod_id, row.namespace, row.role, row.source_cluster,
                    int(row.federated), row.submit_time,
                    "" if row.bind_time is None else row.bind_time,
                    "" if row.time_to_bind is None else row.time_to_bind,
                    row.bound_cluster or "", row.bound_node or "",
                    "" if row.complete_time is None else row.complete_time,
                    row.final_phase, *row.request,
                ]
            )


def write_series_csv(path: str, report: MetricsReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "time_ms", "cluster", "cpu_used", "memory_used", "gpu_used",
                "cpu_capacity", "memory_capacity", "gpu_capacity", "pending",
            ]
        )
        for row in report.series:
            writer.writerow([row.time, row.cluster, *row.used, *row.capacity, row.pending])


def write_summary_json(path: str, report: MetricsReport) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.summary(), handle, indent=2, sort_keys=True)
        handle.write("\n")
