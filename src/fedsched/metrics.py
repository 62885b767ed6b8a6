"""Run metrics, derived entirely from the event log.

The report builder consumes either live Event objects or records parsed back
from an exported JSONL log; both yield the same report, which is what makes
metrics recomputable after the fact.

Event log line format (stable field order):
    {"t": <ms>, "seq": <n>, "kind": "<EventKind>", "payload": {...}, "fx": [ ... ]}
where "fx" lists the state changes the event's processing produced.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import engine
from .engine import Event
from .resources import ResourceVector


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

    def pod(self, pod_id: str) -> PodRow:
        for row in self.pods:
            if row.pod_id == pod_id:
                return row
        raise KeyError(pod_id)

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


def static_info_of(sim) -> StaticInfo:
    capacity = {}
    pool = {}
    for cluster_id, state in sim.clusters.items():
        capacity[cluster_id] = {
            n.node_id: n.capacity.as_list() for n in state.spec.nodes.values()
        }
        pool[cluster_id] = {}
    # Pools as configured at t=0, not as they ended up after rebalancing.
    for cluster_cfg in sim.config.clusters:
        for node in cluster_cfg.build_nodes():
            pool[cluster_cfg.cluster_id][node.node_id] = node.pool.value
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


# One encoder for every line: `json.dumps` with non-default separators builds
# a new JSONEncoder per call, and an encoder keeps no state between calls.
_EVENT_ENCODER = json.JSONEncoder(separators=(",", ":"))


def serialize_event(event) -> str:
    return _EVENT_ENCODER.encode(record_of(event))


def write_event_log(path: str, events) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(serialize_event(event))
            handle.write("\n")


def read_event_log(path: str) -> List[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def build_report(events, static: StaticInfo) -> MetricsReport:
    report = MetricsReport()
    pods: Dict[str, PodRow] = {}

    # Container-pool capacity per cluster, adjusted by pool moves.
    cap: Dict[str, ResourceVector] = {}
    used: Dict[str, ResourceVector] = {}
    pending: Dict[str, int] = {}
    node_in_container: Dict[Tuple[str, str], bool] = {}
    for cluster, nodes in static.node_capacity.items():
        total = ResourceVector.zero()
        for node_id, capacity in nodes.items():
            ready_container = static.node_pool[cluster][node_id] == "Container"
            node_in_container[(cluster, node_id)] = ready_container
            if ready_container:
                total = total + ResourceVector(*capacity)
        cap[cluster] = total
        used[cluster] = ResourceVector.zero()
        pending[cluster] = 0

    rows: Dict[Tuple[int, str], SeriesRow] = {}

    def touch(time: int, cluster: str) -> None:
        rows[(time, cluster)] = SeriesRow(
            time=time,
            cluster=cluster,
            used=used[cluster].as_list(),
            capacity=cap[cluster].as_list(),
            pending=pending[cluster],
        )

    triggers: List[Tuple[int, List[str]]] = []
    count = 0
    end = 0

    for event in events:
        rec = record_of(event)
        count += 1
        t = rec["t"]
        end = max(end, t)
        payload = rec["payload"]

        if rec["kind"] == engine.POD_SUBMIT:
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

        for fx in rec["fx"]:
            op = fx["op"]
            if op == "bind":
                row = pods[fx["pod"]]
                row.bind_time = t
                row.bound_cluster = fx["cluster"]
                row.bound_node = fx["node"]
                row.final_phase = "Bound"
                used[fx["cluster"]] = used[fx["cluster"]] + ResourceVector(*fx["req"])
                pending[fx["src"]] -= 1
                touch(t, fx["cluster"])
                touch(t, fx["src"])
            elif op == "unbind":
                used[fx["cluster"]] = used[fx["cluster"]].subtract(ResourceVector(*fx["req"]))
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
                    capacity = ResourceVector(*static.node_capacity[fx["cluster"]][fx["node"]])
                    cap[fx["cluster"]] = cap[fx["cluster"]].subtract(capacity)
                    node_in_container[key] = False
                    touch(t, fx["cluster"])
            elif op == "node_ready":
                key = (fx["cluster"], fx["node"])
                if fx["pool"] == "Container" and not node_in_container[key]:
                    capacity = ResourceVector(*static.node_capacity[fx["cluster"]][fx["node"]])
                    cap[fx["cluster"]] = cap[fx["cluster"]] + capacity
                    node_in_container[key] = True
                    touch(t, fx["cluster"])
            elif op == "registry":
                report.registry_version = fx["version"]
            elif op == "trigger":
                triggers.append((t, list(fx["pods"])))

    report.pods = sorted(pods.values(), key=lambda p: (p.submit_time, p.pod_id))
    report.series = [rows[key] for key in sorted(rows)]
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
