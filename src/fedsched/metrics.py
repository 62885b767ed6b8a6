"""Run metrics, derived entirely from the event log.

The report builder consumes either live Event objects or records parsed back
from an exported JSONL log; both yield the same report, which is what makes
metrics recomputable after the fact (`fedsched report`). The input may be
any iterable, a list or a generator, read once.

Event log line format: one compact JSON object per line, in this field order,
    {"t":<ms>,"seq":<n>,"kind":"<EventKind>","payload":{...},"fx":[...]}
where "fx" lists the state changes the event's processing produced. Strings
are ASCII-escaped and non-finite floats are written as `NaN`/`Infinity`, as
`json.dumps` with `(",", ":")` separators does.

A live Event holds no payload dict: its `args` are the values of its
kind's `engine.FIELDS`, in order, and its `payload` property zips the two
where a record needs one. Its effects are a tuple and its (cpu, memory,
gpu) figures (a pod's `req`, a report's `capacity` and `allocatable`) are
`Triple`s; a record read back from a log holds a payload dict, and lists in
place of the tuples. `record_of` gives a live Event's payload in `FIELDS`
order and its `fx` as a fresh list, as a parsed record has them. Both
encode to the same JSON. The report reads a `PodSubmit`'s fields from a
live Event's `args` and from a record's payload alike, and keeps the
triples it reads, `PodRow.request`, `SeriesRow.used` and
`SeriesRow.capacity`, as tuples either way.

A live Event's line is a compiled head per kind, the encoder for effects
and unlisted fields. The head writer of each kind, compiled from
`engine.FIELDS` at import, writes everything up to `"fx":` straight from
the args, each field in the JSON form `_FORMS` gives it: strings through
`encode_basestring_ascii`, ints as they print, bools from a table, triples
as `[a,b,c]`. A field `_FORMS` does not list (today only `probability`)
and non-empty effects go through one encoder, built once at import: the C
accelerator that `json.JSONEncoder` would otherwise rebuild per call, or,
where the interpreter lacks it, a plain `JSONEncoder`; empty effects are
written as `[]`. `t` and `seq` are ints, and the kind is one of the
`engine.FIELDS` kinds, none of which needs escaping. A record read back
from a log, of any kind, is encoded whole.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

from .engine import FIELDS, POD_SUBMIT, Event
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
    request: Triple
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
    used: Triple
    capacity: Triple
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
            "fx": list(event.effects),
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

_BOOLS = {True: "true", False: "false"}

# How a live Event's head writes each payload field's value, as an f-string
# fragment of the variable `%(v)s` that holds it. Each form holds only for a
# value of the field's type: a str, an int `timer`, a bool `federated`, a
# (cpu, memory, gpu) tuple of ints. A field not listed goes through `_encode`.
_FORMS = {
    **dict.fromkeys(
        ("pod", "cluster", "ns", "role", "job", "target", "status", "phase", "node",
         "source", "camera"),
        "{encode_basestring_ascii(%(v)s)}",
    ),
    "timer": "{%(v)s}",
    "federated": "{_BOOLS[%(v)s]}",
    **dict.fromkeys(("req", "capacity", "allocatable"), "[{%(v)s[0]},{%(v)s[1]},{%(v)s[2]}]"),
}
_UNLISTED = "{_encode(%(v)s)}"


def _head_writer(kind: str, names: Tuple[str, ...]):
    """The function of `(time, seq, args)` that writes a `kind` Event's line
    up to its effects, `{"t":..,"seq":..,"kind":"<kind>","payload":{..},"fx":`,
    each field in the form `_FORMS` gives it. It is compiled from `names`, as
    `dataclasses` compiles `__init__`, and its names resolve in this module,
    so an unlisted field goes through whatever `_encode` is at call time."""
    assert kind.isidentifier() and all(name.isidentifier() for name in names)
    values = [f"a{i}" for i in range(len(names))]
    payload = ",".join(
        f'"{name}":' + _FORMS.get(name, _UNLISTED) % {"v": value}
        for name, value in zip(names, values)
    )
    line = '{{"t":{t},"seq":{seq},"kind":"%s","payload":{{%s}},"fx":' % (kind, payload)
    unpack = f"    {', '.join(values)}, = args\n" if names else ""
    scope = {}
    exec(f"def head(t, seq, args):\n{unpack}    return f{line!r}\n", globals(), scope)
    return scope["head"]


# Each kind's head writer, made from `FIELDS`.
_HEADS = {kind: _head_writer(kind, names) for kind, names in FIELDS.items()}


def serialize_event(event) -> str:
    if isinstance(event, Event):
        effects = event.effects
        return (
            f'{_HEADS[event.kind](event.time, event.seq, event.args)}'
            f'{_encode(effects) if effects else "[]"}}}'
        )
    return _encode(record_of(event))


def write_event_log(path: str, events) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        write = handle.write
        for event in events:
            write(f"{serialize_event(event)}\n")


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
    """The report of `events`, an iterable of live Events or of records
    read back from a log, read once. Each item is tested for being an
    Event: on Python 3.11 that and four attribute reads cost less than one
    `operator.attrgetter` call per item (`BENCH_24.json`)."""
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

    # The last (used, capacity, pending) of each (time, cluster) touched;
    # each touch below writes the cluster's row at the event's time.
    rows: Dict[Tuple[int, str], Tuple[Triple, Triple, int]] = {}

    triggers: List[Tuple[int, List[str]]] = []
    count = 0
    end = 0

    for count, event in enumerate(events, 1):
        if isinstance(event, Event):
            t, kind, effects = event.time, event.kind, event.effects
            if kind == POD_SUBMIT:
                pod_id, cluster, namespace, federated, role, request = event.args
        else:
            t, kind, effects = event["t"], event["kind"], event["fx"]
            if kind == POD_SUBMIT:
                payload = event["payload"]
                pod_id, cluster, namespace = payload["pod"], payload["cluster"], payload["ns"]
                federated, request = payload["federated"], tuple(payload["req"])
                role = payload.get("role", "workload")
        if t > end:
            end = t

        if kind == POD_SUBMIT:
            pods[pod_id] = PodRow(
                pod_id=pod_id,
                namespace=namespace,
                role=role,
                source_cluster=cluster,
                federated=federated,
                submit_time=t,
                request=request,
            )
            pending[cluster] += 1
            rows[(t, cluster)] = (used[cluster], cap[cluster], pending[cluster])

        for fx in effects:
            op = fx["op"]
            if op in _UNREAD_OPS:
                continue
            if op == "bind":
                row = pods[fx["pod"]]
                row.bind_time = t
                row.bound_cluster = cluster = fx["cluster"]
                row.bound_node = fx["node"]
                row.final_phase = "Bound"
                used[cluster] = add_triples(used[cluster], fx["req"])
                source = fx["src"]
                pending[source] -= 1
                rows[(t, cluster)] = (used[cluster], cap[cluster], pending[cluster])
                rows[(t, source)] = (used[source], cap[source], pending[source])
            elif op == "unbind":
                cluster = fx["cluster"]
                used[cluster] = subtract_triples(used[cluster], fx["req"])
                pods[fx["pod"]].complete_time = t
                rows[(t, cluster)] = (used[cluster], cap[cluster], pending[cluster])
            elif op == "phase":
                pods[fx["pod"]].final_phase = fx["phase"]
            elif op == "unschedulable":
                row = pods[fx["pod"]]
                row.final_phase = "Unschedulable"
                source = row.source_cluster
                pending[source] -= 1
                rows[(t, source)] = (used[source], cap[source], pending[source])
            elif op == "offload":
                key = (fx["src"], fx["dst"])
                report.offloads[key] = report.offloads.get(key, 0) + 1
            elif op == "pool_move":
                cluster, node = fx["cluster"], fx["node"]
                if node_in_container[(cluster, node)]:
                    capacity = static.node_capacity[cluster][node]
                    cap[cluster] = subtract_triples(cap[cluster], capacity)
                    node_in_container[(cluster, node)] = False
                    rows[(t, cluster)] = (used[cluster], cap[cluster], pending[cluster])
            elif op == "node_ready":
                cluster, node = fx["cluster"], fx["node"]
                if fx["pool"] == "Container" and not node_in_container[(cluster, node)]:
                    capacity = static.node_capacity[cluster][node]
                    cap[cluster] = add_triples(cap[cluster], capacity)
                    node_in_container[(cluster, node)] = True
                    rows[(t, cluster)] = (used[cluster], cap[cluster], pending[cluster])
            elif op == "registry":
                report.registry_version = fx["version"]
            elif op == "trigger":
                triggers.append((t, list(fx["pods"])))

    report.pods = sorted(pods.values(), key=attrgetter("submit_time", "pod_id"))
    # Popping each row as its SeriesRow is made keeps the two from
    # coexisting at the end of a run, when memory peaks.
    for time, cluster in sorted(rows):
        used_now, cap_now, pending_now = rows.pop((time, cluster))
        report.series.append(SeriesRow(time, cluster, used_now, cap_now, pending_now))
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
