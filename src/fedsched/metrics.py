"""Run metrics, derived entirely from the event log.

The report builder consumes either live Event objects or records parsed back
from an exported JSONL log; both yield the same report, which is what makes
metrics recomputable after the fact (`fedsched report`). The input may be
any iterable, a list or a generator, read once.

Event log line format: one compact JSON object per line, in this field order,
    {"t":<ms>,"seq":<n>,"kind":"<EventKind>","payload":{...},"fx":[...]}
where "fx" lists the state changes the event's processing produced. A pod's
phase has no effect of its own: the report reads it from the pod's records,
Running from its `bind`, Completed from its `unbind` and Unschedulable from
its `unschedulable`. Strings are ASCII-escaped and non-finite floats are
written as `NaN`/`Infinity`, as `json.dumps` with `(",", ":")` separators
does.

A live Event holds no payload dict and no effect dict: its `args` are the
values of its kind's `engine.FIELDS`, in order, and its `payload` property
zips the two where a record needs one; its effects are a tuple of effect
tuples, `(shape, v1, ...)`, the values of the fields
`engine.EFFECT_FIELDS[shape]` names. Its (cpu, memory, gpu) figures (a
pod's `req`, a report's `capacity` and `allocatable`) are `Triple`s. A
record read back from a log holds a payload dict, one dict per effect, and
lists in place of the tuples. `record_of` gives a live Event's payload in
`FIELDS` order and its `fx` as a fresh list of effect dicts, each `op`
first and then its shape's fields in order, as a parsed record has them.
Both encode to the same JSON. The report reads a `PodSubmit`'s fields from
a live Event's `args` and from a record's payload alike, reads effects by
position, turning a record's effect into its shape's tuple first, and keeps
the triples it reads, `PodRow.req`, `SeriesRow.used` and
`SeriesRow.capacity`, as tuples either way.

A live Event's line is a compiled head per kind and a compiled writer per
effect shape. Both are compiled at import, the heads from `engine.FIELDS`
and the effect writers from `engine.EFFECT_FIELDS`. A head writes
everything up to `"fx":` straight from the args, an effect writer one
effect's object from its tuple, each field in the JSON form `_FORMS` gives
it: strings through `encode_basestring_ascii`, ints as they print, bools
from a table, triples as `[a,b,c]`, lists of strings as `["a","b"]`. A
field `_FORMS` does not list (today only `probability`) goes through one
encoder, built once at import: the C accelerator that `json.JSONEncoder`
would otherwise rebuild per call, or, where the interpreter lacks it, a
plain `JSONEncoder`. `t` and `seq` are ints, and the kind and op are
those the two tables name, none of which needs escaping. A record read
back from a log, of any kind, is encoded whole. `write_event_log` writes a
live Event's line itself, from the same head and effect writers and
without a call to `serialize_event`, and an event with one effect without
a join; a record read back goes through `serialize_event`.

pods.csv and timeseries.csv are the csv module's excel dialect, written
without it for the rows that need no quoting. Each row is one f-string of
its fields joined by commas: ints as they print, `federated` as 0/1, ""
for a missing time, cluster or node. A writer takes `_CHUNK` rows at a
time and writes a chunk whose lines `_plain` passes as one string, each
line ended by `\\r\\n`. In any other chunk each such line is written as is
and each other row goes through `csv.writer`, which quotes it. summary.json
is one `json.dumps` and one write.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

from .engine import EFFECT_FIELDS, FIELDS, POD_SUBMIT, Event
from .errors import LogError
from .resources import ZERO, Triple, add_triples, subtract_triples


@dataclass(slots=True)
class PodRow:
    pod_id: str
    namespace: str
    role: str
    source_cluster: str
    federated: bool
    submit_time: int
    req: Triple
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


@dataclass(slots=True)
class SeriesRow:
    time: int
    cluster: str
    used: Triple
    capacity: Triple
    pending: int


@dataclass(slots=True)
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


def static_info_of(specs) -> StaticInfo:
    """Node capacities and pools of `specs`, the run's `ClusterSpec`s as
    its config builds them at t=0, before any rebalancing; a report needs
    nothing else from the run."""
    capacity = {}
    pool = {}
    for spec in specs:
        nodes = spec.nodes.values()
        capacity[spec.cluster_id] = {n.node_id: n.capacity.as_list() for n in nodes}
        pool[spec.cluster_id] = {n.node_id: n.pool.value for n in nodes}
    return StaticInfo(node_capacity=capacity, node_pool=pool)


def record_of(event) -> dict:
    if isinstance(event, Event):
        return {
            "t": event.time,
            "seq": event.seq,
            "kind": event.kind,
            "payload": event.payload,
            "fx": [_effect_record(fx) for fx in event.effects],
        }
    return event


def _effect_record(fx: tuple) -> dict:
    """An effect tuple as a log record holds it: `op`, then its shape's
    fields in order."""
    op, names = EFFECT_FIELDS[fx[0]]
    record = {"op": op}
    record.update(zip(names, fx[1:]))
    return record


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

# How a live Event's writers write each payload and effect field's value, as
# an f-string fragment of the variable `%(v)s` that holds it. Each form holds
# only for a value of the field's type: a str, an int `timer` or `version`, a
# bool `federated`, a (cpu, memory, gpu) tuple of ints, a list or tuple of
# strs. A field not listed goes through `_encode`. `phase` is a StatusMirror
# payload's.
_FORMS = {
    **dict.fromkeys(
        ("pod", "cluster", "ns", "role", "job", "target", "status", "phase", "node",
         "source", "camera", "src", "dst", "state", "elected", "reason", "pool"),
        "{encode_basestring_ascii(%(v)s)}",
    ),
    **dict.fromkeys(("timer", "version"), "{%(v)s}"),
    "federated": "{_BOOLS[%(v)s]}",
    **dict.fromkeys(("req", "capacity", "allocatable"), "[{%(v)s[0]},{%(v)s[1]},{%(v)s[2]}]"),
    **dict.fromkeys(
        ("targets", "nodes", "pods"), '[{",".join(map(encode_basestring_ascii, %(v)s))}]'
    ),
}
_UNLISTED = "{_encode(%(v)s)}"


def _fields(names: Tuple[str, ...]) -> str:
    """The f-string fragment `"name":<form>,...` of `names`, the i-th name's
    value held in the variable `ai` and written in the form `_FORMS` gives
    it."""
    assert all(name.isidentifier() for name in names)
    return ",".join(
        f'"{name}":' + _FORMS.get(name, _UNLISTED) % {"v": f"a{i}"}
        for i, name in enumerate(names)
    )


def _compile(signature: str, unpack: str, line: str):
    """The function `signature` that runs `unpack`, if any, and returns the
    f-string `line`. It is compiled as `dataclasses` compiles `__init__`,
    and its names resolve in this module, so an unlisted field goes through
    whatever `_encode` is at call time."""
    body = f"    {unpack}\n" if unpack else ""
    scope = {}
    exec(f"def {signature}:\n{body}    return f{line!r}\n", globals(), scope)
    return scope[signature.partition("(")[0]]


def _head_writer(kind: str, names: Tuple[str, ...]):
    """The function of `(time, seq, args)` that writes a `kind` Event's line
    up to its effects, `{"t":..,"seq":..,"kind":"<kind>","payload":{..},"fx":`."""
    assert kind.isidentifier()
    line = '{{"t":{t},"seq":{seq},"kind":"%s","payload":{{%s}},"fx":' % (kind, _fields(names))
    unpack = "".join(f"a{i}, " for i in range(len(names)))
    return _compile("head(t, seq, args)", unpack and f"{unpack}= args", line)


def _effect_writer(op: str, names: Tuple[str, ...]):
    """The function of an effect tuple `(shape, v1, ...)` that writes the
    effect's object, `{"op":"<op>",..}`, its values those of `names`."""
    assert op.isidentifier() and names
    line = '{{"op":"%s",%s}}' % (op, _fields(names))
    unpack = "".join(f"a{i}, " for i in range(len(names)))
    return _compile("effect(fx)", f"_, {unpack}= fx", line)


# Each kind's head writer, made from `FIELDS`, and each effect shape's
# writer, made from `EFFECT_FIELDS`.
_HEADS = {kind: _head_writer(kind, names) for kind, names in FIELDS.items()}
_EFFECTS = {shape: _effect_writer(*fields) for shape, fields in EFFECT_FIELDS.items()}


def serialize_event(event) -> str:
    if isinstance(event, Event):
        effects = event.effects
        fx = ",".join([_EFFECTS[effect[0]](effect) for effect in effects]) if effects else ""
        return f'{_HEADS[event.kind](event.time, event.seq, event.args)}[{fx}]}}'
    return _encode(record_of(event))


def write_event_log(path: str, events) -> None:
    """Write each of `events` as its `serialize_event` line. A live Event's
    line is written here, as `serialize_event` writes it, without a call to
    it; a record read back from a log goes through it."""
    heads, writers = _HEADS, _EFFECTS
    with open(path, "w", encoding="utf-8") as handle:
        write = handle.write
        for event in events:
            if not isinstance(event, Event):
                write(f"{serialize_event(event)}\n")
                continue
            effects = event.effects
            head = heads[event.kind](event.time, event.seq, event.args)
            if not effects:
                write(f"{head}[]}}\n")
            elif len(effects) == 1:
                effect = effects[0]
                write(f"{head}[{writers[effect[0]](effect)}]}}\n")
            else:
                fx = ",".join([writers[effect[0]](effect) for effect in effects])
                write(f"{head}[{fx}]}}\n")


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


# The effects the report reads, each op with the fields it reads; each is its
# own shape. A record's effect of one of these ops is read as its shape's
# tuple: each field the report reads by its key, so that a missing one is a
# KeyError that `fedsched report` locates, and any other as None, so that a
# record need not hold it. A record's effect of another op in `EFFECT_FIELDS`
# is skipped; one whose op is not there is a ValueError that `fedsched
# report` locates.
_READS = {
    "bind": {"pod", "cluster", "node", "req", "federated", "src"},
    "unbind": {"pod", "cluster", "req"},
    "unschedulable": {"pod"},
    "pool_move": {"cluster", "node"},
    "node_ready": {"cluster", "node", "pool"},
    "registry": {"version"},
    "trigger": {"pods"},
}
assert all(EFFECT_FIELDS[op][0] == op for op in _READS)
# Per op of `EFFECT_FIELDS`: for one the report reads, each field of its
# shape in order, or None where the report does not read it; None for any
# other op.
_RECORD_FIELDS = dict.fromkeys(op for op, _ in EFFECT_FIELDS.values())
_RECORD_FIELDS.update({
    op: tuple(name if name in read else None for name in EFFECT_FIELDS[op][1])
    for op, read in _READS.items()
})
# The shapes the report does not read: the federation's bookkeeping of
# chaperons, proxies and reservations, and batch jobs. They are about three
# quarters of all effects, so one set lookup skips each before the shape
# comparisons below.
_UNREAD = frozenset(EFFECT_FIELDS.keys() - _READS.keys())


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
                pod_id, cluster, namespace, federated, role, req = event.args
        else:
            t, kind = event["t"], event["kind"]
            if type(t) is not int:
                raise ValueError(f"record t is not an int: {t!r}")
            effects = []
            for fx in event["fx"]:
                op = fx["op"]
                if op not in _RECORD_FIELDS:
                    raise ValueError(f"unknown effect op {op!r}")
                names = _RECORD_FIELDS[op]
                if names is not None:
                    effects.append((op, *[None if n is None else fx[n] for n in names]))
            if kind == POD_SUBMIT:
                payload = event["payload"]
                pod_id, cluster, namespace = payload["pod"], payload["cluster"], payload["ns"]
                federated, req = payload["federated"], tuple(payload["req"])
                role = payload["role"]
                # What a live PodSubmit holds, so that pods.csv writes a
                # replayed pod as it writes a live one.
                for name, value in (("ns", namespace), ("role", role)):
                    if type(value) is not str:
                        raise ValueError(f"PodSubmit {name} is not a str: {value!r}")
                if type(federated) is not bool:
                    raise ValueError(f"PodSubmit federated is not a bool: {federated!r}")
                if len(req) != 3 or any(type(v) is not int for v in req):
                    raise ValueError(f"PodSubmit req is not three ints: {payload['req']!r}")
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
                req=req,
            )
            pending[cluster] += 1
            rows[(t, cluster)] = (used[cluster], cap[cluster], pending[cluster])

        # Each effect is a tuple of its shape's fields, read by position.
        for fx in effects:
            shape = fx[0]
            if shape in _UNREAD:
                continue
            if shape == "bind":
                # A federated bind is its delegate's: one offload from the
                # pod's source to the cluster it bound in.
                _, pod_id, cluster, node, request, federated, source = fx
                if federated:
                    key = (source, cluster)
                    report.offloads[key] = report.offloads.get(key, 0) + 1
                row = pods[pod_id]
                row.bind_time = t
                row.bound_cluster = cluster
                row.bound_node = node
                row.final_phase = "Running"
                used[cluster] = add_triples(used[cluster], request)
                pending[source] -= 1
                rows[(t, cluster)] = (used[cluster], cap[cluster], pending[cluster])
                rows[(t, source)] = (used[source], cap[source], pending[source])
            elif shape == "unbind":
                _, pod_id, cluster, _, request = fx
                used[cluster] = subtract_triples(used[cluster], request)
                row = pods[pod_id]
                row.complete_time = t
                row.final_phase = "Completed"
                rows[(t, cluster)] = (used[cluster], cap[cluster], pending[cluster])
            elif shape == "unschedulable":
                row = pods[fx[1]]
                row.final_phase = "Unschedulable"
                source = row.source_cluster
                pending[source] -= 1
                rows[(t, source)] = (used[source], cap[source], pending[source])
            elif shape == "pool_move":
                _, cluster, node, _, _ = fx
                if node_in_container[(cluster, node)]:
                    capacity = static.node_capacity[cluster][node]
                    cap[cluster] = subtract_triples(cap[cluster], capacity)
                    node_in_container[(cluster, node)] = False
                    rows[(t, cluster)] = (used[cluster], cap[cluster], pending[cluster])
            elif shape == "node_ready":
                _, cluster, node, pool = fx
                if pool == "Container" and not node_in_container[(cluster, node)]:
                    capacity = static.node_capacity[cluster][node]
                    cap[cluster] = add_triples(cap[cluster], capacity)
                    node_in_container[(cluster, node)] = True
                    rows[(t, cluster)] = (used[cluster], cap[cluster], pending[cluster])
            elif shape == "registry":
                report.registry_version = fx[1]
            elif shape == "trigger":
                _, _, pod_ids = fx
                triggers.append((t, list(pod_ids)))

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


# The columns of pods.csv and timeseries.csv. No name needs quoting, so a
# header is the names joined by commas.
_POD_COLUMNS = (
    "pod_id", "namespace", "role", "source_cluster", "federated",
    "submit_ms", "bind_ms", "time_to_bind_ms", "bound_cluster",
    "bound_node", "complete_ms", "final_phase",
    "cpu_millicores", "memory_bytes", "gpu_count",
)
_SERIES_COLUMNS = (
    "time_ms", "cluster", "cpu_used", "memory_used", "gpu_used",
    "cpu_capacity", "memory_capacity", "gpu_capacity", "pending",
)

# Rows per chunk of pods.csv and timeseries.csv: each chunk is tested and
# written as one string, so a writer holds no more of its file than that.
# Chunks of 512 rows wrote `local-wide`'s two files about 0.1 ms faster but
# raised `fed-mesh-overload`'s peak RSS by 0.12 MiB (`BENCH_34.json`).
_CHUNK = 128


def _plain(text: str, lines: int, commas: int) -> bool:
    """Whether `text`, the f-string lines of `lines` rows run together, each
    line its row's fields joined by commas, holds no field that the csv
    module would write otherwise. It quotes a field that holds a comma, a
    quote, a `\\r` or a `\\n`, and writes None as an empty field; any other
    str, int, float or bool it writes as `str` does, as an f-string does.
    So `text` passes when it holds none of those characters but its
    `commas` commas per line, and no `None`. A field that holds the string
    `None` fails too, which costs time, not bytes."""
    return ('"' not in text and "\r" not in text and "\n" not in text
            and text.count(",") == commas * lines and "None" not in text)


def _write_chunk(handle, lines: List[str], rows: list, commas: int, fields) -> None:
    """Write `lines`, the f-string lines of `rows`, to `handle` as
    `csv.writer` writes each row's `fields(row)`: the whole chunk at once
    when it is plain, else each plain line as is and each other row
    through `csv.writer`."""
    if _plain("".join(lines), len(lines), commas):
        handle.write("\r\n".join(lines))
        handle.write("\r\n")
        return
    writerow = csv.writer(handle).writerow
    for row, line in zip(rows, lines):
        if _plain(line, 1, commas):
            handle.write(f"{line}\r\n")
        else:
            writerow(fields(row))


def _pod_fields(row: PodRow) -> list:
    """A pod's pods.csv fields, as `csv.writer` takes them."""
    return [
        row.pod_id, row.namespace, row.role, row.source_cluster,
        int(row.federated), row.submit_time,
        "" if row.bind_time is None else row.bind_time,
        "" if row.time_to_bind is None else row.time_to_bind,
        row.bound_cluster or "", row.bound_node or "",
        "" if row.complete_time is None else row.complete_time,
        row.final_phase, *row.req,
    ]


def _series_fields(row: SeriesRow) -> list:
    """A (time, cluster) row's timeseries.csv fields, as `csv.writer` takes
    them."""
    return [row.time, row.cluster, *row.used, *row.capacity, row.pending]


def write_pods_csv(path: str, report: MetricsReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(_POD_COLUMNS) + "\r\n")
        pods = report.pods
        for start in range(0, len(pods), _CHUNK):
            rows = pods[start:start + _CHUNK]
            lines = []
            append = lines.append
            for row in rows:
                submit, bind, complete = row.submit_time, row.bind_time, row.complete_time
                cpu, memory, gpu = row.req
                append(
                    f"{row.pod_id},{row.namespace},{row.role},{row.source_cluster},"
                    f"{int(row.federated)},{submit},{'' if bind is None else bind},"
                    f"{'' if bind is None else bind - submit},"
                    f"{row.bound_cluster or ''},{row.bound_node or ''},"
                    f"{'' if complete is None else complete},{row.final_phase},"
                    f"{cpu},{memory},{gpu}"
                )
            _write_chunk(handle, lines, rows, 14, _pod_fields)


def write_series_csv(path: str, report: MetricsReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(_SERIES_COLUMNS) + "\r\n")
        series = report.series
        for start in range(0, len(series), _CHUNK):
            rows = series[start:start + _CHUNK]
            lines = []
            append = lines.append
            for row in rows:
                used_cpu, used_memory, used_gpu = row.used
                cap_cpu, cap_memory, cap_gpu = row.capacity
                append(
                    f"{row.time},{row.cluster},{used_cpu},{used_memory},{used_gpu},"
                    f"{cap_cpu},{cap_memory},{cap_gpu},{row.pending}"
                )
            _write_chunk(handle, lines, rows, 8, _series_fields)


def write_summary_json(path: str, report: MetricsReport) -> None:
    text = json.dumps(report.summary(), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{text}\n")
