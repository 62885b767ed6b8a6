"""Run metrics, derived entirely from the event log.

The report builder consumes Events: those of a live run, or those
`read_event_log` reads back from an exported JSONL log. Both yield the same
report, which is what makes metrics recomputable after the fact (`fedsched
report`). The input may be any iterable, a list or a generator, read once.

Event log line format: one compact JSON object per line, in this field order,
    {"t":<ms>,"seq":<n>,"kind":"<EventKind>","payload":{...},"fx":[...]}
where "fx" lists the state changes the event's processing produced. A pod's
phase has no effect of its own: the report reads it from the pod's records,
Running from its `bind`, Completed from its `unbind` and Unschedulable from
its `unschedulable`. Strings are ASCII-escaped and non-finite floats are
written as `NaN`/`Infinity`, as `json.dumps` with `(",", ":")` separators
does.

An Event holds no payload dict and no effect dict: its `args` are the
values of its kind's `engine.FIELDS`, in order, and its `payload` property
zips the two where a record needs one; its effects are a tuple of effect
tuples, `(shape, v1, ...)`, the values of the fields
`engine.EFFECT_FIELDS[shape]` names. Its (cpu, memory, gpu) figures (a
pod's `req`, a report's `capacity` and `allocatable`) are `Triple`s, and a
proxy's `targets` a tuple. `record_of` gives an Event's payload in `FIELDS`
order and its `fx` as a fresh list of effect dicts, each `op` first and
then its shape's fields in order, as its line writes them.

`read_event_log` reads each line back to the Event that writes it, and
refuses a line no Event writes: one that is not an object with the five
keys in order, whose `t` or `seq` is not an int, whose kind is not in
`FIELDS` or whose payload keys are not that kind's fields in order, whose
effects' keys are not an `op` and then one shape's fields in order, or
that holds a value of another type than its field's form writes. Each
check comes from `_FORMS`, as each write does.

An Event's line is a compiled head per kind and a compiled writer per
effect shape. Both are compiled at import, the heads from `engine.FIELDS`
and the effect writers from `engine.EFFECT_FIELDS`. A head writes
everything up to `"fx":` straight from the args, an effect writer one
effect's object from its tuple, each field in the JSON form `_FORMS` gives
it: strings through `encode_basestring_ascii`, ints as they print, bools
from a table, triples as `[a,b,c]`, tuples or lists of strings as
`["a","b"]`. A field `_FORMS` does not list (today only `probability`)
goes through one encoder, built once at import: the C accelerator that
`json.JSONEncoder` would otherwise rebuild per call, or, where the
interpreter lacks it, a plain `JSONEncoder`. `t` and `seq` are ints, and
the kind and op are those the two tables name, none of which needs
escaping. `write_event_log` writes each line itself, from the head and
effect writers, and an event with one effect without a join.

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


def record_of(event: Event) -> dict:
    """An Event as its line writes it: `t`, `seq`, `kind`, its payload in
    `FIELDS` order and its `fx` as a fresh list of effect dicts."""
    return {
        "t": event.time,
        "seq": event.seq,
        "kind": event.kind,
        "payload": event.payload,
        "fx": [_effect_record(fx) for fx in event.effects],
    }


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


def _is(kind: type, noun: str):
    """The reader of a value that is held as parsed: one of type `kind`."""
    def read(value):
        if type(value) is kind:
            return value
        raise ValueError(noun)
    return read


def _read_triple(value) -> Triple:
    if type(value) is list and len(value) == 3 and all(type(v) is int for v in value):
        return tuple(value)
    raise ValueError("three ints")


def _strs(hold: type):
    """The reader of a list of strs that a live Event holds as a `hold`."""
    def read(value):
        if type(value) is list and all(type(v) is str for v in value):
            return hold(value)
        raise ValueError("a list of strs")
    return read


# How each payload and effect field's value is written and read back: the
# f-string fragment of the variable `%(v)s` that writes it, and the reader
# of its parsed JSON value, which returns the value a live Event holds or
# raises ValueError naming what it should be. Each fragment holds only for
# a value of the field's type: a str, an int `timer` or `version`, a bool
# `federated`, a (cpu, memory, gpu) tuple of ints, a tuple (`targets`) or
# list of strs. A field not listed goes through `_encode`, and is read back
# as a float. `phase` is a StatusMirror payload's.
_STRS = '[{",".join(map(encode_basestring_ascii, %(v)s))}]'
_FORMS = {
    **dict.fromkeys(
        ("pod", "cluster", "ns", "role", "job", "target", "status", "phase", "node",
         "source", "camera", "src", "dst", "state", "elected", "reason", "pool"),
        ("{encode_basestring_ascii(%(v)s)}", _is(str, "a str")),
    ),
    **dict.fromkeys(("timer", "version"), ("{%(v)s}", _is(int, "an int"))),
    "federated": ("{_BOOLS[%(v)s]}", _is(bool, "a bool")),
    **dict.fromkeys(
        ("req", "capacity", "allocatable"), ("[{%(v)s[0]},{%(v)s[1]},{%(v)s[2]}]", _read_triple)
    ),
    "targets": (_STRS, _strs(tuple)),
    **dict.fromkeys(("nodes", "pods"), (_STRS, _strs(list))),
}
_UNLISTED = ("{_encode(%(v)s)}", _is(float, "a float"))


def _fields(names: Tuple[str, ...]) -> str:
    """The f-string fragment `"name":<form>,...` of `names`, the i-th name's
    value held in the variable `ai` and written in the form `_FORMS` gives
    it."""
    assert all(name.isidentifier() for name in names)
    return ",".join(
        f'"{name}":' + _FORMS.get(name, _UNLISTED)[0] % {"v": f"a{i}"}
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


def write_event_log(path: str, events) -> None:
    """Write each of `events` as its line, from its kind's head writer and
    its effects' writers."""
    heads, writers = _HEADS, _EFFECTS
    with open(path, "w", encoding="utf-8") as handle:
        write = handle.write
        for event in events:
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


_LINE_KEYS = ("t", "seq", "kind", "payload", "fx")
# Each kind's payload fields and their readers; per (op, keys) of an effect
# as its line writes them, `op` first, its shape, fields and their readers.
_KINDS = {
    kind: (names, [_FORMS.get(name, _UNLISTED)[1] for name in names])
    for kind, names in FIELDS.items()
}
_SHAPES = {
    (op, ("op", *names)): (shape, names, [_FORMS[name][1] for name in names])
    for shape, (op, names) in EFFECT_FIELDS.items()
}


def _held(what: str, names, reads, values) -> tuple:
    """The values an Event holds for `values`, the parsed values of `what`'s
    fields `names`, each through its reader in `reads`; a ValueError naming
    the first one its reader refuses."""
    held = []
    for name, read, value in zip(names, reads, values):
        try:
            held.append(read(value))
        except ValueError as exc:
            raise ValueError(f"{what} {name} is not {exc}: {value!r}") from None
    return tuple(held)


def _event_of(record) -> Event:
    """The Event whose line parses to `record`; a ValueError saying why
    when no Event writes such a line."""
    if type(record) is not dict or tuple(record) != _LINE_KEYS:
        raise ValueError(f"not an object with keys {', '.join(_LINE_KEYS)}, in that order")
    t, seq, kind, payload, fx = record.values()
    if type(t) is not int:
        raise ValueError(f"t is not an int: {t!r}")
    if type(seq) is not int:
        raise ValueError(f"seq is not an int: {seq!r}")
    if type(kind) is not str or kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    names, reads = _KINDS[kind]
    if type(payload) is not dict or tuple(payload) != names:
        raise ValueError(f"{kind} payload is not {', '.join(names)}, in that order: {payload!r}")
    args = _held(kind, names, reads, payload.values())
    if type(fx) is not list:
        raise ValueError(f"fx is not a list: {fx!r}")
    effects = []
    for effect in fx:
        op = effect.get("op") if type(effect) is dict else None
        found = _SHAPES.get((op, tuple(effect))) if type(op) is str else None
        if found is None:
            raise ValueError(f"no effect shape has the op and keys of {effect!r}")
        shape, names, reads = found
        effects.append((shape, *_held(shape, names, reads, list(effect.values())[1:])))
    return Event(t, seq, kind, args, tuple(effects))


def read_event_log(path: str) -> Iterator[Event]:
    """The Events of a written log, one per line, read as they are
    consumed, so a report holds no more of the log than one line. A file
    that cannot be read, a line that is not JSON, or one that no Event
    writes is a LogError naming the file and line."""
    try:
        with open(path, "rb") as handle:
            for number, line in enumerate(handle, 1):
                try:
                    record = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    # ValueError covers malformed JSON and bytes that are not
                    # UTF-8; RecursionError, nesting too deep to decode.
                    raise LogError(f"invalid JSON: {exc}", f"{path}:{number}") from None
                try:
                    event = _event_of(record)
                except ValueError as exc:
                    raise LogError(f"not a line a run writes: {exc}", f"{path}:{number}") from None
                yield event
    except OSError as exc:
        raise LogError(f"cannot read event log: {exc.strerror}", path) from None


# The shapes the report does not read: the federation's bookkeeping of
# chaperons, proxies and reservations, and batch jobs. They are about three
# quarters of all effects, so one set lookup skips each before the shape
# comparisons below.
_UNREAD = frozenset(EFFECT_FIELDS.keys() - {
    "bind", "unbind", "unschedulable", "pool_move", "node_ready", "registry", "trigger",
})


def build_report(events, static: StaticInfo) -> MetricsReport:
    """The report of `events`, an iterable of Events, read once."""
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
        t, kind, effects = event.time, event.kind, event.effects
        if t > end:
            end = t

        if kind == POD_SUBMIT:
            pod_id, cluster, namespace, federated, role, req = event.args
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
