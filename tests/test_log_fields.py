"""Every payload field written to the event log is read, and every effect
records something new.

A kind's payload fields are `engine.FIELDS[kind]`; an event holds their
values as `args`, in that order. A field is read when its kind's handler
or `build_report` reads it:
- The loop calls a kind's handler with `*event.args`, so the handler's
  parameters after `self` are the kind's fields, one each, in order. The
  handler reads a field when its bytecode loads that parameter, unless
  `FORWARDS` lists the kind: such a handler only passes its fields on to
  a scenario method, and a field is read when that method loads it.
- `build_report` reads a field when it depends on it: the survey replaces
  that field's value in every event that holds it with another value of
  its type, and the field is read when the report of the edited events
  differs from the run's, or cannot be built. An effect field is read by
  the same test.
Each golden config runs to the end, and so does `rebalance_raw` of
`test_metascale`, the one run that brings a node back Ready into the
Container pool. A field that some event kind writes but nothing reads
fails the guard, unless `EXEMPT` lists it with its reason.

An effect is one state change of one record, with its event as the
message. So each effect shape must, at least once over the golden logs,
hold a value that neither its event's payload nor another effect of the
same step holds, unless `REPEATS` lists it. Nor may a shape only echo
another: it fails when each of its effects comes right after an effect of
another shape that names the same record (the same first value) in the
same step, and its other values are fixed by that shape, unless `REPEATS`
lists it. And each key of an effect the report reads is read by it, unless
`UNREAD_EFFECT_KEYS` lists it. Both tables are exact: a listed shape that
records something new and echoes no other, or a listed key that the report
reads, fails too.
"""

import dis
import functools
import inspect
import json
from collections import defaultdict
from typing import NamedTuple

from fedsched import engine
from fedsched.config import validate_config
from fedsched.engine import Event
from fedsched.errors import InvariantViolation
from fedsched.federation import FederationProtocol
from fedsched.metrics import build_report
from fedsched.scenario import WildfireScenario
from fedsched.sim import Simulation

from conftest import seeded
from test_golden_log import CASES
from test_metascale import rebalance_raw

# (kind, key) -> why the key is written though nothing reads it.
EXEMPT = {}

# shape -> why its effects may hold nothing new to their step, and only echo
# the effect before them.
REPEATS = {
    "unschedulable": "the pod's own phase change; the `proxy_reason` beside it is the "
                     "proxy's, whose terminal states perfbench/checks.py reads",
}

# (shape, key) -> why an effect the report reads carries a key it does not.
UNREAD_EFFECT_KEYS = {
    ("unbind", "node"): "replayed per node by perfbench/checks.py and by the acceptance "
                        "overcommit check; the report's series is per cluster",
    ("pool_move", "src"): "the pool the node left, for a reader of the log; the report "
                          "tracks each node's pool from its static info and node_ready",
    ("pool_move", "dst"): "the pool the node is bound for, for a reader of the log",
    ("trigger", "camera"): "which camera fired, for a reader of the log; the report counts "
                           "triggers and their pods, not cameras",
}

# kind -> the `WildfireScenario` method its handler passes its fields on
# to. The method's parameters after `self` are named as the handler's.
FORWARDS = {
    engine.SENSOR_MESSAGE: "on_sensor",
    engine.TRIGGER_FIRED: "on_trigger",
}


def loaded_locals(code):
    """The local names `code` loads: directly (`LOAD_FAST` and the variants
    of later Pythons, some of which load two names at once), or as a cell a
    closure shares. `LOAD_FAST_AND_CLEAR` only saves a name an inlined
    comprehension shadows, so it reads nothing."""
    loaded = set()
    for ins in dis.get_instructions(code):
        name = ins.opname
        if name in ("LOAD_DEREF", "LOAD_CLOSURE") or (
            name.startswith("LOAD_FAST") and name != "LOAD_FAST_AND_CLEAR"
        ):
            loaded.update(ins.argval if isinstance(ins.argval, tuple) else (ins.argval,))
    return loaded


def parameters(function):
    """The parameters of a method after `self`."""
    code = function.__code__
    # A field taken through *args or **kwargs would have no parameter.
    assert not code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS), function
    return code.co_varnames[1:code.co_argcount]


def handler_reads(kind):
    """The fields of `kind` whose parameter its handler loads, or, for a
    kind in `FORWARDS`, the method its handler passes them on to."""
    handler = FederationProtocol.HANDLERS.get(kind) or Simulation._HANDLERS[kind]
    params = parameters(handler)
    fields = engine.FIELDS[kind]
    assert len(params) == len(fields), f"{kind}: parameters {params} for fields {fields}"
    reader = handler
    if kind in FORWARDS:
        name = FORWARDS[kind]
        assert name in handler.__code__.co_names, f"{kind}: the handler does not call {name}"
        reader = getattr(WildfireScenario, name)
        assert parameters(reader) == params, f"{kind}: {name} takes {parameters(reader)}"
    loaded = loaded_locals(reader.__code__)
    return {field for field, param in zip(fields, params) if param in loaded}


def perturbed(value):
    """Another value of `value`'s type: a str with "~" added, a bool
    flipped, a number plus one, each int of a triple plus one, or a list or
    tuple of ids with one id more."""
    if type(value) is str:
        return value + "~"
    if type(value) is bool:
        return not value
    if type(value) in (int, float):
        return value + 1
    if value and type(value[0]) is int:
        return tuple(v + 1 for v in value)
    return type(value)((*value, "~"))


def edited(values, i):
    """`values`, a tuple, with its i-th value perturbed."""
    return (*values[:i], perturbed(values[i]), *values[i + 1:])


def report_reads(events, static):
    """The (kind, field) and the (shape, field) pairs that `build_report`
    reads of `events`: those whose value, perturbed in every event or
    effect that holds it, changes the report or makes it raise as a log
    that does not replay does."""
    live = build_report(events, static)

    def changes(edits):
        try:
            return build_report(edits, static) != live
        except (KeyError, InvariantViolation):
            return True

    kinds = {event.kind for event in events}
    shapes = {fx[0] for event in events for fx in event.effects}
    payload = {
        (kind, name) for kind in kinds for i, name in enumerate(engine.FIELDS[kind])
        if changes([
            Event(e.time, e.seq, e.kind, edited(e.args, i), e.effects) if e.kind == kind else e
            for e in events
        ])
    }
    effects = {
        (shape, name) for shape in shapes
        for i, name in enumerate(engine.EFFECT_FIELDS[shape][1], 1)
        if changes([
            Event(e.time, e.seq, e.kind, e.args,
                  tuple(edited(fx, i) if fx[0] == shape else fx for fx in e.effects))
            for e in events
        ])
    }
    return payload, effects


def news_of(event):
    """Per effect of `event`, its shape and whether it holds a value that
    neither the event's payload nor another of its effects holds, each
    value compared as the log writes it."""
    payload = {json.dumps(value) for value in event.args}
    written = [{json.dumps(value) for value in fx[1:]} for fx in event.effects]
    for i, fx in enumerate(event.effects):
        held = payload.union(*(values for j, values in enumerate(written) if j != i))
        yield fx[0], not written[i] <= held


def echoes_of(event):
    """Per effect of `event`, its shape and, when it comes right after an
    effect of another shape that names the same record (the same first
    value), that shape and the effect's other values as the log writes
    them; None otherwise."""
    before = None
    for fx in event.effects:
        if before is not None and before[0] != fx[0] and before[1] == fx[1]:
            yield fx[0], (before[0], json.dumps(fx[2:]))
        else:
            yield fx[0], None
        before = fx


class Survey(NamedTuple):
    unread: dict  # kind -> payload keys written but never read, less `EXEMPT`
    kinds: set  # the kinds written
    effect_reads: dict  # shape -> the effect keys `build_report` reads
    news: dict  # shape -> whether some effect of it records something new
    # shape -> per shape its effects come right after, their other values;
    # None once an effect of it comes after no such effect.
    echoes: dict


def survey(cases) -> Survey:
    """Run `cases` to the end, and return what their logs write and what
    reads it."""
    payload_reads, effect_reads = defaultdict(set), defaultdict(set)
    kinds, news, echoes = set(), {}, {}
    for name in sorted(cases):
        raw, seed = cases[name]()
        sim = Simulation(validate_config(seeded(raw, seed)))
        sim.run()
        for event in sim.events:
            kinds.add(event.kind)
            for shape, new in news_of(event):
                news[shape] = news.get(shape, False) or new
            for shape, echo in echoes_of(event):
                if echo is None:
                    echoes[shape] = None
                elif echoes.get(shape, {}) is not None:
                    echoes.setdefault(shape, defaultdict(set))[echo[0]].add(echo[1])
        payload, effects = report_reads(sim.events, sim.static)
        for kind, field in payload:
            payload_reads[kind].add(field)
        for shape, field in effects:
            effect_reads[shape].add(field)
    unread = {}
    for kind in kinds:
        keys = set(engine.FIELDS[kind]) - payload_reads[kind] - handler_reads(kind)
        keys = {key for key in keys if (kind, key) not in EXEMPT}
        if keys:
            unread[kind] = keys
    return Survey(unread, kinds, effect_reads, news, echoes)


@functools.lru_cache(maxsize=None)
def golden() -> Survey:
    """The survey of the golden cases and of `rebalance_raw`, run once for
    the tests that read it."""
    return survey({**CASES, "rebalance": lambda: (rebalance_raw(), None)})


def test_every_written_payload_field_is_read():
    assert golden().unread == {}
    # The golden configs write every kind, so the guard covers them all.
    assert golden().kinds == engine.EVENT_KINDS


def test_every_effect_shape_records_something_new():
    news = golden().news
    # The golden configs write every shape, so the guard covers them all.
    assert set(news) == set(engine.EFFECT_FIELDS)
    repeating = sorted(shape for shape, new in news.items() if not new)
    assert [shape for shape in repeating if shape not in REPEATS] == []
    assert repeating == sorted(REPEATS)


def test_no_effect_shape_only_echoes_the_one_before_it():
    echoes = golden().echoes
    assert set(echoes) == set(engine.EFFECT_FIELDS)
    echoing = sorted(
        shape for shape, after in echoes.items()
        if after is not None and all(len(values) == 1 for values in after.values())
    )
    assert [shape for shape in echoing if shape not in REPEATS] == []
    assert echoing == sorted(REPEATS)


def test_every_key_of_an_effect_the_report_reads_is_read():
    reads = golden().effect_reads
    unread = {
        (shape, key) for shape in reads for key in engine.EFFECT_FIELDS[shape][1]
        if key not in reads[shape]
    }
    assert sorted(unread - UNREAD_EFFECT_KEYS.keys()) == []
    assert sorted(UNREAD_EFFECT_KEYS.keys() - unread) == []


def test_news_are_values_that_the_step_holds_nowhere_else():
    # The mirror's Bound proxy repeats the payload's pod and phase; the
    # release beside it adds its node.
    assert list(news_of(Event(0, 0, engine.STATUS_MIRROR, ("p", "t", "Bound"), (
        ("proxy", "p", "Bound"), ("release", "p", "t", "t-n1"),
    )))) == [("proxy", False), ("release", True)]
    assert list(news_of(Event(0, 0, engine.DELEGATE_BIND, ("p", "t"), (
        ("chaperon", "p", "t", "Delegate"), ("bind", "p", "t", "n1", (1, 2, 0), True, "t"),
    )))) == [("chaperon", True), ("bind", True)]


def test_an_echo_follows_another_shape_of_the_same_record():
    # The bind follows the chaperon of its pod; the release follows a bind,
    # but of another pod; the proxy follows a reason of its own shape's op
    # but another shape, then itself.
    assert list(echoes_of(Event(0, 0, engine.DELEGATE_BIND, ("p", "t"), (
        ("chaperon", "p", "t", "Delegate"), ("bind", "p", "t", "n1", (1, 2, 0), True, "s"),
        ("release", "q", "t", "n1"), ("proxy_reason", "p", "Unschedulable", "max_retries"),
        ("proxy", "p", "Bound"), ("proxy", "p", "Bound"),
    )))) == [
        ("chaperon", None), ("bind", ("chaperon", '["t", "n1", [1, 2, 0], true, "s"]')),
        ("release", None), ("proxy_reason", None), ("proxy", ("proxy_reason", '["Bound"]')),
        ("proxy", None),
    ]


def test_guard_reports_a_field_nothing_reads(monkeypatch):
    # DelegateBind gains a "node" field: each such event carries a node,
    # and its handler takes it as a parameter it never loads.
    kind = engine.DELEGATE_BIND
    bind, push = FederationProtocol.on_delegate_bind, engine.EventQueue.push

    def on_delegate_bind(self, pod_id, target, node):
        bind(self, pod_id, target)

    def push_with_node(queue, time, kind_, args):
        return push(queue, time, kind_, (*args, "a-n1") if kind_ == kind else args)

    monkeypatch.setitem(engine.FIELDS, kind, (*engine.FIELDS[kind], "node"))
    monkeypatch.setitem(FederationProtocol.HANDLERS, kind, on_delegate_bind)
    monkeypatch.setattr(engine.EventQueue, "push", push_with_node)
    assert survey({"bind-conflict": CASES["bind-conflict"]}).unread == {kind: {"node"}}


def test_a_handler_reads_only_the_parameters_it_loads():
    # `_on_pod_submit` takes all six PodSubmit fields but loads two; the
    # other four count as read only because `build_report` reads them.
    assert handler_reads(engine.POD_SUBMIT) == {"pod", "cluster"}
    assert handler_reads(engine.AGGREGATE_REPORT) == set(engine.FIELDS[engine.AGGREGATE_REPORT])


def test_a_forwarded_field_is_read_only_where_it_is_passed(monkeypatch):
    # `_on_sensor` loads both SensorMessage fields, but only to pass them
    # on: when `on_sensor` ignores the probability, nothing reads it.
    sensor = WildfireScenario.on_sensor

    def on_sensor(self, camera, probability):
        sensor(self, camera, 0.0)

    monkeypatch.setattr(WildfireScenario, "on_sensor", on_sensor)
    unread = survey({"bundled": CASES["bundled"]}).unread
    assert unread == {engine.SENSOR_MESSAGE: {"probability"}}
    # Nor does `_on_trigger` read the camera it passes on.
    monkeypatch.setattr(WildfireScenario, "on_trigger", lambda self, camera: [])
    assert handler_reads(engine.TRIGGER_FIRED) == set()
