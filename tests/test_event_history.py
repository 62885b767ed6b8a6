"""Every event a run keeps holds exact-size tuples, not lists or dicts.

A run keeps every event until the writers run, so the history is most of
what a run adds to memory. Each golden config and 20 random protocol
configs run to the end, and every event in `sim.events` must hold:
- its `args` as a tuple of one value per field of `engine.FIELDS[kind]`,
  never a dict: `Event.payload` builds the payload dict when it is read;
- its `effects` as a tuple, the shared empty one `Event`'s default holds
  when the step recorded nothing;
- each effect as a tuple, never a dict: its head a shape that
  `engine.EFFECT_FIELDS` names, then one value per field of that shape;
- an `AggregateReport`'s `capacity` and `allocatable` as tuples;
- a `req`, in the args or an effect, as a tuple, and each pod's `req` as
  one object wherever it is logged (its submit, `bind`, `reserve` and
  `unbind`).
The writers write tuples as lists, so the log is the same either way.
`record_of` gives each event's payload with its keys in `FIELDS` order and
its `fx` as a fresh list of fresh dicts, each its `op` and then its shape's
fields in `EFFECT_FIELDS` order, as a parsed log has them.
"""

import random
from collections import defaultdict

from fedsched import engine
from fedsched.config import validate_config
from fedsched.engine import EFFECT_FIELDS, FIELDS, Event
from fedsched.metrics import record_of
from fedsched.sim import Simulation

from conftest import seeded
from test_acceptance import random_protocol_raw
from test_golden_log import CASES

# What an Event built without effects holds.
SHARED_EMPTY = Event(0, 0, engine.POD_SUBMIT).effects


def effect_values(fx):
    """An effect tuple's fields, by name."""
    return dict(zip(EFFECT_FIELDS[fx[0]][1], fx[1:]))


def held_lists(events):
    """One line per place where `events` hold a list, dict or other
    non-tuple that should be a tuple, args or an effect of the wrong size,
    an effect of no known shape, or empty effects that are not the shared
    ones."""
    found = []

    def check(where, key, value):
        if type(value) is not tuple:
            found.append(f"{where}: {key} is a {type(value).__name__}")

    for event in events:
        where = f"{event.kind} seq {event.seq}"
        check(where, "effects", event.effects)
        if not event.effects and event.effects is not SHARED_EMPTY:
            found.append(f"{where}: empty effects are not the shared empty tuple")
        check(where, "args", event.args)
        fields = FIELDS[event.kind]
        if len(event.args) != len(fields):
            found.append(f"{where}: {len(event.args)} args for {len(fields)} fields")
            continue
        args = dict(zip(fields, event.args))
        if event.kind == engine.AGGREGATE_REPORT:
            check(where, "capacity", args["capacity"])
            check(where, "allocatable", args["allocatable"])
        if "req" in args:
            check(where, "req", args["req"])
        for index, fx in enumerate(event.effects):
            if type(fx) is not tuple:
                check(where, f"effect {index}", fx)
                continue
            if not fx or fx[0] not in EFFECT_FIELDS:
                found.append(f"{where}: effect {index} has no shape: {fx!r}")
                continue
            names = EFFECT_FIELDS[fx[0]][1]
            if len(fx) != 1 + len(names):
                found.append(f"{where}: {fx[0]} effect of {len(fx)} items for {len(names)} fields")
                continue
            values = effect_values(fx)
            if "req" in values:
                check(where, f"{fx[0]} req", values["req"])
    return found


def req_objects(events):
    """Per pod, the ids of the `req` objects its logged args and effects hold."""
    held = defaultdict(set)
    for event in events:
        if event.kind == engine.POD_SUBMIT:
            held[event.args[0]].add(id(event.args[-1]))
        for fx in event.effects:
            values = effect_values(fx)
            if "req" in values:
                held[values["pod"]].add(id(values["req"]))
    return held


def configs():
    for name in sorted(CASES):
        yield CASES[name]()
    rng = random.Random(20261020)
    for _ in range(20):
        yield random_protocol_raw(rng), None


def test_no_event_holds_a_list():
    # An Event's slots hold no payload: `payload` is built when read.
    assert "payload" not in Event.__slots__ and isinstance(Event.payload, property)
    kinds, shapes, req_shapes = set(), set(), set()
    for raw, seed in configs():
        sim = Simulation(validate_config(seeded(raw, seed)))
        sim.run()
        assert held_lists(sim.events) == []
        assert {pod: len(ids) for pod, ids in req_objects(sim.events).items() if len(ids) > 1} == {}
        kinds.update(event.kind for event in sim.events)
        for event in sim.events:
            shapes.update(fx[0] for fx in event.effects)
            req_shapes.update(fx[0] for fx in event.effects if "req" in effect_values(fx))
            record = record_of(event)
            assert list(record["payload"]) == list(FIELDS[event.kind])
            assert tuple(record["payload"].values()) == event.args
            assert type(record["fx"]) is list
            assert [type(fx) for fx in record["fx"]] == [dict] * len(event.effects)
            for fx, held in zip(record["fx"], event.effects):
                op, names = EFFECT_FIELDS[held[0]]
                assert list(fx) == ["op", *names]
                assert tuple(fx.values()) == (op, *held[1:])
            again = record_of(event)["fx"]
            assert again is not record["fx"]
            assert not any(a is b for a, b in zip(again, record["fx"]))
    # Reports and submits are among what the configs logged, and so is
    # every effect shape, each `req` among them.
    assert {engine.AGGREGATE_REPORT, engine.POD_SUBMIT} <= kinds
    assert shapes == set(EFFECT_FIELDS)
    assert req_shapes == {"bind", "reserve", "unbind"}


def test_guard_reports_lists():
    event = Event(5, 3, engine.AGGREGATE_REPORT, ("a", "b", [1, 2, 0], (1, 2, 0)),
                  [("reserve", "p", "c", "n", [1, 2, 0])])
    empty = Event(6, 4, engine.POD_SUBMIT, ("p", "c", "default", True, "workload", (1, 2, 0)), [])
    short = Event(7, 5, engine.CHAPERON_CREATE, ("p",))
    payload = Event(8, 6, engine.TRIGGER_FIRED, {"camera": "c"})
    effects = Event(9, 7, engine.POD_COMPLETE, ("p", "c"), (
        {"op": "release", "pod": "p", "cluster": "c", "node": "n"},
        ("release", "p", "c"),
        ("proxy", "p", "Unschedulable", "max_retries"),
        ("ghost", "p"),
        (),
        ("release", "p", "c", "n"),
    ))
    assert held_lists([event, empty, short, payload, effects]) == [
        "AggregateReport seq 3: effects is a list",
        "AggregateReport seq 3: capacity is a list",
        "AggregateReport seq 3: reserve req is a list",
        "PodSubmit seq 4: effects is a list",
        "PodSubmit seq 4: empty effects are not the shared empty tuple",
        "ChaperonCreate seq 5: 1 args for 2 fields",
        "TriggerFired seq 6: args is a dict",
        "PodComplete seq 7: effect 0 is a dict",
        "PodComplete seq 7: release effect of 3 items for 3 fields",
        "PodComplete seq 7: proxy effect of 4 items for 2 fields",
        "PodComplete seq 7: effect 3 has no shape: ('ghost', 'p')",
        "PodComplete seq 7: effect 4 has no shape: ()",
    ]


def test_req_objects_tells_copies_apart():
    req = tuple([1, 2, 0])
    submit = Event(0, 0, engine.POD_SUBMIT, ("p", "c", "default", True, "workload", req))
    bind = Event(1, 1, engine.DELEGATE_BIND, ("p", "c"), tuple(
        ("bind", pod, "c", "n", held, True, "c")
        for pod, held in (("p", req), ("q", tuple([1, 2, 0])), ("q", tuple([1, 2, 0])))
    ))
    assert {pod: len(ids) for pod, ids in req_objects([submit, bind]).items()} == {"p": 1, "q": 2}
