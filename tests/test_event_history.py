"""Every event a run keeps holds exact-size tuples, not lists.

A run keeps every event until the writers run, so the history is most of
what a run adds to memory. Each golden config and 20 random protocol
configs run to the end, and every event in `sim.events` must hold:
- its `effects` as a tuple, the shared empty one `Event`'s default holds
  when the step recorded nothing;
- an `AggregateReport`'s `capacity` and `allocatable` as tuples;
- a `req`, in a payload or an effect, as a tuple.
The JSON encoder writes tuples as lists, so the log is the same either way.
`record_of` gives each event's `fx` as a fresh list, as a parsed log has it.
"""

import random

from fedsched import engine
from fedsched.config import validate_config
from fedsched.engine import Event
from fedsched.metrics import record_of
from fedsched.sim import Simulation

from conftest import seeded
from test_acceptance import random_protocol_raw
from test_golden_log import CASES

# What an Event built without effects holds.
SHARED_EMPTY = Event(0, 0, engine.POD_SUBMIT).effects


def held_lists(events):
    """One line per place where `events` hold a list (or other non-tuple)
    that should be a tuple, or empty effects that are not the shared ones."""
    found = []

    def check(where, key, value):
        if type(value) is not tuple:
            found.append(f"{where}: {key} is a {type(value).__name__}")

    for event in events:
        where = f"{event.kind} seq {event.seq}"
        check(where, "effects", event.effects)
        if not event.effects and event.effects is not SHARED_EMPTY:
            found.append(f"{where}: empty effects are not the shared empty tuple")
        payload = event.payload
        if event.kind == engine.AGGREGATE_REPORT:
            check(where, "capacity", payload["capacity"])
            check(where, "allocatable", payload["allocatable"])
        if "req" in payload:
            check(where, "req", payload["req"])
        for fx in event.effects:
            if "req" in fx:
                check(where, f"{fx['op']} req", fx["req"])
    return found


def configs():
    for name in sorted(CASES):
        yield CASES[name]()
    rng = random.Random(20261020)
    for _ in range(20):
        yield random_protocol_raw(rng), None


def test_no_event_holds_a_list():
    kinds = set()
    for raw, seed in configs():
        sim = Simulation(validate_config(seeded(raw, seed)))
        sim.run()
        assert held_lists(sim.events) == []
        kinds.update(event.kind for event in sim.events)
        for event in sim.events:
            record = record_of(event)
            assert type(record["fx"]) is list and record["fx"] == list(event.effects)
            assert record_of(event)["fx"] is not record["fx"]
    # Reports and submits are among what the configs logged.
    assert {engine.AGGREGATE_REPORT, engine.POD_SUBMIT} <= kinds


def test_guard_reports_lists():
    event = Event(5, 3, engine.AGGREGATE_REPORT,
                  {"source": "a", "target": "b", "capacity": [1, 2, 0], "allocatable": (1, 2, 0)},
                  [{"op": "reserve", "pod": "p", "req": [1, 2, 0]}])
    empty = Event(6, 4, engine.POD_SUBMIT, {"pod": "p", "req": (1, 2, 0)}, [])
    assert held_lists([event, empty]) == [
        "AggregateReport seq 3: effects is a list",
        "AggregateReport seq 3: capacity is a list",
        "AggregateReport seq 3: reserve req is a list",
        "PodSubmit seq 4: effects is a list",
        "PodSubmit seq 4: empty effects are not the shared empty tuple",
    ]
