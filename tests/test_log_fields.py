"""Every payload field written to the event log is read.

Each golden config runs with the payload of every event the queue builds
wrapped in a `dict` subclass that records, per event kind, the keys read
through `[]` and `get`: by the handlers while the run steps, and by
`build_report`, which `Simulation.run` calls at the end. The JSON encoder
writes a dict subclass through `items()`, so writing the log reads
nothing. A key that some event kind writes but nothing reads fails the
guard, unless `EXEMPT` lists it with its reason.
"""

from collections import defaultdict

from fedsched import engine
from fedsched.config import validate_config
from fedsched.sim import Simulation

from conftest import seeded
from test_golden_log import CASES

# (kind, key) -> why the key is written though nothing reads it.
EXEMPT = {}


def unread_fields(monkeypatch, cases, extra=None):
    """Run `cases` and return {kind: keys written but never read}, less
    `EXEMPT`, and the set of kinds written. `extra`, {kind: {key: value}},
    adds fields to every payload of a kind, to test the guard itself."""
    written, read = defaultdict(set), defaultdict(set)

    class Payload(dict):
        def __getitem__(self, key):
            read[self.kind].add(key)
            return dict.__getitem__(self, key)

        def get(self, key, default=None):
            read[self.kind].add(key)
            return dict.get(self, key, default)

    event = engine.Event

    def recording_event(time, seq, kind, payload):
        payload = Payload(payload, **(extra or {}).get(kind, {}))
        payload.kind = kind
        written[kind].update(payload)
        return event(time, seq, kind, payload)

    # The queue builds every event it holds through `engine.Event`, both
    # those pushed and the rows of its stream.
    monkeypatch.setattr(engine, "Event", recording_event)
    for name in sorted(cases):
        raw, seed = cases[name]()
        Simulation(validate_config(seeded(raw, seed))).run()
    unread = {}
    for kind, keys in written.items():
        keys = {key for key in keys - read[kind] if (kind, key) not in EXEMPT}
        if keys:
            unread[kind] = keys
    return unread, set(written)


def test_every_written_payload_field_is_read(monkeypatch):
    unread, kinds = unread_fields(monkeypatch, CASES)
    assert unread == {}
    # The golden configs write every kind, so the guard covers them all.
    assert kinds == engine.EVENT_KINDS


def test_guard_reports_a_field_nothing_reads(monkeypatch):
    cases = {"bind-conflict": CASES["bind-conflict"]}
    unread, _ = unread_fields(
        monkeypatch, cases, extra={engine.DELEGATE_BIND: {"node": "a-n1"}}
    )
    assert unread == {engine.DELEGATE_BIND: {"node"}}
