"""Every payload field written to the event log is read.

A kind's payload fields are `engine.FIELDS[kind]`; an event holds their
values as `args`, in that order. A field is read when its kind's handler
or `build_report` reads it:
- The loop calls a kind's handler with `*event.args`, so the handler's
  parameters after `self` are the kind's fields, one each, in order. The
  handler reads a field when its bytecode loads that parameter, unless
  `FORWARDS` lists the kind: such a handler only passes its fields on to
  a scenario method, and a field is read when that method loads it.
- `build_report` reads the same fields from a live event's `args` as from
  a record's payload dict (`test_metrics` holds the two reports equal), so
  it runs here over each run's records, every payload wrapped in a `dict`
  subclass that records, per event kind, the keys read through `[]` and
  `get`.
Each golden config runs to the end. A field that some event kind writes
but nothing reads fails the guard, unless `EXEMPT` lists it with its
reason.
"""

import dis
import inspect
from collections import defaultdict

from fedsched import engine
from fedsched.config import validate_config
from fedsched.federation import FederationProtocol
from fedsched.metrics import build_report, record_of, static_info_of
from fedsched.scenario import WildfireScenario
from fedsched.sim import Simulation

from conftest import seeded
from test_golden_log import CASES

# (kind, key) -> why the key is written though nothing reads it.
EXEMPT = {}

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


def unread_fields(cases):
    """Run `cases` and return {kind: keys written but never read}, less
    `EXEMPT`, and the set of kinds written."""
    written, read = defaultdict(set), defaultdict(set)

    class Payload(dict):
        def __getitem__(self, key):
            read[self.kind].add(key)
            return dict.__getitem__(self, key)

        def get(self, key, default=None):
            read[self.kind].add(key)
            return dict.get(self, key, default)

    for name in sorted(cases):
        raw, seed = cases[name]()
        config = validate_config(seeded(raw, seed))
        sim = Simulation(config)
        sim.run()
        records = []
        for event in sim.events:
            record = record_of(event)
            payload = record["payload"] = Payload(record["payload"])
            payload.kind = event.kind
            written[event.kind].update(payload)
            records.append(record)
        build_report(records, static_info_of(config))
    unread = {}
    for kind, keys in written.items():
        keys = keys - read[kind] - handler_reads(kind)
        keys = {key for key in keys if (kind, key) not in EXEMPT}
        if keys:
            unread[kind] = keys
    return unread, set(written)


def test_every_written_payload_field_is_read():
    unread, kinds = unread_fields(CASES)
    assert unread == {}
    # The golden configs write every kind, so the guard covers them all.
    assert kinds == engine.EVENT_KINDS


def test_guard_reports_a_field_nothing_reads(monkeypatch):
    # DelegateBind gains a "node" field: each such event carries a node,
    # and its handler takes it as a parameter it never loads.
    kind = engine.DELEGATE_BIND
    bind, push = FederationProtocol.on_delegate_bind, engine.EventQueue.push

    def on_delegate_bind(self, pod_id, target, node):
        bind(self, pod_id, target)

    def push_with_node(queue, time, kind_, args):
        return push(queue, time, kind_, (*args, "a-n1") if kind_ == kind else args)

    fields = (*engine.FIELDS[kind], "node")
    monkeypatch.setitem(engine.FIELDS, kind, fields)
    monkeypatch.setitem(engine.PAYLOAD_OF, kind, engine.payload_builder(fields))
    monkeypatch.setitem(FederationProtocol.HANDLERS, kind, on_delegate_bind)
    monkeypatch.setattr(engine.EventQueue, "push", push_with_node)
    unread, _ = unread_fields({"bind-conflict": CASES["bind-conflict"]})
    assert unread == {kind: {"node"}}


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
    unread, _ = unread_fields({"bundled": CASES["bundled"]})
    assert unread == {engine.SENSOR_MESSAGE: {"probability"}}
    # Nor does `_on_trigger` read the camera it passes on.
    monkeypatch.setattr(WildfireScenario, "on_trigger", lambda self, camera: [])
    assert handler_reads(engine.TRIGGER_FIRED) == set()
