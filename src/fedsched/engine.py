"""Discrete-event core: event queue, seeded RNG streams, latency channels.

Events are processed in strict (time, seq) order; seq is a monotonically
increasing enqueue counter, so simultaneous events replay in the order they
were produced. All simulation times are integer milliseconds.

Beside its heap the queue holds one stream: time-sorted rows (the camera
trace) that take a block of seqs where they are handed over, as if each
were pushed then, but enter the heap one at a time. Only the next row's
event is in the heap; it is built when the row before it pops. So the heap
holds what the run has made plus one row, and the order and seqs are those
of pushing every row up front.

The loop asks `due(until)` before each step, which tests only the heap's
head, and then pops.

Each kind names one thing that happens and has one handler: RebalanceTick
is only the metascaler's periodic timer, an AggregateReport is a target's
aggregates reaching one of its sources, and NodeReady is a repurposed node
coming up in its new pool. `FIELDS` names each kind's payload fields in
log order. An event holds only their values, as its `args` tuple, which
the loop passes to the kind's handler as its parameters. No payload dict is
held, nor built to write the log: the writer writes each line straight
from the args (`metrics`), and `Event.payload` zips the fields with the
args only where a record is asked for. Effects are held the same way:
`EFFECT_FIELDS` names each effect shape's op and fields, and an effect is
the tuple of its shape and their values.
"""

from __future__ import annotations

import hashlib
import random
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import EmptyQueue
from .graph import FederationEdge

POD_SUBMIT = "PodSubmit"
BATCH_JOB_SUBMIT = "BatchJobSubmit"
CHAPERON_CREATE = "ChaperonCreate"
CANDIDATE_REPORT = "CandidateReport"
ELECTION_TIMEOUT = "ElectionTimeout"
DELEGATE_BIND = "DelegateBind"
CANDIDATE_DELETE = "CandidateDelete"
STATUS_MIRROR = "StatusMirror"
POD_COMPLETE = "PodComplete"
JOB_COMPLETE = "JobComplete"
REBALANCE_TICK = "RebalanceTick"
NODE_READY = "NodeReady"
AGGREGATE_REPORT = "AggregateReport"
SENSOR_MESSAGE = "SensorMessage"
TRIGGER_FIRED = "TriggerFired"

# Each kind's payload field names, in the order the log writes them. An
# Event holds its payload as `args`, a tuple of these fields' values; this
# table is the one place that names them.
FIELDS: Dict[str, Tuple[str, ...]] = {
    POD_SUBMIT: ("pod", "cluster", "ns", "federated", "role", "req"),
    BATCH_JOB_SUBMIT: ("job", "cluster"),
    CHAPERON_CREATE: ("pod", "target"),
    CANDIDATE_REPORT: ("pod", "target", "status"),
    ELECTION_TIMEOUT: ("pod", "timer"),
    DELEGATE_BIND: ("pod", "target"),
    CANDIDATE_DELETE: ("pod", "target"),
    STATUS_MIRROR: ("pod", "target", "phase"),
    POD_COMPLETE: ("pod", "cluster"),
    JOB_COMPLETE: ("job", "cluster"),
    REBALANCE_TICK: ("cluster",),
    NODE_READY: ("cluster", "node"),
    AGGREGATE_REPORT: ("source", "target", "capacity", "allocatable"),
    SENSOR_MESSAGE: ("camera", "probability"),
    TRIGGER_FIRED: ("camera",),
}

EVENT_KINDS = frozenset(FIELDS)

# Each effect shape's op and field names, in the order the log writes them.
# An effect is held as a tuple `(shape, v1, v2, ...)` of its shape and
# these fields' values; this table is the one place that names them. Each
# effect is one state change of one record, with the event as its message,
# so none repeats what its event or another effect of its step holds: a
# pod's phase is its `bind` (Running), `unbind` (Completed) or
# `unschedulable`, not an effect of its own. An op that logs one field set
# is its own shape. `proxy` and `job` log several, each a shape named after
# its op and the field it adds.
EFFECT_FIELDS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "bind": ("bind", ("pod", "cluster", "node", "req", "federated", "src")),
    "unbind": ("unbind", ("pod", "cluster", "node", "req")),
    "reserve": ("reserve", ("pod", "cluster", "node", "req")),
    "release": ("release", ("pod", "cluster", "node")),
    "chaperon": ("chaperon", ("pod", "cluster", "state")),
    "unschedulable": ("unschedulable", ("pod",)),
    "proxy": ("proxy", ("pod", "state")),
    "proxy_targets": ("proxy", ("pod", "state", "targets")),
    "proxy_elected": ("proxy", ("pod", "state", "elected")),
    "proxy_reason": ("proxy", ("pod", "state", "reason")),
    "job": ("job", ("job", "cluster", "state")),
    "job_nodes": ("job", ("job", "cluster", "state", "nodes")),
    "pool_move": ("pool_move", ("cluster", "node", "src", "dst")),
    "node_ready": ("node_ready", ("cluster", "node", "pool")),
    "trigger": ("trigger", ("camera", "pods")),
    "registry": ("registry", ("version",)),
}


class Event:
    """One thing that happens at `time`, `seq`-th to be enqueued: its `kind`,
    its `args`, the values of `FIELDS[kind]` in that order, and the
    `effects`, the state changes handling it produced, for the log, each a
    tuple `(shape, v1, ...)` of the fields `EFFECT_FIELDS[shape]` names. An
    Event built without effects holds the shared empty tuple `()`.
    `Simulation.step` attaches an exact-size tuple of what the step
    recorded, so an event that records nothing keeps `()`. `payload` is
    the args as the log writes them, a fresh dict of field name to value,
    in `FIELDS[kind]` order."""

    __slots__ = ("time", "seq", "kind", "args", "effects")

    def __init__(self, time: int, seq: int, kind: str, args: tuple = (),
                 effects: Sequence[tuple] = ()):
        self.time = time
        self.seq = seq
        self.kind = kind
        self.args = args
        self.effects = effects

    @property
    def payload(self) -> dict:
        return dict(zip(FIELDS[self.kind], self.args))


class EventQueue:
    def __init__(self):
        self._heap: List[Tuple[int, int, Event]] = []
        self._seq = 0
        # The stream (see `stream`): its kind, rows and args function, the
        # seq of the row whose event is in the heap (-1 when none is), and
        # the count of rows not yet in the heap.
        self._kind = ""
        self._rows: Sequence = ()
        self._args_of: Optional[Callable[[object], tuple]] = None
        self._row_seq = -1
        self._waiting = 0

    def push(self, time: int, kind: str, args: tuple) -> Event:
        assert kind in EVENT_KINDS, f"unknown event kind {kind!r}"
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, kind, args)
        heappush(self._heap, (time, seq, event))
        return event

    def stream(self, kind: str, rows: Sequence, args_of: Callable[[object], tuple]) -> None:
        """Enqueue `rows`, sorted by their `time`, as events of `kind` with
        args `args_of(row)`. They take the next len(rows) seqs, as if each
        were pushed now, but each row's event is built only when the row
        before it pops. A queue has at most one stream."""
        assert kind in EVENT_KINDS, f"unknown event kind {kind!r}"
        assert self._args_of is None, "the queue already has a stream"
        self._kind, self._rows, self._args_of = kind, rows, args_of
        self._waiting = len(rows)
        self._seq += len(rows)
        if rows:
            self._enter(self._seq - len(rows))

    def _enter(self, seq: int) -> None:
        # The next waiting row's event enters the heap with seq `seq`.
        row = self._rows[len(self._rows) - self._waiting]
        self._waiting -= 1
        self._row_seq = seq
        event = Event(row.time, seq, self._kind, self._args_of(row))
        heappush(self._heap, (row.time, seq, event))

    def pop(self) -> Event:
        if not self._heap:
            raise EmptyQueue("event queue is empty")
        event = heappop(self._heap)[2]
        if event.seq == self._row_seq:
            if self._waiting:
                self._enter(self._row_seq + 1)
            else:
                self._row_seq = -1
        return event

    def due(self, until: int) -> bool:
        """Whether an event is due at or before `until`. Only the heap's
        head is tested: a waiting row is never due before the row in it."""
        heap = self._heap
        return heap[0][0] <= until if heap else False

    def __len__(self) -> int:
        # Waiting rows count: `perfbench/tracer.py` reads the queue's length.
        return len(self._heap) + self._waiting


class RngStreams:
    """Per-subsystem RNG streams derived from one root seed by stable labels.

    Stream seeds come from SHA-256 of "<root>/<label>", so adding a new
    subsystem (a new label) never perturbs the draws of existing ones.
    """

    def __init__(self, root_seed: int):
        self.root_seed = root_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, label: str) -> random.Random:
        rng = self._streams.get(label)
        if rng is None:
            digest = hashlib.sha256(f"{self.root_seed}/{label}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[label] = rng
        return rng


class LatencyChannels:
    """FIFO ordering per logical channel on top of jittered edge latency.

    A later send on the same channel never arrives before an earlier one,
    even when the jitter draw alone would reorder them. Channels model the
    annotation message streams between a proxy and its candidates, which
    are backed by ordered API-server writes, not a lossy wire.

    A message's jitter is uniform on [0, jitter_ms], drawn from the stream
    of its (source, target) pair the way `randint` draws it, so the log
    depends only on that stream's `getrandbits`.
    """

    # `_last_delivery` is pruned when it reaches this many floors, or twice
    # the floors live after the last pruning if that is more.
    MIN_PRUNE_AT = 1024

    def __init__(self, rngs: RngStreams):
        self._rngs = rngs
        self._last_delivery: Dict[tuple, int] = {}
        self._prune_at = self.MIN_PRUNE_AT
        # Per (source, target), read once from its edge: base_ms, and for a
        # jittered edge jitter_ms + 1, its bit length and the `getrandbits`
        # of the edge's stream (None when jitter_ms is 0, which draws nothing).
        self._edges: Dict[Tuple[str, str], tuple] = {}

    def _edge_figures(self, edge: FederationEdge) -> tuple:
        base, jitter = edge.latency.base_ms, edge.latency.jitter_ms
        if jitter == 0:
            return base, 0, 0, None
        rng = self._rngs.stream(f"latency/{edge.source}->{edge.target}")
        return base, jitter + 1, (jitter + 1).bit_length(), rng.getrandbits

    def delivery_time(self, now: int, edge: FederationEdge, channel: tuple) -> int:
        key = (edge.source, edge.target)
        figures = self._edges.get(key)
        if figures is None:
            figures = self._edges[key] = self._edge_figures(edge)
        base, n, k, getrandbits = figures
        when = now + base
        if getrandbits is not None:
            # The draw of `randint(0, jitter_ms)`: k random bits, rejected
            # until they fall below n.
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            when += r
        floors = self._last_delivery
        floor = floors.get(channel)
        if floor is not None and when < floor:
            when = floor
        floors[channel] = when
        if len(floors) >= self._prune_at:
            self._prune(now)
        return when

    def _prune(self, now: int) -> None:
        # Every send is at `now` or later and arrives no earlier than it, so
        # a floor at or before `now` can never delay one again.
        live = {channel: when for channel, when in self._last_delivery.items() if when > now}
        self._last_delivery = live
        self._prune_at = max(self.MIN_PRUNE_AT, 2 * len(live))
