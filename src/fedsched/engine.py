"""Discrete-event core: event queue, seeded RNG streams, latency channels.

Events are processed in strict (time, seq) order; seq is a monotonically
increasing enqueue counter, so simultaneous events replay in the order they
were produced. All simulation times are integer milliseconds.

Each kind names one thing that happens and has one handler: RebalanceTick
is only the metascaler's periodic timer, an AggregateReport is a target's
aggregates reaching one of its sources, and NodeReady is a repurposed node
coming up in its new pool.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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

EVENT_KINDS = frozenset(
    {
        POD_SUBMIT,
        BATCH_JOB_SUBMIT,
        CHAPERON_CREATE,
        CANDIDATE_REPORT,
        ELECTION_TIMEOUT,
        DELEGATE_BIND,
        CANDIDATE_DELETE,
        STATUS_MIRROR,
        POD_COMPLETE,
        JOB_COMPLETE,
        REBALANCE_TICK,
        NODE_READY,
        AGGREGATE_REPORT,
        SENSOR_MESSAGE,
        TRIGGER_FIRED,
    }
)


@dataclass(slots=True)
class Event:
    time: int
    seq: int
    kind: str
    payload: dict = field(default_factory=dict)
    # State changes produced while handling this event, for the log.
    effects: List[dict] = field(default_factory=list)


class EventQueue:
    def __init__(self):
        self._heap: List[Tuple[int, int, Event]] = []
        self._seq = 0

    def push(self, time: int, kind: str, payload: dict) -> Event:
        assert kind in EVENT_KINDS, f"unknown event kind {kind!r}"
        event = Event(time=time, seq=self._seq, kind=kind, payload=payload)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        return event

    def pop(self) -> Event:
        if not self._heap:
            raise EmptyQueue("event queue is empty")
        return heapq.heappop(self._heap)[2]

    def peek_time(self) -> Optional[int]:
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)


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

    def __init__(self, rngs: RngStreams):
        self._rngs = rngs
        self._last_delivery: Dict[tuple, int] = {}
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
        floor = self._last_delivery.get(channel)
        if floor is not None and when < floor:
            when = floor
        self._last_delivery[channel] = when
        return when
