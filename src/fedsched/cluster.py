"""Cluster, node and pod model with strict resource accounting.

Accounting invariant: on every node, bound requests plus candidate
reservations never exceed capacity. A subtraction that would go negative
raises OvercommitError because it can only mean the simulator double-booked
a node, never as a recoverable condition.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .errors import (
    BindConflict,
    BindError,
    NamespaceNotAllowed,
    OvercommitError,
    PhaseTransitionError,
    QuotaExceeded,
)
from .resources import ZERO, ResourceVector, Triple, add_triples, subtract_triples


class NodePool(Enum):
    BATCH = "Batch"
    CONTAINER = "Container"


class NodeState(Enum):
    READY = "Ready"
    REPURPOSING = "Repurposing"


class PodPhase(Enum):
    PENDING = "Pending"
    RUNNING = "Running"
    COMPLETED = "Completed"
    UNSCHEDULABLE = "Unschedulable"


# Legal pod phase transitions as (from, to) pairs. Anything else is a
# simulator bug. A tuple, not a dict of sets, so that checking a move
# compares members by identity instead of calling Enum's Python `__hash__`.
_LEGAL_MOVES = (
    (PodPhase.PENDING, PodPhase.RUNNING),
    (PodPhase.PENDING, PodPhase.UNSCHEDULABLE),
    (PodPhase.RUNNING, PodPhase.COMPLETED),
)


@dataclass(slots=True)
class NodeSpec:
    node_id: str
    cluster_id: str
    capacity: ResourceVector
    labels: Dict[str, str] = field(default_factory=dict)
    pool: NodePool = NodePool.CONTAINER
    state: NodeState = NodeState.READY


# A node selector, or a node's labels, as a set of (label, value) pairs.
LabelSet = FrozenSet[Tuple[str, str]]
# The key of every pod without a selector, shared rather than one per pod.
NO_SELECTOR: LabelSet = frozenset()


@dataclass(slots=True)
class PodSpec:
    pod_id: str
    namespace: str
    # The request as a (cpu, memory, gpu) triple, the one object its config
    # record or template built: every `req` the pod logs or holds is it.
    req: Triple
    node_selector: Dict[str, str] = field(default_factory=dict)
    federation_eligible: bool = False
    duration: int = 0
    # "workload" for a configured pod; the wildfire trigger makes "retrain"
    # and "ensemble" pods.
    role: str = "workload"
    phase: PodPhase = PodPhase.PENDING
    bound_node: Optional[str] = None
    # The selector as a set of (label, value) pairs: the key of its ceiling
    # in every `ClusterState`, built once per pod.
    selector_key: LabelSet = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.selector_key = (
            frozenset(self.node_selector.items()) if self.node_selector else NO_SELECTOR
        )

    def transition(self, to: PodPhase) -> None:
        if (self.phase, to) not in _LEGAL_MOVES:
            raise PhaseTransitionError(
                f"pod {self.pod_id}: illegal phase transition {self.phase.value} -> {to.value}"
            )
        self.phase = to


@dataclass
class ClusterSpec:
    cluster_id: str
    nodes: Dict[str, NodeSpec] = field(default_factory=dict)
    # None means every namespace is admitted.
    namespace_allowlist: Optional[Set[str]] = None
    # A (cpu, memory, gpu) triple per namespace; a missing entry means
    # unlimited quota for that namespace.
    namespace_quota: Dict[str, Triple] = field(default_factory=dict)

    def add_node(self, node: NodeSpec) -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id} in {self.cluster_id}")
        self.nodes[node.node_id] = node

    def admission_error(
        self, pod: PodSpec, ns_usage: Dict[str, Triple]
    ) -> Optional[BindError]:
        """The error refusing `pod`'s namespace here, or None if admitted.

        Admitted means on the allowlist and, with `ns_usage` the requests
        each namespace already holds as (cpu, memory, gpu) triples, within
        the namespace's quota once the pod's request is added.
        `schedule_one`, `ClusterState.reserve` and `ClusterState.bind` all
        decide admission here, so they cannot disagree.
        """
        namespace = pod.namespace
        if self.namespace_allowlist is not None and namespace not in self.namespace_allowlist:
            return NamespaceNotAllowed(
                f"namespace {namespace!r} not admitted by cluster {self.cluster_id}"
            )
        quota = self.namespace_quota.get(namespace)
        if quota is not None:
            cpu, memory, gpu = ns_usage.get(namespace, ZERO)
            want_cpu, want_memory, want_gpu = pod.req
            max_cpu, max_memory, max_gpu = quota
            if (
                cpu + want_cpu > max_cpu
                or memory + want_memory > max_memory
                or gpu + want_gpu > max_gpu
            ):
                return QuotaExceeded(
                    f"namespace {namespace!r} over quota in cluster {self.cluster_id}"
                )
        return None


def selector_matches(selector: Dict[str, str], labels: Dict[str, str]) -> bool:
    return all(labels.get(k) == v for k, v in selector.items())


def schedulable(node: NodeSpec) -> bool:
    """Ready and in the container pool: the nodes pods may take, and the
    ones a cluster's virtual-node aggregates cover."""
    return node.state is NodeState.READY and node.pool is NodePool.CONTAINER


def fits(pod: PodSpec, node: NodeSpec, free: Triple) -> bool:
    """Pure feasibility predicate for one pod on one container node with
    `free` (cpu, memory, gpu) left.

    Its callers are `ClusterState._check_feasible`, for `reserve` and
    `bind`, and the tests' reference loop `plain_choice`. `schedule_one`
    applies the same rule inline (see the `scheduling` module docstring).
    """
    if not schedulable(node):
        return False
    if pod.node_selector and not selector_matches(pod.node_selector, node.labels):
        return False
    want_cpu, want_memory, want_gpu = pod.req
    cpu, memory, gpu = free
    return want_cpu <= cpu and want_memory <= memory and want_gpu <= gpu


@dataclass(frozen=True)
class CapacityKey:
    """The integer class key of nodes with one capacity.

    With P the product of the capacity's non-zero dimensions, a node's key
    is K(free) = sum of free_d * P / cap_d over those dimensions, so
    100 * K / (dims * P) is the exact mean of free/capacity in percent that
    `least_allocated_score` rounds. `scale` holds P / cap_d per dimension (0
    where cap_d is 0) and `unit` is dims * P.
    """

    capacity: Triple
    scale: Triple
    unit: int

    @classmethod
    def of(cls, capacity: Triple) -> "CapacityKey":
        product, dims = 1, 0
        for cap in capacity:
            if cap > 0:
                product *= cap
                dims += 1
        scale = tuple(product // cap if cap > 0 else 0 for cap in capacity)
        return cls(capacity, scale, dims * product)

    def key(self, amounts: Triple) -> int:
        scale = self.scale
        return amounts[0] * scale[0] + amounts[1] * scale[1] + amounts[2] * scale[2]


# A Ready container node's entry in its capacity's order: (-K(free), free,
# labels, node id). Within one capacity (free, labels) names the node's
# class, so a class's members are adjacent and its first is its smallest id.
NodeEntry = Tuple[int, Triple, Tuple[Tuple[str, str], ...], str]


@dataclass
class SchedulingSnapshot:
    """The view of one cluster that a scheduling decision reads.

    Every field is a live reference into the cluster's `ClusterState`, not
    a copy, so each state builds its snapshot once: `spec` supplies the
    namespace allowlist and quotas, `nodes` the node specs, `namespace_used`
    the namespace totals, `order` the node order (`ClusterState.order`),
    `ceilings` the per-selector free ceilings (`ClusterState.ceilings`),
    which `schedule_one` writes, and `label_sets` each node's labels.
    `schedule_one` does not read `nodes`: its walk tests the entries of
    `order` against `label_sets`. `scheduling.snapshot_of` and `nodes` stay
    because `perfbench/tracer.py` times the one and counts the other
    (ROADMAP item 6); without them `schedule_one` could read the state
    itself.
    """

    spec: ClusterSpec
    nodes: Dict[str, NodeSpec]
    namespace_used: Dict[str, Triple]
    order: Tuple[Tuple[CapacityKey, List[NodeEntry]], ...]
    ceilings: Dict[LabelSet, Triple]
    label_sets: Dict[str, LabelSet]


class ClusterState:
    """Mutable accounting for one cluster inside a simulation run.

    Tracks, per node, the requests of bound pods and of candidate
    reservations, plus per-namespace totals for quota enforcement.
    Reservations count against both node capacity and namespace quota so a
    reserved candidate can always be promoted to a bind.

    Every figure it keeps is a (cpu, memory, gpu) int triple, and the
    per-pod `bound` and `reserved` maps hold each pod's own `req` triple.
    Every subtraction raises OvercommitError on underflow.

    Incremental invariant: after every reserve, release_reservation, bind
    and unbind, for every node n

        _unbound[n]     == capacity(n) - sum(bound[n])
        _allocatable[n] == capacity(n) - sum(bound[n]) - sum(reserved[n])
        ns_usage[ns]    == sum of bound and reserved requests in namespace ns

    so `allocatable` is a dict read. The per-pod `bound` and `reserved`
    maps stay the record of truth: `_assert_node_capacity` recomputes from
    them after every bind, independently of the cached triples.

    Aggregate invariant: after every bind, unbind and `set_node`, with S the
    Ready container nodes (`schedulable`),

        _aggregate_capacity == sum(capacity(n) for n in S)
        _aggregate_unbound  == sum(_unbound[n] for n in S)

    so the virtual-node aggregates are reads. Node pool and state change
    only through `set_node`, which moves the node's share in or out.

    Change records: the cluster adds its id to the run's `freed` set after
    every unbind, every release_reservation that released something and
    every `set_node` that leaves the node schedulable, and to the run's
    `moved` set after every bind or unbind on a schedulable node and every
    `set_node`, so that no caller has to.

    Order invariant: after every reserve, release_reservation, bind, unbind
    and `set_node`, for every capacity cap and every Ready container node n
    (`schedulable`) of that capacity

        _entry_of[n] == (-K(_allocatable[n]), _allocatable[n], labels(n), n)
        _entries[cap] == sorted(_entry_of[n] for those n)

    with K the capacity's `CapacityKey.key`. Nodes of equal (capacity,
    free, labels) form a class: they are interchangeable to `fits` and to
    every score plugin, and their entries are adjacent, the smallest id
    first. So a scheduler that walks `order` from the largest K down and
    scores only the first entry of each class makes the choice a sorted-id
    loop over all nodes makes. The constructor sorts each capacity's
    entries once; after that a change of a node's free triple or
    schedulability removes its entry and inserts the new one by bisection.
    `order` pairs each capacity's key with its entry list; the lists keep
    their identity for the run, so `order` is built once.

    Ceiling invariant: at all times, for every selector key s in `ceilings`
    (a pod's `selector_key`) and every Ready container node n whose labels
    s matches (s <= _label_sets[n]),

        _allocatable[n] <= ceilings[s]   in cpu, memory and gpu alike

    A ceiling is an upper bound, not the maximum. Only a free triple that
    grows, or a node that becomes schedulable, can break it, so
    release_reservation, unbind and a `set_node` that leaves the node
    schedulable raise every ceiling whose selector matches the node to the
    componentwise max with the node's free triple. reserve, bind and a
    `set_node` that takes a node out only shrink what the bound covers, so
    they leave `ceilings` alone. `schedule_one` adds and tightens entries:
    a walk that finds no node stores the exact maximum.
    """

    def __init__(self, spec: ClusterSpec, freed: Set[str], moved: Set[str]):
        self.spec = spec
        self.cluster_id = spec.cluster_id
        self._freed = freed
        self._moved = moved
        self.bound: Dict[str, Dict[str, Triple]] = {n: {} for n in spec.nodes}
        self.reserved: Dict[str, Dict[str, Triple]] = {n: {} for n in spec.nodes}
        self.ns_usage: Dict[str, Triple] = {}
        self._capacity: Dict[str, Triple] = {
            n: node.capacity.as_tuple() for n, node in spec.nodes.items()
        }
        self._unbound: Dict[str, Triple] = dict(self._capacity)
        self._allocatable: Dict[str, Triple] = dict(self._capacity)
        self._aggregate_capacity = ZERO
        for node_id, node in spec.nodes.items():
            if schedulable(node):
                self._aggregate_capacity = add_triples(
                    self._aggregate_capacity, self._capacity[node_id]
                )
        self._aggregate_unbound = self._aggregate_capacity
        self._labels = {
            n: tuple(sorted(node.labels.items())) for n, node in spec.nodes.items()
        }
        self._label_sets = {n: frozenset(node.labels.items()) for n, node in spec.nodes.items()}
        self.ceilings: Dict[LabelSet, Triple] = {}
        self._keys: Dict[Triple, CapacityKey] = {}
        self._entries: Dict[Triple, List[NodeEntry]] = {}
        self._entry_of: Dict[str, NodeEntry] = {}
        # Every node starts empty, so its free triple is its capacity.
        for node_id in sorted(spec.nodes):
            capacity = self._capacity[node_id]
            if capacity not in self._keys:
                self._keys[capacity] = CapacityKey.of(capacity)
                self._entries[capacity] = []
            if schedulable(spec.nodes[node_id]):
                entry = (-self._keys[capacity].unit, capacity, self._labels[node_id], node_id)
                self._entry_of[node_id] = entry
                self._entries[capacity].append(entry)
        for entries in self._entries.values():
            entries.sort()
        self.order: Tuple[Tuple[CapacityKey, List[NodeEntry]], ...] = tuple(
            (self._keys[capacity], entries) for capacity, entries in self._entries.items()
        )
        self.snapshot = SchedulingSnapshot(
            spec, spec.nodes, self.ns_usage, self.order, self.ceilings, self._label_sets
        )

    def nodes(self) -> Dict[str, NodeSpec]:
        return self.spec.nodes

    def allocatable(self, node_id: str, include_reservations: bool = True) -> Triple:
        """A node's free triple, net of reservations unless told otherwise.

        Nothing in the package calls it: it stays because
        `perfbench/tracer.py` counts its calls (ROADMAP item 6).
        """
        if include_reservations:
            return self._allocatable[node_id]
        return self._unbound[node_id]

    def aggregate_capacity(self) -> Triple:
        """Capacity summed over Ready container nodes."""
        return self._aggregate_capacity

    def aggregate_allocatable(self) -> Triple:
        """Allocatable (net of bound pods only) over Ready container nodes.

        Reservations are deliberately excluded: they are short-lived election
        artifacts, and reporting them would double-count a pod against its
        own candidate when the proxy scores aggregates.
        """
        return self._aggregate_unbound

    def _index(self, node_id: str, free: Triple) -> None:
        """Insert the entry of a schedulable node with free triple `free`."""
        capacity = self._capacity[node_id]
        entry = (-self._keys[capacity].key(free), free, self._labels[node_id], node_id)
        self._entry_of[node_id] = entry
        insort(self._entries[capacity], entry)

    def _unindex(self, node_id: str) -> None:
        """Remove a node's entry."""
        entries = self._entries[self._capacity[node_id]]
        del entries[bisect_left(entries, self._entry_of.pop(node_id))]

    def _take(self, node_id: str, request: Triple) -> None:
        """Take `request` from a node's free triple (reserve, or bind)."""
        free = self._allocatable[node_id] = subtract_triples(self._allocatable[node_id], request)
        if node_id in self._entry_of:
            self._unindex(node_id)
            self._index(node_id, free)

    def _give_back(self, node_id: str, request: Triple) -> None:
        """Add `request` back to a node's free triple (release, or unbind)."""
        free = self._allocatable[node_id] = add_triples(self._allocatable[node_id], request)
        if node_id in self._entry_of:
            self._unindex(node_id)
            self._index(node_id, free)
            self._raise_ceilings(node_id, free)
        self._freed.add(self.cluster_id)

    def _raise_ceilings(self, node_id: str, free: Triple) -> None:
        """Keep the ceiling invariant for a schedulable node whose free
        triple grew to `free`."""
        labels = self._label_sets[node_id]
        ceilings = self.ceilings
        for selector, (cpu, memory, gpu) in ceilings.items():
            if selector <= labels:
                ceilings[selector] = (max(cpu, free[0]), max(memory, free[1]), max(gpu, free[2]))

    def set_node(
        self,
        node_id: str,
        pool: Optional[NodePool] = None,
        state: Optional[NodeState] = None,
    ) -> None:
        """Move a node to `pool` and/or `state`, keeping the aggregates.

        The only way a node's pool or state changes once the cluster runs.
        """
        node = self.spec.nodes[node_id]
        capacity, unbound = self._capacity[node_id], self._unbound[node_id]
        if schedulable(node):
            self._aggregate_capacity = subtract_triples(self._aggregate_capacity, capacity)
            self._aggregate_unbound = subtract_triples(self._aggregate_unbound, unbound)
            self._unindex(node_id)
        if pool is not None:
            node.pool = pool
        if state is not None:
            node.state = state
        if schedulable(node):
            self._aggregate_capacity = add_triples(self._aggregate_capacity, capacity)
            self._aggregate_unbound = add_triples(self._aggregate_unbound, unbound)
            self._index(node_id, self._allocatable[node_id])
            self._raise_ceilings(node_id, self._allocatable[node_id])
            self._freed.add(self.cluster_id)
        self._moved.add(self.cluster_id)

    def namespace_used(self, namespace: str) -> Triple:
        return self.ns_usage.get(namespace, ZERO)

    def _check_feasible(self, pod: PodSpec, node_id: str, conflict: str) -> None:
        """Raise unless `pod` may take `node_id` now, by the same rule as
        `schedule_one`: BindConflict (with message `conflict`) when it does
        not fit the node, else the namespace's admission error."""
        if not fits(pod, self.spec.nodes[node_id], self._allocatable[node_id]):
            raise BindConflict(conflict)
        refusal = self.spec.admission_error(pod, self.ns_usage)
        if refusal is not None:
            raise refusal

    def _ns_add(self, namespace: str, request: Triple) -> None:
        self.ns_usage[namespace] = add_triples(self.namespace_used(namespace), request)

    def _ns_sub(self, namespace: str, request: Triple) -> None:
        self.ns_usage[namespace] = subtract_triples(self.namespace_used(namespace), request)

    def reserve(self, pod: PodSpec, node_id: str) -> None:
        """Hold node resources for a candidate until election resolves."""
        self._check_feasible(
            pod, node_id, f"reservation for {pod.pod_id} no longer fits node {node_id}"
        )
        request = pod.req
        self._take(node_id, request)
        self.reserved[node_id][pod.pod_id] = request
        self._ns_add(pod.namespace, request)

    def release_reservation(self, pod: PodSpec, node_id: str) -> bool:
        """Free what `pod` holds reserved on `node_id`; False if it holds nothing."""
        request = self.reserved[node_id].pop(pod.pod_id, None)
        if request is None:
            return False
        self._give_back(node_id, request)
        self._ns_sub(pod.namespace, request)
        return True

    def bind(self, pod: PodSpec, node_id: str, at: int) -> None:
        """Bind a pod to a node, re-validating feasibility at time `at`.

        Raises BindConflict / QuotaExceeded / NamespaceNotAllowed when the
        precondition no longer holds; the caller must re-queue the pod.
        A reservation held by the same pod is consumed by the bind.
        """
        # A reservation already holds the resources and quota.
        request = self.reserved[node_id].pop(pod.pod_id, None)
        if request is None:
            self._check_feasible(
                pod, node_id, f"pod {pod.pod_id} no longer fits node {node_id} at t={at}"
            )
            request = pod.req
            self._ns_add(pod.namespace, request)
            self._take(node_id, request)
        self._unbound[node_id] = subtract_triples(self._unbound[node_id], request)
        if node_id in self._entry_of:
            self._aggregate_unbound = subtract_triples(self._aggregate_unbound, request)
            self._moved.add(self.cluster_id)
        self.bound[node_id][pod.pod_id] = request
        pod.transition(PodPhase.RUNNING)
        pod.bound_node = node_id
        self._assert_node_capacity(node_id)

    def unbind(self, pod: PodSpec) -> None:
        """Release the resources of a completed pod bound here."""
        node_id = pod.bound_node
        request = self.bound[node_id].pop(pod.pod_id)
        self._unbound[node_id] = add_triples(self._unbound[node_id], request)
        if node_id in self._entry_of:
            self._aggregate_unbound = add_triples(self._aggregate_unbound, request)
            self._moved.add(self.cluster_id)
        self._give_back(node_id, request)
        self._ns_sub(pod.namespace, request)

    def _assert_node_capacity(self, node_id: str) -> None:
        cpu = memory = gpu = 0
        for held in (self.bound[node_id], self.reserved[node_id]):
            for want_cpu, want_memory, want_gpu in held.values():
                cpu += want_cpu
                memory += want_memory
                gpu += want_gpu
        capacity = self.spec.nodes[node_id].capacity
        if (
            cpu > capacity.cpu_millicores
            or memory > capacity.memory_bytes
            or gpu > capacity.gpu_count
        ):
            raise OvercommitError(
                f"node {node_id} in {self.cluster_id} overcommitted: "
                f"{(cpu, memory, gpu)} > {capacity.as_tuple()}"
            )
