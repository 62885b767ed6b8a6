"""Cluster, node and pod model with strict resource accounting.

Accounting invariant: on every node, bound requests plus candidate
reservations never exceed capacity. A subtraction that would go negative
raises OvercommitError because it can only mean the simulator double-booked
a node, never as a recoverable condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Optional, Set, Tuple

from .errors import (
    BindConflict,
    BindError,
    NamespaceNotAllowed,
    OvercommitError,
    PhaseTransitionError,
    QuotaExceeded,
)
from .resources import ResourceVector, sum_vectors


class NodePool(Enum):
    BATCH = "Batch"
    CONTAINER = "Container"


class NodeState(Enum):
    READY = "Ready"
    REPURPOSING = "Repurposing"


class PodPhase(Enum):
    PENDING = "Pending"
    BOUND = "Bound"
    RUNNING = "Running"
    COMPLETED = "Completed"
    FAILED = "Failed"
    UNSCHEDULABLE = "Unschedulable"


# Legal pod phase transitions. Anything else is a simulator bug.
_PHASE_EDGES = {
    PodPhase.PENDING: {PodPhase.BOUND, PodPhase.UNSCHEDULABLE},
    PodPhase.BOUND: {PodPhase.RUNNING, PodPhase.FAILED},
    PodPhase.RUNNING: {PodPhase.COMPLETED, PodPhase.FAILED},
    PodPhase.COMPLETED: set(),
    PodPhase.FAILED: set(),
    PodPhase.UNSCHEDULABLE: set(),
}


@dataclass
class NodeSpec:
    node_id: str
    cluster_id: str
    capacity: ResourceVector
    labels: Dict[str, str] = field(default_factory=dict)
    pool: NodePool = NodePool.CONTAINER
    state: NodeState = NodeState.READY


@dataclass
class PodSpec:
    pod_id: str
    namespace: str
    request: ResourceVector
    node_selector: Dict[str, str] = field(default_factory=dict)
    federation_eligible: bool = False
    submit_time: int = 0
    duration: int = 0
    phase: PodPhase = PodPhase.PENDING
    bound_cluster: Optional[str] = None
    bound_node: Optional[str] = None

    def transition(self, to: PodPhase) -> None:
        if to not in _PHASE_EDGES[self.phase]:
            raise PhaseTransitionError(
                f"pod {self.pod_id}: illegal phase transition {self.phase.value} -> {to.value}"
            )
        self.phase = to

    def clone(self) -> "PodSpec":
        """Fresh Pending copy, used when a chaperon is created in a target."""
        return PodSpec(
            pod_id=self.pod_id,
            namespace=self.namespace,
            request=self.request,
            node_selector=dict(self.node_selector),
            federation_eligible=self.federation_eligible,
            submit_time=self.submit_time,
            duration=self.duration,
        )


@dataclass
class ClusterSpec:
    cluster_id: str
    nodes: Dict[str, NodeSpec] = field(default_factory=dict)
    # None means every namespace is admitted.
    namespace_allowlist: Optional[Set[str]] = None
    # Missing entry means unlimited quota for that namespace.
    namespace_quota: Dict[str, ResourceVector] = field(default_factory=dict)

    def add_node(self, node: NodeSpec) -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id} in {self.cluster_id}")
        self.nodes[node.node_id] = node

    def admission_error(
        self, pod: PodSpec, ns_usage: Dict[str, ResourceVector]
    ) -> Optional[BindError]:
        """The error refusing `pod`'s namespace here, or None if admitted.

        Admitted means on the allowlist and, with `ns_usage` the requests
        each namespace already holds, within the namespace's quota once the
        pod's request is added. `schedule_one`, `ClusterState.reserve` and
        `ClusterState.bind` all decide admission here, so they cannot
        disagree.
        """
        namespace = pod.namespace
        if self.namespace_allowlist is not None and namespace not in self.namespace_allowlist:
            return NamespaceNotAllowed(
                f"namespace {namespace!r} not admitted by cluster {self.cluster_id}"
            )
        quota = self.namespace_quota.get(namespace)
        if quota is not None and not (
            ns_usage.get(namespace, ResourceVector.zero()) + pod.request
        ).fits_within(quota):
            return QuotaExceeded(
                f"namespace {namespace!r} over quota in cluster {self.cluster_id}"
            )
        return None


def node_allocatable(node: NodeSpec, bound_pods: Iterable[PodSpec]) -> ResourceVector:
    """Capacity minus the component-wise sum of bound requests.

    Raises OvercommitError if the result would be negative; an overcommitted
    node is an accounting bug, never something to clamp.
    """
    return node.capacity.subtract(sum_vectors(p.request for p in bound_pods))


def selector_matches(selector: Dict[str, str], labels: Dict[str, str]) -> bool:
    return all(labels.get(k) == v for k, v in selector.items())


def schedulable(node: NodeSpec) -> bool:
    """Ready and in the container pool: the nodes pods may take, and the
    ones a cluster's virtual-node aggregates cover."""
    return node.state is NodeState.READY and node.pool is NodePool.CONTAINER


def fits(pod: PodSpec, node: NodeSpec, allocatable: ResourceVector) -> bool:
    """Pure feasibility predicate for one pod on one container node."""
    if not schedulable(node):
        return False
    if not selector_matches(pod.node_selector, node.labels):
        return False
    return pod.request.fits_within(allocatable)


class ClusterState:
    """Mutable accounting for one cluster inside a simulation run.

    Tracks, per node, the requests of bound pods and of candidate
    reservations, plus per-namespace totals for quota enforcement.
    Reservations count against both node capacity and namespace quota so a
    reserved candidate can always be promoted to a bind.

    Incremental invariant: after every reserve, release_reservation, bind
    and unbind, for every node n

        _unbound[n]     == capacity(n) - sum(bound[n])
        _allocatable[n] == capacity(n) - sum(bound[n]) - sum(reserved[n])

    so `allocatable` is a dict read. The per-pod `bound` and `reserved`
    maps stay the record of truth: `_assert_node_capacity` recomputes from
    them after every bind, independently of the cached vectors.

    Aggregate invariant: after every bind, unbind and `set_node`, with S the
    Ready container nodes (`schedulable`),

        _aggregate_capacity == sum(capacity(n) for n in S)
        _aggregate_unbound  == sum(_unbound[n] for n in S)

    so the virtual-node aggregates are reads. Node pool and state change
    only through `set_node`, which moves the node's share in or out.
    """

    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        self.bound: Dict[str, Dict[str, ResourceVector]] = {n: {} for n in spec.nodes}
        self.reserved: Dict[str, Dict[str, ResourceVector]] = {n: {} for n in spec.nodes}
        self.ns_usage: Dict[str, ResourceVector] = {}
        self.pods: Dict[str, PodSpec] = {}
        # pod id -> (node id, namespace) of its reservation.
        self._reservations: Dict[str, Tuple[str, str]] = {}
        self._unbound: Dict[str, ResourceVector] = {
            n: node.capacity for n, node in spec.nodes.items()
        }
        self._allocatable: Dict[str, ResourceVector] = dict(self._unbound)
        in_aggregate = [n for n in spec.nodes.values() if schedulable(n)]
        self._aggregate_capacity = sum_vectors(n.capacity for n in in_aggregate)
        self._aggregate_unbound = self._aggregate_capacity

    @property
    def cluster_id(self) -> str:
        return self.spec.cluster_id

    def nodes(self) -> Dict[str, NodeSpec]:
        return self.spec.nodes

    def allocatable(self, node_id: str, include_reservations: bool = True) -> ResourceVector:
        if include_reservations:
            return self._allocatable[node_id]
        return self._unbound[node_id]

    def aggregate_capacity(self) -> ResourceVector:
        """Capacity summed over Ready container nodes."""
        return self._aggregate_capacity

    def aggregate_allocatable(self) -> ResourceVector:
        """Allocatable (net of bound pods only) over Ready container nodes.

        Reservations are deliberately excluded: they are short-lived election
        artifacts, and reporting them would double-count a pod against its
        own candidate when the proxy scores aggregates.
        """
        return self._aggregate_unbound

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
        if schedulable(node):
            self._aggregate_capacity = self._aggregate_capacity.subtract(node.capacity)
            self._aggregate_unbound = self._aggregate_unbound.subtract(self._unbound[node_id])
        if pool is not None:
            node.pool = pool
        if state is not None:
            node.state = state
        if schedulable(node):
            self._aggregate_capacity = self._aggregate_capacity + node.capacity
            self._aggregate_unbound = self._aggregate_unbound + self._unbound[node_id]

    def namespace_used(self, namespace: str) -> ResourceVector:
        return self.ns_usage.get(namespace, ResourceVector.zero())

    def _check_feasible(self, pod: PodSpec, node_id: str, conflict: str) -> None:
        """Raise unless `pod` may take `node_id` now, by the same rule as
        `schedule_one`: BindConflict (with message `conflict`) when it does
        not fit the node, else the namespace's admission error."""
        if not fits(pod, self.spec.nodes[node_id], self.allocatable(node_id)):
            raise BindConflict(conflict)
        refusal = self.spec.admission_error(pod, self.ns_usage)
        if refusal is not None:
            raise refusal

    def _ns_add(self, namespace: str, request: ResourceVector) -> None:
        self.ns_usage[namespace] = self.namespace_used(namespace) + request

    def _ns_sub(self, namespace: str, request: ResourceVector) -> None:
        self.ns_usage[namespace] = self.namespace_used(namespace).subtract(request)

    def reserve(self, pod: PodSpec, node_id: str) -> None:
        """Hold node resources for a candidate until election resolves."""
        self._check_feasible(
            pod, node_id, f"reservation for {pod.pod_id} no longer fits node {node_id}"
        )
        self._allocatable[node_id] = self._allocatable[node_id].subtract(pod.request)
        self.reserved[node_id][pod.pod_id] = pod.request
        self._reservations[pod.pod_id] = (node_id, pod.namespace)
        self._ns_add(pod.namespace, pod.request)

    def release_reservation(self, pod_id: str) -> bool:
        held = self._reservations.pop(pod_id, None)
        if held is None:
            return False
        node_id, namespace = held
        request = self.reserved[node_id].pop(pod_id)
        self._allocatable[node_id] = self._allocatable[node_id] + request
        self._ns_sub(namespace, request)
        return True

    def bind(self, pod: PodSpec, node_id: str, at: int) -> None:
        """Bind a pod to a node, re-validating feasibility at time `at`.

        Raises BindConflict / QuotaExceeded / NamespaceNotAllowed when the
        precondition no longer holds; the caller must re-queue the pod.
        A reservation held by the same pod is consumed by the bind.
        """
        if pod.pod_id in self.reserved[node_id]:
            # The reservation already holds the resources and quota.
            request = self.reserved[node_id].pop(pod.pod_id)
            del self._reservations[pod.pod_id]
        else:
            self._check_feasible(
                pod, node_id, f"pod {pod.pod_id} no longer fits node {node_id} at t={at}"
            )
            request = pod.request
            self._ns_add(pod.namespace, request)
            self._allocatable[node_id] = self._allocatable[node_id].subtract(request)
        self._unbound[node_id] = self._unbound[node_id].subtract(request)
        if schedulable(self.spec.nodes[node_id]):
            self._aggregate_unbound = self._aggregate_unbound.subtract(request)
        self.bound[node_id][pod.pod_id] = request
        self.pods[pod.pod_id] = pod
        pod.transition(PodPhase.BOUND)
        pod.bound_cluster = self.cluster_id
        pod.bound_node = node_id
        self._assert_node_capacity(node_id)

    def unbind(self, pod_id: str) -> PodSpec:
        """Release a bound pod's resources (completion or failure)."""
        pod = self.pods.pop(pod_id)
        node_id = pod.bound_node
        request = self.bound[node_id].pop(pod_id)
        self._unbound[node_id] = self._unbound[node_id] + request
        if schedulable(self.spec.nodes[node_id]):
            self._aggregate_unbound = self._aggregate_unbound + request
        self._allocatable[node_id] = self._allocatable[node_id] + request
        self._ns_sub(pod.namespace, request)
        return pod

    def _assert_node_capacity(self, node_id: str) -> None:
        node = self.spec.nodes[node_id]
        total = sum_vectors(self.bound[node_id].values()) + sum_vectors(
            self.reserved[node_id].values()
        )
        if not total.fits_within(node.capacity):
            raise OvercommitError(
                f"node {node_id} in {self.cluster_id} overcommitted: {total} > {node.capacity}"
            )
