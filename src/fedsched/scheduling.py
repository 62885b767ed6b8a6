"""Fixed-feasibility, weighted-score scheduler used inside each cluster.

Feasibility is one rule, not a plugin list: a node is feasible when
`cluster.fits` holds and the cluster admits the pod's namespace
(`ClusterSpec.admission_error`). `ClusterState.reserve` and `bind` apply
the same rule, so a node chosen here is one they accept. Among feasible
nodes the weighted score plugins decide. A score is a pure function of the
pod's request, the node's capacity and the node's free resources, all
(cpu, memory, gpu) int triples, so a decision is fully determined by (pod,
snapshot, pipeline) and builds no vector. Ties between equally scored nodes
go to the lexicographically smallest node id, which keeps runs replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .cluster import ClusterSpec, ClusterState, NodeSpec, PodSpec, fits
from .resources import Triple

# (request, capacity, free) -> score, all (cpu, memory, gpu) triples; `free`
# is net of bound pods and reservations, and the request fits within it.
ScoreFn = Callable[[Triple, Triple, Triple], int]

# A cluster's score plugins as (fn, weight) pairs, summed in this order.
Pipeline = Tuple[Tuple[ScoreFn, float], ...]


@dataclass(frozen=True)
class SchedulingSnapshot:
    """Point-in-time view of one cluster for a scheduling decision.

    `spec` supplies the namespace allowlist and quotas, and `capacity` the
    per-node capacity triples, which all stay fixed for a run; the per-node
    and per-namespace figures are copies.
    """

    spec: ClusterSpec
    nodes: Dict[str, NodeSpec]
    capacity: Dict[str, Triple]
    allocatable: Dict[str, Triple]
    namespace_used: Dict[str, Triple]


def snapshot_of(state: ClusterState) -> SchedulingSnapshot:
    return SchedulingSnapshot(
        spec=state.spec,
        nodes=dict(state.spec.nodes),
        capacity=state._capacity,
        allocatable=dict(state._allocatable),
        namespace_used=dict(state.ns_usage),
    )


def least_allocated_score(free_after: Triple, capacity: Triple) -> int:
    """round(100 * mean over dimensions of free/capacity after placement).

    Both arguments are (cpu, memory, gpu) int triples. Dimensions with zero
    capacity are excluded so CPU-only nodes do not divide by zero on the GPU
    axis. The terms are added in dimension order (cpu, memory, gpu), so the
    float sum is the same on every path. Rounding is Python's
    round-half-to-even.
    """
    free_cpu, free_memory, free_gpu = free_after
    cap_cpu, cap_memory, cap_gpu = capacity
    total = 0
    dims = 0
    if cap_cpu > 0:
        total += free_cpu / cap_cpu
        dims += 1
    if cap_memory > 0:
        total += free_memory / cap_memory
        dims += 1
    if cap_gpu > 0:
        total += free_gpu / cap_gpu
        dims += 1
    if not dims:
        return 0
    return round(100 * total / dims)


def least_allocated(request: Triple, capacity: Triple, free: Triple) -> int:
    free_after = (free[0] - request[0], free[1] - request[1], free[2] - request[2])
    return least_allocated_score(free_after, capacity)


def gpu_binpack(request: Triple, capacity: Triple, free: Triple) -> int:
    """Prefer the fullest GPU node after placement, to limit fragmentation."""
    cap = capacity[2]
    if cap == 0:
        return 0
    free_after = free[2] - request[2]
    return round(100 * (cap - free_after) / cap)


SCORE_PLUGINS: Dict[str, ScoreFn] = {
    "LeastAllocated": least_allocated,
    "GpuBinpack": gpu_binpack,
}

DEFAULT_SCORES = (("LeastAllocated", 1),)


def builtin_pipeline(score_weights=DEFAULT_SCORES) -> Pipeline:
    for name, weight in score_weights:
        if weight < 0:
            raise ValueError(f"score weight for {name} must be >= 0")
    return tuple((SCORE_PLUGINS[name], weight) for name, weight in score_weights)


def schedule_one(pod: PodSpec, snap: SchedulingSnapshot, pipeline: Pipeline) -> Optional[str]:
    """Pick the feasible node with maximal total score, or None.

    Namespace admission does not depend on the node, so it is decided once,
    before the node loop. A node's total score is the sum, from int 0 in
    pipeline order, of weight * score. Nodes are visited in sorted id order
    with a strict improvement test, so score ties resolve to the
    lexicographically smallest node id.
    """
    if snap.spec.admission_error(pod, snap.namespace_used) is not None:
        return None
    request = pod.request.as_tuple()
    nodes, capacities, allocatable = snap.nodes, snap.capacity, snap.allocatable
    best_node = None
    best_score = None
    for node_id in sorted(nodes):
        node = nodes[node_id]
        free = allocatable[node_id]
        if not fits(pod, node, free):
            continue
        capacity = capacities[node_id]
        score = 0
        for fn, weight in pipeline:
            score += weight * fn(request, capacity, free)
        if best_score is None or score > best_score:
            best_node, best_score = node_id, score
    return best_node
