"""Fixed-feasibility, weighted-score scheduler used inside each cluster.

Feasibility is one rule, not a plugin list: a node is feasible when
`cluster.fits` holds and the cluster admits the pod's namespace
(`ClusterSpec.admission_error`). `ClusterState.reserve` and `bind` apply
the same rule, so a node chosen here is one they accept. Among feasible
nodes the weighted score plugins decide. Scores are pure functions over a
snapshot, so a decision is fully determined by (pod, snapshot, pipeline).
Ties between equally scored nodes go to the lexicographically smallest node
id, which keeps runs replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .cluster import ClusterSpec, ClusterState, NodeSpec, PodSpec, fits
from .resources import ResourceVector

ScoreFn = Callable[[PodSpec, NodeSpec, "SchedulingSnapshot"], int]


@dataclass(frozen=True)
class SchedulingSnapshot:
    """Point-in-time view of one cluster for a scheduling decision.

    `spec` supplies the namespace allowlist and quotas, which stay fixed for
    a run; the per-node and per-namespace figures are copies.
    """

    spec: ClusterSpec
    nodes: Dict[str, NodeSpec]
    allocatable: Dict[str, ResourceVector]
    namespace_used: Dict[str, ResourceVector]


def snapshot_of(state: ClusterState) -> SchedulingSnapshot:
    return SchedulingSnapshot(
        spec=state.spec,
        nodes=dict(state.spec.nodes),
        allocatable={n: state.allocatable(n) for n in state.spec.nodes},
        namespace_used=dict(state.ns_usage),
    )


def least_allocated_score(free_after: ResourceVector, capacity: ResourceVector) -> int:
    """round(100 * mean over dimensions of free/capacity after placement).

    Dimensions with zero capacity are excluded so CPU-only nodes do not
    divide by zero on the GPU axis. Rounding is Python's round-half-to-even.
    """
    fractions = []
    for free, cap in zip(free_after.as_tuple(), capacity.as_tuple()):
        if cap > 0:
            fractions.append(free / cap)
    if not fractions:
        return 0
    return round(100 * sum(fractions) / len(fractions))


def least_allocated(pod: PodSpec, node: NodeSpec, snap: SchedulingSnapshot) -> int:
    free_after = snap.allocatable[node.node_id].subtract(pod.request)
    return least_allocated_score(free_after, node.capacity)


def gpu_binpack(pod: PodSpec, node: NodeSpec, snap: SchedulingSnapshot) -> int:
    """Prefer the fullest GPU node after placement, to limit fragmentation."""
    cap = node.capacity.gpu_count
    if cap == 0:
        return 0
    free_after = snap.allocatable[node.node_id].gpu_count - pod.request.gpu_count
    return round(100 * (cap - free_after) / cap)


SCORE_PLUGINS: Dict[str, ScoreFn] = {
    "LeastAllocated": least_allocated,
    "GpuBinpack": gpu_binpack,
}

DEFAULT_SCORES = (("LeastAllocated", 1),)


@dataclass
class PluginPipeline:
    scores: List[Tuple[str, ScoreFn, float]] = field(default_factory=list)

    def total_score(self, pod: PodSpec, node: NodeSpec, snap: SchedulingSnapshot) -> float:
        return sum(weight * fn(pod, node, snap) for _, fn, weight in self.scores)


def builtin_pipeline(score_weights=DEFAULT_SCORES) -> PluginPipeline:
    scores = []
    for name, weight in score_weights:
        if weight < 0:
            raise ValueError(f"score weight for {name} must be >= 0")
        scores.append((name, SCORE_PLUGINS[name], weight))
    return PluginPipeline(scores=scores)


def schedule_one(
    pod: PodSpec, snap: SchedulingSnapshot, pipeline: PluginPipeline
) -> Optional[str]:
    """Pick the feasible node with maximal total score, or None.

    Namespace admission does not depend on the node, so it is decided once,
    before the node loop. Nodes are visited in sorted id order with a strict
    improvement test, so score ties resolve to the lexicographically
    smallest node id.
    """
    if snap.spec.admission_error(pod, snap.namespace_used) is not None:
        return None
    best_node = None
    best_score = None
    for node_id in sorted(snap.nodes):
        node = snap.nodes[node_id]
        if not fits(pod, node, snap.allocatable[node_id]):
            continue
        score = pipeline.total_score(pod, node, snap)
        if best_score is None or score > best_score:
            best_node, best_score = node_id, score
    return best_node
