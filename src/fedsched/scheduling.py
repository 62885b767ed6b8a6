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

A decision walks a node order instead of scoring every node.
`ClusterState.order` holds, per capacity, one entry (-K, free, labels,
node id) for each Ready container node, sorted, with K = sum of
free_d * P / cap_d over the dimensions with capacity and P the product of
those capacities (`CapacityKey`). Nodes of equal (capacity, free, labels)
form a class: they are interchangeable, and their entries are adjacent,
the smallest id first.

`schedule_one` walks every capacity's entries from the largest K down. It
looks only at the first entry of each class, its representative: after
each visit, when the next entry has the same free triple and labels, it
jumps past the rest of the class with one `bisect_right`. It tests each
representative inline, by the rule of `fits`: the pod's selector is a
subset of the node's label set (`snap.label_sets`), and the request is at
most the entry's free triple in cpu, memory and gpu. The Ready and
container-pool half of `fits` needs no test there, because the order
invariant (`ClusterState`) keeps every other node out of `order`. It
skips the representatives that fail, scores the rest with the pipeline's
weighted sum and keeps the best, ties going to the smallest
representative id. That is the choice of a loop over all nodes in sorted
id order with a strict improvement test, for every pipeline: the scores
of a class's members are equal, and a weighted sum of finite weights
>= 0 is never NaN, so the best total and its smallest id are the same
whichever order the nodes are met in.

When the pipeline is `LeastAllocated` alone with a weight w where
0 < w * 100 < inf (the default pipeline), the walk also stops early.
With R the request's key and best the best representative's
`least_allocated` score so far, it stops walking a capacity once

    100 * (K - R) < (best - 1) * dims * P

all in ints. Why no later class can tie or win: 100 * (K - R) / (dims * P)
is the exact mean of free-after/capacity in percent, and K only falls
along the walk, so every later class's exact mean is below best - 1. The
float sum in `least_allocated_score` is off from the exact mean by far
less than half a point, so a later class rounds to at most best - 1.
Ranking by the raw score is ranking by w * score, because w * s strictly
rises with the int s when w > 0 and w * 100 is finite.

Every other pipeline visits every class: with weight 0 every node ties, so
the smallest feasible id wins, wherever its class sits in the order;
`GpuBinpack` rises as free GPU falls, against the order; and a weight so
large that w * 100 overflows makes scores tie at infinity.

A decision that is sure to find no node does not walk. After the namespace
check, `schedule_one` reads the ceiling of the pod's selector
(`ClusterState.ceilings`, keyed by `PodSpec.selector_key`): a (cpu,
memory, gpu) bound on the free triple of every Ready container node that
the selector matches. A request above it in any dimension fits none of
those nodes, so the answer is None. That needs an upper bound, not the
maximum, so the state keeps it only where free grows: a release, an
unbind or a node made schedulable raises the ceilings whose selector
matches the node. Where free shrinks (reserve, bind, a node taken out) the
old bound still holds, so nothing is done there. The walk tightens the
bound. A walk that finds no node has visited every class, because the stop
rule fires only once a node is found, and every representative failed the
inline test. So the max over the free triples of the representatives that
the selector matches, gathered where the request does not fit, is the
exact maximum over the matching nodes, and the walk stores it:
(-1, -1, -1) when the selector matches none. A walk that finds a node
stores nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import itemgetter
from typing import Callable, Dict, Optional, Tuple

from .cluster import ClusterState, PodSpec, SchedulingSnapshot
from .resources import Triple

# (request, capacity, free) -> score, all (cpu, memory, gpu) triples; `free`
# is net of bound pods and reservations, and the request fits within it.
ScoreFn = Callable[[Triple, Triple, Triple], int]

# A cluster's score plugins as (fn, weight) pairs, summed in this order.
# Whether the stop rule applies (module docstring) is not stored with them:
# `schedule_one` works it out per decision, in three comparisons.
Pipeline = Tuple[Tuple[ScoreFn, float], ...]


def snapshot_of(state: ClusterState) -> SchedulingSnapshot:
    return state.snapshot


# The class part of a node entry: (-K, free, labels).
_CLASS = itemgetter(0, 1, 2)


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
    before the walk; then a request above the selector's ceiling is refused
    without a walk, and a walk that finds no node stores the exact ceiling
    (module docstring). The walk visits each class representative of the
    node order and tests it inline: selector against the node's label set,
    request against the entry's free triple. Nothing checks that the node
    is Ready and in the container pool, because `order` holds no other
    node (the order invariant of `ClusterState`). A node's total score is
    the sum, from int 0 in pipeline order, of weight * score; score ties
    resolve to the lexicographically smallest node id. The stop rule
    applies only to a pipeline of `LeastAllocated` alone with a weight w
    where 0 < w * 100 < inf.
    """
    if snap.spec.admission_error(pod, snap.namespace_used) is not None:
        return None
    request = want_cpu, want_memory, want_gpu = pod.req
    selector = pod.selector_key
    ceiling = snap.ceilings.get(selector)
    if ceiling is not None and (
        want_cpu > ceiling[0] or want_memory > ceiling[1] or want_gpu > ceiling[2]
    ):
        return None
    stops = len(pipeline) == 1 and pipeline[0][0] is least_allocated and (
        0 < pipeline[0][1] * 100 < math.inf
    )
    label_sets = snap.label_sets
    best_node = None
    best_score = best_raw = None
    # The componentwise max free triple of the representatives that the
    # selector matches and that the request does not fit: with no node
    # found, of all.
    top_cpu = top_memory = top_gpu = -1
    for key, entries in snap.order:
        capacity, unit = key.capacity, key.unit
        request_key = key.key(request)
        i, end = 0, len(entries)
        while i < end:
            neg_key, free, labels, node_id = entries[i]
            if (
                stops
                and best_node is not None
                and 100 * (-neg_key - request_key) < (best_raw - 1) * unit
            ):
                break
            i += 1
            if i < end and entries[i][1] == free and entries[i][2] == labels:
                # The rest of the class scores as its representative does.
                i = bisect_right(entries, (neg_key, free, labels), i, end, key=_CLASS)
            if not selector <= label_sets[node_id]:
                continue
            cpu, memory, gpu = free
            if want_cpu > cpu or want_memory > memory or want_gpu > gpu:
                if cpu > top_cpu:
                    top_cpu = cpu
                if memory > top_memory:
                    top_memory = memory
                if gpu > top_gpu:
                    top_gpu = gpu
                continue
            # `raw` ends as the last plugin's unweighted score: with `stops`,
            # the `least_allocated` score that the stop rule reads.
            score = raw = 0
            for fn, weight in pipeline:
                raw = fn(request, capacity, free)
                score += weight * raw
            if (
                best_node is None
                or score > best_score
                or (score == best_score and node_id < best_node)
            ):
                best_node, best_score, best_raw = node_id, score, raw
    if best_node is None:
        snap.ceilings[selector] = (top_cpu, top_memory, top_gpu)
    return best_node
