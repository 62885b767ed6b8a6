"""Meta-scheduler that re-purposes nodes between the batch and container pools.

One instance manages one cluster. On each rebalance tick it compares the
batch-side shortfall (queued jobs, in whole nodes) against the container-side
shortfall (pending pod requests, in node equivalents) and moves idle nodes
toward the larger one. A moved node goes through a provisioning delay before
it is Ready in the new pool and is then pinned for a cooldown so oscillating
demand cannot thrash it back and forth.

The batch model is deliberately minimal: FIFO, whole nodes, no backfill.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List

from . import engine
from .cluster import NodePool, NodeState, PodSpec
from .resources import ZERO, Triple, add_triples


log = logging.getLogger("fedsched.metascale")


class JobState(Enum):
    QUEUED = "Queued"
    RUNNING = "Running"
    DONE = "Done"


@dataclass(slots=True)
class BatchJob:
    job_id: str
    cluster: str
    node_count: int
    duration: int
    submit_time: int
    state: JobState = JobState.QUEUED
    assigned_nodes: List[str] = field(default_factory=list)


@dataclass
class MetaScaleParams:
    """The `metascale` config section; `config.METASCALE` holds the defaults."""

    enabled: bool
    tick_ms: int
    provisioning_delay_ms: int
    cooldown_ms: int
    min_batch_nodes: int
    min_container_nodes: int


class MetaScaler:
    def __init__(self, ctx, cluster_id: str, params: MetaScaleParams):
        self.ctx = ctx
        self.cluster_id = cluster_id
        self.params = params
        self.queue: List[BatchJob] = []
        self.busy_nodes: set = set()
        self.pinned_until: Dict[str, int] = {}
        # The average node, the unit of container demand. Node capacities
        # never change, so it is fixed for the run.
        nodes = ctx.clusters[cluster_id].nodes().values()
        n = len(nodes)
        self.reference_capacity: Triple = (
            max(1, sum(node.capacity.cpu_millicores for node in nodes) // n),
            max(1, sum(node.capacity.memory_bytes for node in nodes) // n),
            sum(node.capacity.gpu_count for node in nodes) // n,
        )

    # -- batch FIFO ----------------------------------------------------------

    def submit(self, job: BatchJob) -> None:
        self.queue.append(job)
        self.ctx.effect(("job", job.job_id, self.cluster_id, job.state._value_))
        self.try_start()

    def _idle(self, pool: NodePool) -> List[str]:
        """Ready nodes of `pool` that hold no work, in id order: no batch
        job, and no bound or reserved pod."""
        state = self.ctx.clusters[self.cluster_id]
        return sorted(
            node_id
            for node_id, node in state.nodes().items()
            if node.pool is pool
            and node.state is NodeState.READY
            and node_id not in self.busy_nodes
            and not state.bound[node_id]
            and not state.reserved[node_id]
        )

    def try_start(self) -> None:
        """Start queued jobs FIFO; a head job that does not fit blocks the rest."""
        while self.queue:
            head = self.queue[0]
            idle = self._idle(NodePool.BATCH)
            if head.node_count > len(idle):
                return
            self.queue.pop(0)
            head.assigned_nodes = idle[: head.node_count]
            head.state = JobState.RUNNING
            self.busy_nodes.update(head.assigned_nodes)
            self.ctx.effect((
                "job_nodes", head.job_id, self.cluster_id, head.state._value_,
                head.assigned_nodes,
            ))
            self.ctx.at(
                self.ctx.now + head.duration, engine.JOB_COMPLETE, (head.job_id, self.cluster_id)
            )

    def on_job_complete(self, job: BatchJob) -> None:
        job.state = JobState.DONE
        self.busy_nodes.difference_update(job.assigned_nodes)
        self.ctx.effect(("job", job.job_id, self.cluster_id, job.state._value_))
        self.try_start()

    # -- demand and rebalancing -----------------------------------------------

    def _node_equivalents(self, pending: Triple) -> int:
        """Pending container demand expressed in average-node units."""
        needed = 0
        for want, have in zip(pending, self.reference_capacity):
            if want > 0 and have > 0:
                needed = max(needed, math.ceil(want / have))
        return needed

    def _repurposing_count(self, pool: NodePool) -> int:
        state = self.ctx.clusters[self.cluster_id]
        return sum(
            1
            for n in state.nodes().values()
            if n.pool is pool and n.state is NodeState.REPURPOSING
        )

    def on_tick(self, pending: List[PodSpec]) -> None:
        """Rebalance toward the larger shortfall; `pending` is the unmet
        container demand the cluster can see."""
        # Batch demand is the queued jobs' node count; container demand,
        # the summed pending requests in average-node units.
        demand = ZERO
        for pod in pending:
            demand = add_triples(demand, pod.req)
        batch_short = max(
            0,
            sum(job.node_count for job in self.queue)
            - len(self._idle(NodePool.BATCH))
            - self._repurposing_count(NodePool.BATCH),
        )
        container_short = max(
            0,
            self._node_equivalents(demand)
            - self._repurposing_count(NodePool.CONTAINER),
        )
        if container_short > batch_short:
            self._move(NodePool.BATCH, NodePool.CONTAINER, container_short - batch_short)
        elif batch_short > container_short:
            self._move(NodePool.CONTAINER, NodePool.BATCH, batch_short - container_short)

    def _move(self, src: NodePool, dst: NodePool, want: int) -> None:
        min_src = (
            self.params.min_batch_nodes
            if src is NodePool.BATCH
            else self.params.min_container_nodes
        )
        state = self.ctx.clusters[self.cluster_id]
        headroom = sum(1 for node in state.nodes().values() if node.pool is src) - min_src
        movable = [
            node_id for node_id in self._idle(src)
            if self.pinned_until.get(node_id, -1) <= self.ctx.now
        ]
        count = min(want, len(movable), max(0, headroom))
        if count <= 0:
            return
        log.debug("t=%d %s: moving %d node(s) %s -> %s",
                  self.ctx.now, self.cluster_id, count, src._value_, dst._value_)
        for node_id in movable[:count]:
            state.set_node(node_id, pool=dst, state=NodeState.REPURPOSING)
            self.pinned_until[node_id] = self.ctx.now + self.params.cooldown_ms
            self.ctx.effect(("pool_move", self.cluster_id, node_id, src._value_, dst._value_))
            self.ctx.at(
                self.ctx.now + self.params.provisioning_delay_ms,
                engine.NODE_READY,
                (self.cluster_id, node_id),
            )

    def on_node_ready(self, node_id: str) -> None:
        state = self.ctx.clusters[self.cluster_id]
        node = state.nodes()[node_id]
        state.set_node(node_id, state=NodeState.READY)
        self.ctx.effect(("node_ready", self.cluster_id, node_id, node.pool._value_))
        if node.pool is NodePool.BATCH:
            self.try_start()
