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
from typing import Dict, List, Optional

from . import engine
from .cluster import NodePool, NodeState
from .resources import ResourceVector, sum_vectors


log = logging.getLogger("fedsched.metascale")


class JobState(Enum):
    QUEUED = "Queued"
    RUNNING = "Running"
    DONE = "Done"


@dataclass
class BatchJob:
    job_id: str
    cluster: str
    node_count: int
    duration: int
    submit_time: int
    state: JobState = JobState.QUEUED
    assigned_nodes: List[str] = field(default_factory=list)
    start_time: Optional[int] = None
    end_time: Optional[int] = None


@dataclass
class PoolDemand:
    batch_queue_depth: int  # queued demand in node-count terms
    container_pending: ResourceVector


@dataclass
class MetaScaleParams:
    enabled: bool = False
    tick_ms: int = 60_000
    provisioning_delay_ms: int = 120_000
    cooldown_ms: int = 600_000
    min_batch_nodes: int = 0
    min_container_nodes: int = 0


class MetaScaler:
    def __init__(self, ctx, cluster_id: str, params: MetaScaleParams):
        self.ctx = ctx
        self.cluster_id = cluster_id
        self.params = params
        self.queue: List[BatchJob] = []
        self.jobs: Dict[str, BatchJob] = {}
        self.busy_nodes: set = set()
        self.pinned_until: Dict[str, int] = {}

    # -- batch FIFO ----------------------------------------------------------

    def submit(self, job: BatchJob) -> None:
        self.jobs[job.job_id] = job
        self.queue.append(job)
        self.ctx.effect(op="job", job=job.job_id, cluster=self.cluster_id, state=job.state.value)
        self.try_start()

    def _idle_batch_nodes(self) -> List[str]:
        state = self.ctx.clusters[self.cluster_id]
        return sorted(
            n.node_id
            for n in state.nodes().values()
            if n.pool is NodePool.BATCH
            and n.state is NodeState.READY
            and n.node_id not in self.busy_nodes
        )

    def try_start(self) -> None:
        """Start queued jobs FIFO; a head job that does not fit blocks the rest."""
        while self.queue:
            head = self.queue[0]
            idle = self._idle_batch_nodes()
            if head.node_count > len(idle):
                return
            self.queue.pop(0)
            head.assigned_nodes = idle[: head.node_count]
            head.state = JobState.RUNNING
            head.start_time = self.ctx.now
            head.end_time = self.ctx.now + head.duration
            self.busy_nodes.update(head.assigned_nodes)
            self.ctx.effect(
                op="job", job=head.job_id, cluster=self.cluster_id,
                state=head.state.value, nodes=head.assigned_nodes,
            )
            self.ctx.at(
                head.end_time, engine.JOB_COMPLETE,
                {"job": head.job_id, "cluster": self.cluster_id},
            )

    def on_job_complete(self, job_id: str) -> None:
        job = self.jobs[job_id]
        job.state = JobState.DONE
        self.busy_nodes.difference_update(job.assigned_nodes)
        self.ctx.effect(op="job", job=job_id, cluster=self.cluster_id, state=job.state.value)
        self.try_start()

    # -- demand and rebalancing -----------------------------------------------

    def demand(self) -> PoolDemand:
        queued_nodes = sum(j.node_count for j in self.queue)
        pending = sum_vectors(p.request for p in self.ctx.pending_requests(self.cluster_id))
        return PoolDemand(
            batch_queue_depth=queued_nodes,
            container_pending=pending,
        )

    def _reference_capacity(self) -> ResourceVector:
        nodes = list(self.ctx.clusters[self.cluster_id].nodes().values())
        n = len(nodes)
        total = sum_vectors(node.capacity for node in nodes)
        return ResourceVector(
            max(1, total.cpu_millicores // n),
            max(1, total.memory_bytes // n),
            total.gpu_count // n,
        )

    def _node_equivalents(self, pending: ResourceVector) -> int:
        """Pending container demand expressed in average-node units."""
        ref = self._reference_capacity()
        needed = 0
        for want, have in zip(pending.as_tuple(), ref.as_tuple()):
            if want > 0 and have > 0:
                needed = max(needed, math.ceil(want / have))
        return needed

    def _pool_members(self, pool: NodePool) -> List[str]:
        state = self.ctx.clusters[self.cluster_id]
        return sorted(n.node_id for n in state.nodes().values() if n.pool is pool)

    def _repurposing_count(self, pool: NodePool) -> int:
        state = self.ctx.clusters[self.cluster_id]
        return sum(
            1
            for n in state.nodes().values()
            if n.pool is pool and n.state is NodeState.REPURPOSING
        )

    def _movable(self, pool: NodePool) -> List[str]:
        """Idle, Ready, unpinned nodes of a pool, in deterministic order."""
        state = self.ctx.clusters[self.cluster_id]
        out = []
        for node_id in self._pool_members(pool):
            node = state.nodes()[node_id]
            if node.state is not NodeState.READY:
                continue
            if self.pinned_until.get(node_id, -1) > self.ctx.now:
                continue
            if pool is NodePool.BATCH and node_id in self.busy_nodes:
                continue
            if pool is NodePool.CONTAINER and (
                state.bound[node_id] or state.reserved[node_id]
            ):
                continue
            out.append(node_id)
        return out

    def on_tick(self) -> None:
        demand = self.demand()
        batch_short = max(
            0,
            demand.batch_queue_depth
            - len(self._idle_batch_nodes())
            - self._repurposing_count(NodePool.BATCH),
        )
        container_short = max(
            0,
            self._node_equivalents(demand.container_pending)
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
        headroom = len(self._pool_members(src)) - min_src
        count = min(want, len(self._movable(src)), max(0, headroom))
        if count <= 0:
            return
        state = self.ctx.clusters[self.cluster_id]
        log.debug("t=%d %s: moving %d node(s) %s -> %s",
                  self.ctx.now, self.cluster_id, count, src.value, dst.value)
        for node_id in self._movable(src)[:count]:
            state.set_node(node_id, pool=dst, state=NodeState.REPURPOSING)
            self.pinned_until[node_id] = self.ctx.now + self.params.cooldown_ms
            self.ctx.effect(
                op="pool_move", cluster=self.cluster_id, node=node_id,
                src=src.value, dst=dst.value,
            )
            self.ctx.at(
                self.ctx.now + self.params.provisioning_delay_ms,
                engine.REBALANCE_TICK,
                {
                    "phase": "node_ready",
                    "cluster": self.cluster_id,
                    "node": node_id,
                    "pool": dst.value,
                },
            )

    def on_node_ready(self, payload: dict) -> None:
        state = self.ctx.clusters[self.cluster_id]
        node = state.nodes()[payload["node"]]
        state.set_node(node.node_id, state=NodeState.READY)
        self.ctx.effect(
            op="node_ready", cluster=self.cluster_id, node=node.node_id, pool=node.pool.value
        )
        if node.pool is NodePool.CONTAINER:
            self.ctx.mark_freed(self.cluster_id)
            self.ctx.aggregates_changed(self.cluster_id)
        else:
            self.try_start()
