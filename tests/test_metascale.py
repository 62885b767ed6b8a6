"""Batch FIFO and pool-rebalancing behavior."""

import copy

from fedsched.cluster import NodePool, NodeState
from fedsched.config import validate_config
from fedsched.resources import ResourceVector
from fedsched.sim import Simulation

from conftest import base_config, node_cfg, pod_cfg, run_raw


def batch_cluster(n_batch=2, n_container=1, cpu=8000, container_cpu=None):
    nodes = [
        node_cfg(f"c-b{i}", cpu=cpu, pool="Batch") for i in range(1, n_batch + 1)
    ] + [
        node_cfg(f"c-c{i}", cpu=container_cpu or cpu, pool="Container")
        for i in range(1, n_container + 1)
    ]
    return {"id": "c", "nodes": nodes}


def job_cfg(job_id, nodes, submit=0, duration="10m"):
    return {"id": job_id, "cluster": "c", "submit": submit,
            "node_count": nodes, "duration": duration}


def metascale_raw(jobs=(), pods=(), duration="30m", **params):
    raw = base_config([batch_cluster()], edges=[], pods=pods, duration=duration)
    raw["scenario"]["batch_jobs"] = list(jobs)
    raw["metascale"] = {"enabled": True, **params}
    return raw


def job_effects(sim):
    out = []
    for e in sim.events:
        for fx in e.effects:
            if fx["op"] == "job":
                out.append((e.time, fx))
    return out


def moves_of(sim):
    return [
        (e.time, fx)
        for e in sim.events
        for fx in e.effects
        if fx["op"] == "pool_move"
    ]


class TestBatchFifo:
    def test_job_starts_immediately_with_enough_idle_nodes(self):
        raw = metascale_raw(jobs=[job_cfg("j1", 2, duration="5m")])
        sim, _ = run_raw(raw)
        states = [(t, fx["job"], fx["state"]) for t, fx in job_effects(sim)]
        assert (0, "j1", "Queued") in states
        assert (0, "j1", "Running") in states
        assert (300_000, "j1", "Done") in states

    def test_head_blocks_queue_no_backfill(self):
        # Head needs more nodes than exist idle; the 1-node job behind it
        # must wait even though it would fit right now.
        raw = metascale_raw(
            jobs=[
                job_cfg("big", 2, submit=0, duration="4m"),
                job_cfg("huge", 4, submit=1000, duration="1m"),
                job_cfg("tiny", 1, submit=2000, duration="1m"),
            ],
            duration="40m",
            # Give the rebalancer nothing to do: no container demand.
        )
        sim, _ = run_raw(raw)
        runs = {fx["job"]: t for t, fx in job_effects(sim) if fx["state"] == "Running"}
        assert runs["big"] == 0
        # Only 3 nodes exist, so 'huge' can never start; 'tiny' would fit
        # immediately but must not jump the queue.
        assert "huge" not in runs
        assert "tiny" not in runs

    def test_completion_frees_nodes_at_submit_plus_wait_plus_duration(self):
        raw = metascale_raw(
            jobs=[job_cfg("j1", 2, submit=0, duration="3m"),
                  job_cfg("j2", 2, submit=1000, duration="2m")],
            duration="20m",
        )
        sim, _ = run_raw(raw)
        states = {(fx["job"], fx["state"]): t for t, fx in job_effects(sim)}
        assert states[("j1", "Done")] == 180_000
        # j2 waited for j1's nodes: start == j1 completion, done 2m later.
        assert states[("j2", "Running")] == 180_000
        assert states[("j2", "Done")] == 300_000


class TestRebalance:
    def test_batch_to_container_under_container_pressure(self):
        # Two idle batch nodes, container demand for two more nodes, empty
        # batch queue: both batch nodes move after the provisioning delay.
        pods = [
            pod_cfg(f"p{i}", "c", cpu=8000, mem="1GiB", federated=False,
                    submit=0, duration="5m")
            for i in range(1, 4)
        ]
        raw = metascale_raw(pods=pods, tick="60s", provisioning_delay="120s")
        raw["topology"]["clusters"] = [batch_cluster(n_batch=2, n_container=1)]
        sim, report = run_raw(raw)
        moves = moves_of(sim)
        assert [t for t, _ in moves] == [60_000, 60_000]
        assert all(fx["src"] == "Batch" and fx["dst"] == "Container" for _, fx in moves)
        ready = [
            (e.time, fx) for e in sim.events for fx in e.effects
            if fx["op"] == "node_ready"
        ]
        assert [t for t, _ in ready] == [180_000, 180_000]
        # The stranded pods bind once the nodes are Ready in the new pool.
        late_binds = [p for p in report.pods if p.bind_time and p.bind_time >= 180_000]
        assert len(late_binds) == 2

    def test_zero_demand_means_no_reassignment(self):
        raw = metascale_raw()
        sim, _ = run_raw(raw)
        assert moves_of(sim) == []

    def test_container_to_batch_under_batch_pressure(self):
        raw = metascale_raw(jobs=[job_cfg("j1", 3, duration="2m")], duration="20m")
        sim, _ = run_raw(raw)
        moves = moves_of(sim)
        assert len(moves) == 1
        assert moves[0][1]["src"] == "Container" and moves[0][1]["dst"] == "Batch"
        runs = {fx["job"]: t for t, fx in job_effects(sim) if fx["state"] == "Running"}
        assert runs["j1"] == 180_000  # tick at 60s + 120s provisioning

    def test_pool_minimums_never_violated(self):
        pods = [
            pod_cfg(f"p{i}", "c", cpu=8000, mem="1GiB", federated=False,
                    submit=0, duration="10m")
            for i in range(1, 6)
        ]
        raw = metascale_raw(pods=pods, min_batch_nodes=1)
        sim, _ = run_raw(raw)
        state = sim.clusters["c"]
        batch_nodes = [
            n for n in state.nodes().values() if n.pool is NodePool.BATCH
        ]
        assert len(batch_nodes) >= 1
        assert len(moves_of(sim)) == 1  # only one of the two batch nodes left

    def test_moves_never_interrupt_work_and_conserve_nodes(self):
        pods = [
            pod_cfg("p1", "c", cpu=8000, mem="1GiB", federated=False,
                    submit=0, duration="9m"),
            pod_cfg("p2", "c", cpu=8000, mem="1GiB", federated=False,
                    submit=1000, duration="9m"),
        ]
        raw = metascale_raw(
            jobs=[job_cfg("j1", 1, submit=0, duration="8m")], pods=pods,
            duration="30m",
        )
        sim, _ = run_raw(raw)
        # Replay occupancy from the log and check each move hit an idle node.
        bound = {}
        job_nodes = {}
        for e in sim.events:
            for fx in e.effects:
                if fx["op"] == "bind":
                    bound.setdefault((fx["cluster"], fx["node"]), set()).add(fx["pod"])
                elif fx["op"] == "unbind":
                    bound[(fx["cluster"], fx["node"])].discard(fx["pod"])
                elif fx["op"] == "job" and fx["state"] == "Running":
                    job_nodes[fx["job"]] = set(fx["nodes"])
                elif fx["op"] == "job" and fx["state"] == "Done":
                    job_nodes.pop(fx["job"], None)
                elif fx["op"] == "pool_move":
                    key = (fx["cluster"], fx["node"])
                    assert not bound.get(key), f"moved a node with bound pods: {fx}"
                    for nodes in job_nodes.values():
                        assert fx["node"] not in nodes, f"moved a busy batch node: {fx}"
        assert len(sim.clusters["c"].nodes()) == 3  # conserved

    def test_hysteresis_limits_transitions_per_cooldown_window(self):
        # Demand oscillates every two minutes; without pinning, nodes would
        # flap on most ticks. With the cooldown, consecutive moves of one
        # node are at least a cooldown apart.
        jobs = [job_cfg(f"j{i}", 3, submit=i * 240_000, duration="30s")
                for i in range(6)]
        pods = [
            pod_cfg(f"p{i}", "c", cpu=8000, mem="1GiB", federated=False,
                    submit=120_000 + i * 240_000, duration="30s")
            for i in range(6)
        ]
        raw = metascale_raw(jobs=jobs, pods=pods, duration="30m",
                            cooldown="10m", tick="60s")
        raw["topology"]["clusters"] = [batch_cluster(n_batch=2, n_container=2)]
        sim, _ = run_raw(raw)
        moves = moves_of(sim)
        assert moves, "oscillating demand should cause at least one move"
        per_node = {}
        for t, fx in moves:
            per_node.setdefault(fx["node"], []).append(t)
        for node, times in per_node.items():
            for earlier, later in zip(times, times[1:]):
                assert later - earlier >= 600_000, (
                    f"{node} moved twice within the cooldown window: {times}"
                )


class TestAggregatesUnderRebalance:
    def test_aggregates_equal_scratch_sums_after_every_step(self):
        # Demand alternates between batch jobs and container pods, so nodes
        # move both ways and come back Ready. After every event, each
        # cluster's maintained aggregates must equal sums over its nodes.
        jobs = [job_cfg(f"j{i}", 3, submit=i * 240_000, duration="30s")
                for i in range(6)]
        pods = [
            pod_cfg(f"p{i}-{k}", "c", cpu=4000, mem="1GiB", federated=False,
                    submit=120_000 + i * 240_000, duration="90s")
            for i in range(6) for k in range(3)
        ]
        raw = metascale_raw(jobs=jobs, pods=pods, duration="30m",
                            cooldown="3m", tick="60s")
        raw["topology"]["clusters"] = [batch_cluster(n_batch=2, n_container=2)]
        sim = Simulation(validate_config(copy.deepcopy(raw)))
        ops = set()
        while len(sim.queue) and sim.queue.peek_time() <= sim.config.duration_ms:
            event = sim.step()
            ops.update((fx["op"], fx.get("dst") or fx.get("pool"))
                       for fx in event.effects if fx["op"] in ("pool_move", "node_ready"))
            for state in sim.clusters.values():
                capacity = ResourceVector.zero()
                free = ResourceVector.zero()
                for node_id, node in state.nodes().items():
                    if node.pool is NodePool.CONTAINER and node.state is NodeState.READY:
                        capacity = capacity + node.capacity
                        free = free + node.capacity.subtract(
                            sum(state.bound[node_id].values(), ResourceVector.zero())
                        )
                assert state.aggregate_capacity() == capacity, (event.time, event.kind)
                assert state.aggregate_allocatable() == free, (event.time, event.kind)
        assert ops >= {("pool_move", "Batch"), ("pool_move", "Container"),
                       ("node_ready", "Batch"), ("node_ready", "Container")}, ops
