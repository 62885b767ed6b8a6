"""Simulation loop behavior: determinism, replay, duration, burst offload."""

import gc

import pytest

from fedsched import engine
from fedsched.errors import EmptyQueue
from fedsched.metrics import serialize_event
from fedsched.sim import Simulation
from fedsched.config import validate_config

from conftest import base_config, node_cfg, pod_cfg, run_raw
from test_golden_log import CASES


def log_bytes(sim):
    return "\n".join(serialize_event(e) for e in sim.events).encode()


def test_empty_scenario_has_only_tick_events(two_cluster_raw):
    # Nothing changes, so no target reports; with metascale off, no timer runs.
    sim, report = run_raw(two_cluster_raw)
    assert sim.events == []
    two_cluster_raw["metascale"] = {"enabled": True}
    sim, report = run_raw(two_cluster_raw)
    assert {e.kind for e in sim.events} == {engine.REBALANCE_TICK}
    assert report.pods == []


def test_same_seed_twice_is_byte_identical():
    clusters = [
        {"id": "a", "nodes": [node_cfg("a-n1"), node_cfg("a-n2")]},
        {"id": "b", "nodes": [node_cfg("b-n1")]},
    ]
    pods = [pod_cfg(f"p{i}", "a", cpu=2000, submit=i * 500, duration="20s")
            for i in range(10)]
    raw = base_config(clusters, pairs=[("a", "a"), ("a", "b")], pods=pods,
                      jitter="5ms", duration="3m")
    sim1, _ = run_raw(raw, seed=5)
    sim2, _ = run_raw(raw, seed=5)
    assert log_bytes(sim1) == log_bytes(sim2)
    sim3, _ = run_raw(raw, seed=6)
    assert log_bytes(sim1) != log_bytes(sim3)


def test_burst_with_sufficient_local_capacity_never_offloads():
    clusters = [
        {"id": "local", "nodes": [node_cfg(f"l-n{i}", cpu=8000) for i in range(3)]},
        {"id": "cloud", "nodes": [node_cfg(f"c-n{i}", cpu=8000) for i in range(3)]},
    ]
    pods = [pod_cfg(f"p{i}", "local", cpu=3000, mem="1GiB", submit=i * 1000,
                    duration="30m") for i in range(6)]
    raw = base_config(clusters, kind="burst",
                      topology_extra={"local": "local", "cloud": "cloud",
                                      "self_target": True},
                      pods=pods, duration="10m")
    raw["federation"] = {"election_policy": "prefer_local"}
    _, report = run_raw(raw)
    assert all(p.bound_cluster == "local" for p in report.pods)
    assert report.offloads.get(("local", "cloud"), 0) == 0
    assert report.offloads[("local", "local")] == 6


def test_burst_with_empty_cloud_feasibility_equals_standalone():
    # A burst graph whose cloud has no usable capacity must bind exactly the
    # pods a standalone single-cluster run binds.
    local_nodes = [node_cfg("l-n1", cpu=8000)]
    pods = [pod_cfg(f"p{i}", "local", cpu=3000, mem="1GiB", duration="1h")
            for i in range(4)]

    burst = base_config(
        [{"id": "local", "nodes": local_nodes},
         {"id": "cloud", "nodes": [node_cfg("c-n1", cpu=1, mem="1MiB")]}],
        kind="burst",
        topology_extra={"local": "local", "cloud": "cloud", "self_target": True},
        pods=pods, duration="10m",
    )
    burst["federation"] = {"election_policy": "prefer_local"}
    standalone = base_config(
        [{"id": "local", "nodes": local_nodes}],
        pairs=[("local", "local")], pods=pods, duration="10m",
    )
    _, burst_report = run_raw(burst)
    _, alone_report = run_raw(standalone)
    burst_bound = {p.pod_id for p in burst_report.pods if p.bind_time is not None}
    alone_bound = {p.pod_id for p in alone_report.pods if p.bind_time is not None}
    assert burst_bound == alone_bound
    assert len(burst_bound) == 2  # 2 x 3000 mCPU fit on one 8000 mCPU node


def test_run_with_edges_drains_before_an_endless_duration():
    # Nothing re-arms itself once the pods are done, so a duration of 400
    # digits still ends when the queue drains.
    clusters = [{"id": "a", "nodes": [node_cfg("a-n1")]},
                {"id": "b", "nodes": [node_cfg("b-n1")]}]
    pods = [pod_cfg(f"p{i}", "ab"[i % 2], submit=i * 1000, duration="30s") for i in range(4)]
    raw = base_config(clusters, pairs=[("a", "b"), ("b", "a"), ("a", "a")], pods=pods,
                      jitter="5ms")
    raw["sim"]["duration"] = int("9" * 400)
    sim = Simulation(validate_config(raw))
    for _ in range(10_000):
        if not len(sim.queue):
            break
        sim.step()
    assert len(sim.queue) == 0


def test_every_event_kind_has_exactly_one_handler():
    assert set(Simulation._HANDLERS) == engine.EVENT_KINDS


def test_step_on_drained_queue_raises():
    raw = base_config([{"id": "a", "nodes": [node_cfg("n1")]}], duration="1m")
    sim = Simulation(validate_config(raw))
    sim.run()
    with pytest.raises(EmptyQueue):
        while True:
            sim.step()


def test_one_runconfig_supports_repeated_simulations():
    # A RunConfig must be reusable: simulations own their mutable state.
    clusters = [{"id": "a", "nodes": [
        node_cfg("a-b1", cpu=8000, pool="Batch"),
        node_cfg("a-c1", cpu=8000),
    ]}]
    raw = base_config(clusters, edges=[],
                      pods=[pod_cfg("p", "a", federated=False, duration="20s")],
                      duration="5m")
    raw["scenario"]["batch_jobs"] = [
        {"id": "j1", "cluster": "a", "submit": 0, "node_count": 1, "duration": "30s"}
    ]
    raw["metascale"] = {"enabled": True}
    config = validate_config(raw)
    first = Simulation(config)
    first.run()
    second = Simulation(config)
    second.run()
    assert log_bytes(first) == log_bytes(second)


def test_no_event_processed_beyond_duration():
    clusters = [{"id": "a", "nodes": [node_cfg("a-n1")]},
                {"id": "b", "nodes": [node_cfg("b-n1")]}]
    raw = base_config(clusters, pairs=[("a", "b"), ("a", "a")],
                      pods=[pod_cfg("p", "a", duration="2h")], duration="90s")
    sim, _ = run_raw(raw)
    assert all(e.time <= 90_000 for e in sim.events)


# -- collector contract ---------------------------------------------------------
# `run` pauses the cyclic collector and restores the caller's state; a
# finished simulation must then be freed by reference counting alone.


def _small_raw():
    return base_config([{"id": "a", "nodes": [node_cfg("a-n1")]}],
                       pods=[pod_cfg("p", "a", federated=False)], duration="5m")


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_collector_as_it_found_it(enabled, monkeypatch):
    def boom(self, payload):
        raise RuntimeError("handler failed")

    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        sim = Simulation(validate_config(_small_raw()))
        sim.run()
        assert gc.isenabled() is enabled
        monkeypatch.setitem(Simulation._HANDLERS, engine.POD_SUBMIT, boom)
        with pytest.raises(RuntimeError, match="handler failed"):
            Simulation(validate_config(_small_raw())).run()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_run_keeps_objects_the_caller_froze_frozen():
    gc.freeze()
    try:
        sim = Simulation(validate_config(_small_raw()))
        frozen = gc.get_freeze_count()
        assert frozen > 0
        sim.run()
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("name", sorted(CASES))
def test_finished_run_leaves_no_cyclic_garbage(name):
    raw, seed = CASES[name]()
    gc.collect()
    sim = Simulation(validate_config(raw, base_seed=seed))
    sim.run()
    assert gc.collect() == 0
    del sim
    assert gc.collect() == 0


def test_back_to_back_runs_do_not_grow_the_heap():
    raw, _ = CASES["bundled"]()
    counts = []
    for _ in range(6):
        sim = Simulation(validate_config(raw))
        sim.run()
        del sim
        counts.append(len(gc.get_objects()))
    assert counts[-1] <= counts[1], counts


def test_finished_simulation_still_answers_queries():
    # Cut short while chaperons still wait in both targets.
    raw, seed = CASES["mesh-overload"]()
    raw["sim"]["duration"] = "5m"
    sim = Simulation(validate_config(raw, base_seed=seed))
    sim.run()
    assert sim.protocol.ctx.clusters is sim.clusters
    for target in ("a", "b"):
        waiting = [chaperon.pod for chaperon in sim.protocol.pending_in(target)]
        assert waiting
        assert sim.pending_requests(target) == sim.pending_local[target] + waiting
    for vnode in sim.protocol.virtual_nodes.values():
        assert vnode.staleness(sim.now) == sim.now - vnode.last_update
