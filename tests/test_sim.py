"""Simulation loop behavior: determinism, replay, duration, burst offload."""

import enum
import gc
import os
import sys
import weakref

import pytest

from fedsched import engine
from fedsched.engine import EventQueue
from fedsched.errors import EmptyQueue
from fedsched.federation import ChaperonState, FederationProtocol
from fedsched.profiles import PROFILES
from fedsched.sim import Simulation
from fedsched.config import validate_config

from conftest import (
    base_config, fx_of, log_bytes, node_cfg, pod_cfg, push_every_row, run_raw, seeded,
)
from test_golden_log import CASES
from test_scenario import wildfire_raw


def test_a_run_builds_each_clusters_nodes_once(monkeypatch):
    # `Simulation()` reads the report's node capacities and pools from the
    # cluster specs it builds, so a run calls each cluster's profile once.
    calls = []
    for name, build in list(PROFILES.items()):
        def counted(cluster_id, *args, _build=build, **kwargs):
            calls.append(cluster_id)
            return _build(cluster_id, *args, **kwargs)
        monkeypatch.setitem(PROFILES, name, counted)
    raw, _ = CASES["bundled"]()
    Simulation(validate_config(raw)).run()
    assert sorted(calls) == ["expanse", "nautilus"]


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
    assert log_bytes(sim1.events) == log_bytes(sim2.events)
    sim3, _ = run_raw(raw, seed=6)
    assert log_bytes(sim1.events) != log_bytes(sim3.events)


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
        if not len(sim.ctx.queue):
            break
        sim.step()
    assert len(sim.ctx.queue) == 0


def test_every_event_kind_has_exactly_one_handler():
    own, protocol = set(Simulation._HANDLERS), set(FederationProtocol.HANDLERS)
    assert own | protocol == engine.EVENT_KINDS
    assert not own & protocol


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
    assert log_bytes(first.events) == log_bytes(second.events)


def test_no_event_processed_beyond_duration():
    clusters = [{"id": "a", "nodes": [node_cfg("a-n1")]},
                {"id": "b", "nodes": [node_cfg("b-n1")]}]
    raw = base_config(clusters, pairs=[("a", "b"), ("a", "a")],
                      pods=[pod_cfg("p", "a", duration="2h")], duration="90s")
    sim, _ = run_raw(raw)
    assert all(e.time <= 90_000 for e in sim.events)


# -- collector contract ---------------------------------------------------------
# `run` pauses the cyclic collector and restores the caller's state; a
# simulation, run or only stepped, must be freed by reference counting alone.


def _small_raw():
    return base_config([{"id": "a", "nodes": [node_cfg("a-n1")]}],
                       pods=[pod_cfg("p", "a", federated=False)], duration="5m")


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_collector_as_it_found_it(enabled, monkeypatch):
    def boom(self, *args):
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
    sim = Simulation(validate_config(seeded(raw, seed)))
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_stepped_simulation_is_freed_by_reference_counting(name):
    # No layer holds the Simulation, so dropping one that was stepped but
    # never run leaves nothing for the collector, and a layer kept past it
    # still answers.
    raw, seed = CASES[name]()
    collecting = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        sim = Simulation(validate_config(seeded(raw, seed)))
        for _ in range(200):
            if not len(sim.ctx.queue):
                break
            sim.step()
        protocol, events = sim.protocol, sim.events
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()
    protocol.report_changes()
    # Each chaperon in creation order and its last state, as the log tells.
    last = {}
    for event in events:
        for fx in fx_of(event):
            if fx["op"] == "chaperon":
                last[(fx["pod"], fx["cluster"])] = fx["state"]
    for target in protocol.ctx.clusters:
        assert [chaperon.proxy.pod.pod_id for chaperon in protocol.pending_in(target)] == [
            pod_id for (pod_id, cluster), state in last.items()
            if cluster == target and state == ChaperonState.PENDING_SCHEDULE.value
        ]


def test_finished_simulation_still_answers_queries():
    # Cut short while chaperons still wait in both targets.
    raw, seed = CASES["mesh-overload"]()
    raw["sim"]["duration"] = "5m"
    sim = Simulation(validate_config(seeded(raw, seed)))
    sim.run()
    assert sim.protocol.ctx.clusters is sim.clusters
    for target in ("a", "b"):
        waiting = [chaperon.proxy.pod for chaperon in sim.protocol.pending_in(target)]
        assert waiting
        assert sim.pending_requests(target) == sim.pending_local[target] + waiting
    for vnode in sim.protocol.virtual_nodes.values():
        assert vnode.staleness(sim.ctx.now) == sim.ctx.now - vnode.last_update


# -- the per-event hot path -------------------------------------------------------
# A step reads enum members by identity and their `_value_`, the plain
# attribute behind Enum's `.value` property, never through that property
# (two Python calls per read), `__hash__` or the constructor. Set-up
# outside `step`, such as config parsing, may call them.


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_enum_function_runs_inside_a_step(name):
    raw, seed = CASES[name]()
    sim = Simulation(validate_config(seeded(raw, seed)))
    calls = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == enum.__file__:
            caller = frame.f_back
            calls.add(f"{frame.f_code.co_name} from {os.path.basename(caller.f_code.co_filename)}"
                      f":{caller.f_lineno}")

    queue, steps = sim.ctx.queue, 0
    while queue.due(sim.config.duration_ms):
        sys.setprofile(profile)
        try:
            sim.step()
        finally:
            sys.setprofile(None)
        steps += 1
    assert steps == len(sim.events) > 0
    assert not calls, sorted(calls)


# Each handler records an effect by calling `ctx.effect`, the `append` of the
# run's effect buffer, set once: a C method, so recording runs no Python
# frame. `step` moves what the buffer holds onto the event as a tuple and
# leaves the buffer empty.


@pytest.mark.parametrize("name", sorted(CASES))
def test_recording_an_effect_is_one_c_append(name):
    raw, seed = CASES[name]()
    sim = Simulation(validate_config(seeded(raw, seed)))
    ctx, appends = sim.ctx, []
    append = ctx.effect
    assert type(append).__name__ == "builtin_function_or_method"
    buffer = append.__self__
    assert type(buffer) is list

    def profile(frame, event, arg):
        if event == "c_call" and arg is append:
            appends[-1] += 1

    recorded = 0
    while ctx.queue.due(sim.config.duration_ms):
        appends.append(0)
        sys.setprofile(profile)
        try:
            event = sim.step()
        finally:
            sys.setprofile(None)
        assert ctx.effect is append and buffer == []
        assert type(event.effects) is tuple
        assert appends[-1] == len(event.effects)
        recorded += len(event.effects)
    assert recorded > 0


def test_a_raising_step_leaks_no_effect_into_the_next_event(monkeypatch):
    raw = base_config([{"id": "a", "nodes": [node_cfg("a-n1")]}],
                      pods=[pod_cfg("p1", "a", federated=False),
                            pod_cfg("p2", "a", federated=False, submit=1000)])
    sim = Simulation(validate_config(raw))
    submit = Simulation._HANDLERS[engine.POD_SUBMIT]

    def record_then_raise(self, *args):
        if args[0] == "p1":
            self.ctx.effect(("unschedulable", "p1"))
            raise RuntimeError("handler failed")
        submit(self, *args)

    monkeypatch.setitem(Simulation._HANDLERS, engine.POD_SUBMIT, record_then_raise)
    with pytest.raises(RuntimeError, match="handler failed"):
        sim.step()
    assert sim.ctx.effect.__self__ == [] and sim.events == []
    event = sim.step()
    assert event.payload["pod"] == "p2"
    assert [(fx["op"], fx["pod"]) for fx in fx_of(event)] == [("bind", "p2")]


# -- the trace stream against a plain heap ---------------------------------------
# `_schedule_initial` hands the camera trace to the queue's stream, which
# builds each row's event only when the row before it pops. Its naive twin
# pushes every row at set-up; both must write the same log.


def _merged_trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("cam-2, 10s, 0.97\ncam-1, 40s, 0.3\ncam-3, 10s, 0.95\n")
    raw = wildfire_raw(trace=[["cam-1", "10s", 0.92], ["cam-4", "40s", 0.99]], ensemble=2)
    raw["scenario"]["trace_file"] = str(path)
    return raw, 3


def _ties_at_the_first_tick(tmp_path):
    # Trace rows at the millisecond of a pod submit, a batch job and the
    # first rebalance tick, so the order among them is the seqs' alone.
    raw = wildfire_raw(
        trace=[["cam-1", "0s", 0.95], ["cam-2", "60s", 0.99], ["cam-1", "60s", 0.2],
               ["cam-3", "60s", 0.93], ["cam-2", "3m", 0.97]],
        ensemble=2,
    )
    raw["topology"]["clusters"][0]["nodes"].append(node_cfg("h-b1", pool="Batch"))
    raw["scenario"]["pods"] = [pod_cfg("p1", "hub", submit=60_000, federated=False)]
    raw["scenario"]["batch_jobs"] = [
        {"id": "j1", "cluster": "hub", "submit": "60s", "node_count": 1, "duration": "5m"}
    ]
    raw["metascale"] = {"enabled": True, "tick": "60s"}
    return raw, 5


def _duplicate_rows(tmp_path):
    trace = [["cam-1", "10s", 0.95], ["cam-1", "10s", 0.2], ["cam-1", "10s", 0.97],
             ["cam-2", "10s", 0.91], ["cam-1", "10s", 0.99]]
    return wildfire_raw(trace=trace, ensemble=1, cooldown="5s"), 11


def _empty_trace(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("# camera_id, time, probability\n")
    raw = wildfire_raw(trace=[], ensemble=1)
    raw["scenario"]["trace_file"] = str(path)
    raw["scenario"]["pods"] = [pod_cfg("p1", "hub", submit=5_000, federated=False)]
    return raw, None


TWIN_CASES = {
    "bundled": lambda tmp_path: CASES["bundled"](),
    "bundled-trace-seed7": lambda tmp_path: CASES["bundled-trace-seed7"](),
    "merged-trace-file": _merged_trace_file,
    "ties-at-the-first-tick": _ties_at_the_first_tick,
    "duplicate-rows": _duplicate_rows,
    "empty-trace": _empty_trace,
}


def streamed_and_plain(monkeypatch, raw, seed):
    """`raw` run twice: with the trace streamed, and with every row pushed
    at set-up."""
    config = validate_config(seeded(raw, seed))
    streamed = Simulation(config)
    streamed.run()
    with monkeypatch.context() as patch:
        patch.setattr(EventQueue, "stream", push_every_row)
        plain = Simulation(config)
        plain.run()
    return streamed, plain


@pytest.mark.parametrize("name", sorted(TWIN_CASES))
def test_streamed_trace_logs_as_a_plain_heap(name, monkeypatch, tmp_path):
    raw, seed = TWIN_CASES[name](tmp_path)
    streamed, plain = streamed_and_plain(monkeypatch, raw, seed)
    assert log_bytes(streamed.events) == log_bytes(plain.events)
    rows = [e for e in streamed.events if e.kind == engine.SENSOR_MESSAGE]
    assert (rows == []) == (name == "empty-trace")
    if name == "ties-at-the-first-tick":
        assert {e.kind for e in streamed.events if e.time == 60_000} >= {
            engine.POD_SUBMIT, engine.BATCH_JOB_SUBMIT, engine.REBALANCE_TICK,
            engine.SENSOR_MESSAGE,
        }


def test_twin_catches_trace_seqs_taken_after_the_ticks(monkeypatch, tmp_path):
    # A stream handed over after the ticks takes later seqs than the rows
    # would have taken when pushed in their place.
    handed = []
    stream, schedule_initial = EventQueue.stream, Simulation._schedule_initial

    def stream_later(queue, *args):
        handed.append((queue, args))

    def schedule_then_stream(sim):
        schedule_initial(sim)
        for queue, args in handed:
            stream(queue, *args)
        handed.clear()

    raw, seed = _ties_at_the_first_tick(tmp_path)
    monkeypatch.setattr(EventQueue, "stream", stream_later)
    monkeypatch.setattr(Simulation, "_schedule_initial", schedule_then_stream)
    mutant = Simulation(validate_config(seeded(raw, seed)))
    mutant.run()
    monkeypatch.undo()
    _, plain = streamed_and_plain(monkeypatch, raw, seed)
    assert log_bytes(mutant.events) != log_bytes(plain.events)


def test_set_up_leaves_one_trace_row_in_the_heap():
    raw, seed = CASES["bundled"]()
    sim = Simulation(validate_config(seeded(raw, seed)))
    queue = sim.ctx.queue
    kinds = [event.kind for _, _, event in queue._heap]
    assert kinds.count(engine.SENSOR_MESSAGE) == 1
    queued = len(queue)
    sim.run()
    # Every row of the generated trace is due within the run.
    rows = sum(1 for event in sim.events if event.kind == engine.SENSOR_MESSAGE)
    assert rows > 1
    assert queued == len(kinds) + rows - 1
