"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria 1-3 share a single randomized batch of >= 1000 protocol runs.
"""

from __future__ import annotations

import copy
import importlib.resources
import json
import random
import time
from contextlib import contextmanager

import pytest

from fedsched import engine
from fedsched.config import validate_config
from fedsched.federation import ChaperonState, ProxyState
from fedsched.graph import build_burst, build_central, build_decentralized
from fedsched.sim import Simulation

from conftest import base_config, fx_of, log_bytes, node_cfg, pod_cfg, pod_row, run_raw
from test_metascale import rebalance_raw
from test_scheduling import plain_choice

BUNDLED = importlib.resources.files("fedsched") / "data" / "expanse-nautilus.json"

N_RANDOM_RUNS = 1000
RANDOM_BATCH_BUDGET_S = 60.0

DELIVERY_KINDS = (
    engine.CHAPERON_CREATE,
    engine.CANDIDATE_REPORT,
    engine.DELEGATE_BIND,
    engine.CANDIDATE_DELETE,
    engine.STATUS_MIRROR,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({description}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({description}): PASS")


# --------------------------------------------------------------------------
# Shared randomized batch for criteria 1-3.
# --------------------------------------------------------------------------

def random_protocol_raw(rng):
    """2-5 clusters, 1-10 nodes each, 1-50 federated pods, random directed
    topology including self-edges and 2-cycles."""
    names = [f"c{i}" for i in range(rng.randint(2, 5))]
    clusters = []
    for name in names:
        nodes = [
            node_cfg(
                f"{name}-n{k}",
                cpu=rng.choice([4000, 8000, 16000]),
                mem=f"{rng.choice([8, 16, 32])}GiB",
                gpu=rng.choice([0, 0, 0, 2]),
            )
            for k in range(rng.randint(1, 10))
        ]
        clusters.append({"id": name, "nodes": nodes})
    pairs = []
    for s in names:
        for t in names:
            if s == t:
                if rng.random() < 0.5:
                    pairs.append((s, t))
            elif rng.random() < 0.4:
                pairs.append((s, t))
    pods = [
        pod_cfg(
            f"p{i}",
            rng.choice(names),
            cpu=rng.choice([1000, 2000, 4000, 8000]),
            mem=f"{rng.choice([1, 2, 4, 8])}GiB",
            gpu=rng.choice([0, 0, 0, 1]),
            submit=rng.randint(0, 30_000),
            duration=rng.randint(30_000, 300_000),
        )
        for i in range(rng.randint(1, 50))
    ]
    raw = base_config(
        clusters, pairs=pairs, pods=pods, duration="150s", jitter="5ms",
        seed=rng.randint(0, 2**32),
    )
    raw["federation"] = {}
    return raw


def overcommit_violations(sim):
    """Independent walker: replay binds/unbinds, compare against capacity."""
    capacity = {
        (cid, nid): node.capacity.as_tuple()
        for cid, state in sim.clusters.items()
        for nid, node in state.nodes().items()
    }
    usage = {key: [0, 0, 0] for key in capacity}
    bad = []
    for event in sim.events:
        for fx in fx_of(event):
            if fx["op"] == "bind":
                key = (fx["cluster"], fx["node"])
                for d in range(3):
                    usage[key][d] += fx["req"][d]
                if any(usage[key][d] > capacity[key][d] for d in range(3)):
                    bad.append((event.time, key, tuple(usage[key])))
            elif fx["op"] == "unbind":
                key = (fx["cluster"], fx["node"])
                for d in range(3):
                    usage[key][d] -= fx["req"][d]
    return bad


@pytest.fixture(scope="module")
def random_batch():
    rng = random.Random(20260808)
    results = {
        "runs": 0,
        "delegate_violations": [],
        "terminal_violations": [],
        "cleanup_violations": [],
        "overcommit_violations": [],
        "elapsed": 0.0,
    }
    started = time.monotonic()
    for run_index in range(N_RANDOM_RUNS):
        raw = random_protocol_raw(rng)
        sim, report = run_raw(raw)

        # From the log: each pod's delegate and bind counts, its proxy's
        # last state (None if it logged none) and last elected target, and
        # each chaperon's last state.
        delegate_entries = {}
        bind_counts = {}
        proxy_states = {}
        elected = {}
        chaperon_states = {}
        for event in sim.events:
            if event.kind == engine.POD_SUBMIT and event.payload["federated"]:
                proxy_states[event.payload["pod"]] = None
            for fx in fx_of(event):
                if fx["op"] == "chaperon":
                    chaperon_states[(fx["pod"], fx["cluster"])] = fx["state"]
                    if fx["state"] == "Delegate":
                        delegate_entries[fx["pod"]] = delegate_entries.get(fx["pod"], 0) + 1
                elif fx["op"] == "bind":
                    bind_counts[fx["pod"]] = bind_counts.get(fx["pod"], 0) + 1
                elif fx["op"] == "proxy":
                    proxy_states[fx["pod"]] = fx["state"]
                    if "elected" in fx:
                        elected[fx["pod"]] = fx["elected"]

        for pod_id, state in proxy_states.items():
            if state == ProxyState.BOUND.value:
                if delegate_entries.get(pod_id, 0) != 1 or bind_counts.get(pod_id, 0) != 1:
                    results["delegate_violations"].append((run_index, pod_id))
            elif state == ProxyState.UNSCHEDULABLE.value:
                if delegate_entries.get(pod_id, 0) != 0 or bind_counts.get(pod_id, 0) != 0:
                    results["delegate_violations"].append((run_index, pod_id))
            else:
                results["terminal_violations"].append((run_index, pod_id, state))

        for (pod_id, target), state in chaperon_states.items():
            if state == ChaperonState.DELEGATE.value:
                if elected.get(pod_id) != target:
                    results["cleanup_violations"].append((run_index, pod_id, target))
            elif state != ChaperonState.DELETED.value:
                results["cleanup_violations"].append((run_index, pod_id, target))
        for cid, state in sim.clusters.items():
            for node_id, holds in state.reserved.items():
                if holds:
                    results["cleanup_violations"].append((run_index, cid, node_id, dict(holds)))

        results["overcommit_violations"].extend(
            (run_index,) + v for v in overcommit_violations(sim)
        )
        results["runs"] += 1
    results["elapsed"] = time.monotonic() - started
    return results


def test_criterion_1_exactly_one_delegate(random_batch):
    with criterion(1, "exactly-one-delegate over randomized runs"):
        assert random_batch["runs"] >= 1000
        assert random_batch["terminal_violations"] == []
        assert random_batch["delegate_violations"] == []
        assert random_batch["elapsed"] < RANDOM_BATCH_BUDGET_S, (
            f"batch took {random_batch['elapsed']:.1f}s"
        )


def test_criterion_2_cleanup_completeness(random_batch):
    with criterion(2, "cleanup completeness in terminal states"):
        assert random_batch["cleanup_violations"] == []


def test_criterion_3_no_overcommit(random_batch):
    with criterion(3, "no per-node overcommit at any timestamp"):
        assert random_batch["overcommit_violations"] == []


# --------------------------------------------------------------------------
# Criterion 4: brute-force oracle equivalence on small instances.
# --------------------------------------------------------------------------

def oracle_score(free_after, capacity):
    fracs = [f / c for f, c in zip(free_after, capacity) if c > 0]
    return round(100 * sum(fracs) / len(fracs)) if fracs else 0


def small_instance(rng, n_clusters, max_nodes, n_pods):
    names = [f"c{i}" for i in range(n_clusters)]
    spec = {"clusters": {}, "pairs": [], "pods": []}
    for name in names:
        spec["clusters"][name] = [
            (
                f"{name}-n{k}",
                (rng.choice([2000, 4000, 8000]),
                 rng.choice([2, 4, 8]) * 1024**3,
                 rng.choice([0, 0, 2])),
            )
            for k in range(rng.randint(1, max_nodes))
        ]
    for s in names:
        for t in names:
            if rng.random() < 0.75:
                spec["pairs"].append((s, t))
    for i in range(n_pods):
        # Mostly schedulable requests, with occasional impossible ones so
        # the unschedulable verdict is exercised too.
        oversize = rng.random() < 0.1
        cpu = 16_000 if oversize else rng.choice([1000, 2000, 4000])
        mem = (16 if oversize else rng.choice([1, 2])) * 1024**3
        spec["pods"].append(
            {
                "id": f"p{i}",
                "source": rng.choice(names),
                "req": (cpu, mem, rng.choice([0, 0, 1])),
                "submit": i * 60_000,
            }
        )
    return spec


def run_small_instance(spec):
    clusters = [
        {"id": name,
         "nodes": [node_cfg(nid, cpu=cap[0], mem=cap[1], gpu=cap[2])
                   for nid, cap in nodes]}
        for name, nodes in spec["clusters"].items()
    ]
    pods = [
        pod_cfg(p["id"], p["source"], cpu=p["req"][0], mem=p["req"][1],
                gpu=p["req"][2], submit=p["submit"], duration="2h")
        for p in spec["pods"]
    ]
    raw = base_config(
        clusters, pairs=spec["pairs"], pods=pods, jitter="0ms",
        duration=f"{len(pods) * 60 + 60}s",
    )
    return run_raw(raw)


def oracle_expectations(spec, sim):
    """Replays the documented election rule from scratch.

    Enumerates every feasible (cluster, node) placement against shadow
    state rebuilt from earlier binds, scores clusters on aggregate
    least-allocated arithmetic, and applies the lexicographic tie-break.
    """
    targets_of = {}
    for s, t in spec["pairs"]:
        targets_of.setdefault(s, []).append(t)
    bind_times = {}
    for event in sim.events:
        for fx in fx_of(event):
            if fx["op"] == "bind":
                bind_times[fx["pod"]] = (event.time, fx["cluster"], fx["node"], fx["req"])
    expectations = {}
    for pod in spec["pods"]:
        shadow = {}
        for other in spec["pods"]:
            if other["id"] == pod["id"]:
                continue
            hit = bind_times.get(other["id"])
            if hit and hit[0] < pod["submit"]:
                shadow.setdefault((hit[1], hit[2]), [0, 0, 0])
                for d in range(3):
                    shadow[(hit[1], hit[2])][d] += hit[3][d]
        feasible = {}
        for target in sorted(targets_of.get(pod["source"], [])):
            nodes = []
            for node_id, cap in spec["clusters"][target]:
                free = [
                    cap[d] - shadow.get((target, node_id), [0, 0, 0])[d]
                    for d in range(3)
                ]
                if all(pod["req"][d] <= free[d] for d in range(3)):
                    after = [free[d] - pod["req"][d] for d in range(3)]
                    nodes.append((node_id, oracle_score(after, cap)))
            if nodes:
                feasible[target] = nodes
        if not feasible:
            expectations[pod["id"]] = None
            continue
        best_target, best_score = None, None
        for target in sorted(feasible):
            agg_cap = [0, 0, 0]
            agg_free = [0, 0, 0]
            for node_id, cap in spec["clusters"][target]:
                for d in range(3):
                    agg_cap[d] += cap[d]
                    agg_free[d] += cap[d] - shadow.get((target, node_id), [0, 0, 0])[d]
            after = [max(0, agg_free[d] - pod["req"][d]) for d in range(3)]
            score = oracle_score(after, agg_cap)
            if best_score is None or score > best_score:
                best_target, best_score = target, score
        node_scores = sorted(
            feasible[best_target], key=lambda item: (-item[1], item[0])
        )
        expectations[pod["id"]] = (best_target, node_scores[0][0])
    return expectations


def test_criterion_4_oracle_equivalence():
    with criterion(4, "election matches brute-force oracle"):
        rng = random.Random(41)
        checked = 0
        for n_clusters in (2, 3):
            for max_nodes in (1, 2, 3, 4):
                for n_pods in (1, 2, 3, 4, 5, 6):
                    for _ in range(2):
                        spec = small_instance(rng, n_clusters, max_nodes, n_pods)
                        sim, report = run_small_instance(spec)
                        expected = oracle_expectations(spec, sim)
                        for pod in spec["pods"]:
                            row = pod_row(report, pod["id"])
                            want = expected[pod["id"]]
                            if want is None:
                                assert row.final_phase == "Unschedulable", (
                                    spec, pod["id"], row
                                )
                            else:
                                assert (row.bound_cluster, row.bound_node) == want, (
                                    spec, pod["id"], row, want
                                )
                            checked += 1
        assert checked > 300


# --------------------------------------------------------------------------
# Criterion 5: determinism and seed sensitivity.
# --------------------------------------------------------------------------

def determinism_configs():
    rng = random.Random(5150)
    configs = []
    for index in range(20):
        names = [f"c{i}" for i in range(rng.randint(2, 4))]
        clusters = [
            {"id": name,
             "nodes": [node_cfg(f"{name}-n{k}", cpu=rng.choice([4000, 8000]))
                       for k in range(rng.randint(1, 4))]}
            for name in names
        ]
        pairs = [(s, t) for s in names for t in names
                 if s == t or rng.random() < 0.6]
        pods = [
            pod_cfg(f"p{i}", rng.choice(names), cpu=rng.choice([1000, 2000]),
                    mem="1GiB", submit=rng.randint(0, 20_000),
                    duration=rng.randint(20_000, 90_000))
            for i in range(rng.randint(10, 20))
        ]
        raw = base_config(clusters, pairs=pairs, pods=pods, duration="3m",
                          jitter="5ms")
        if index % 5 == 0:
            raw["metascale"] = {"enabled": True}
        configs.append(raw)
    return configs


def delivery_times(sim):
    return [(e.kind, e.time) for e in sim.events if e.kind in DELIVERY_KINDS]


def test_criterion_5_determinism():
    with criterion(5, "byte-identical replay; seed moves jittered times"):
        for index, raw in enumerate(determinism_configs()):
            seed = 1000 + index
            sim_a, _ = run_raw(copy.deepcopy(raw), seed=seed)
            sim_b, _ = run_raw(copy.deepcopy(raw), seed=seed)
            assert log_bytes(sim_a.events) == log_bytes(sim_b.events), (
                f"config {index} not reproducible"
            )
            sim_c, _ = run_raw(copy.deepcopy(raw), seed=seed + 1)
            assert delivery_times(sim_a) != delivery_times(sim_c), (
                f"config {index}: new seed left jitter-affected timestamps unchanged"
            )


# --------------------------------------------------------------------------
# Criterion 6: topology semantics.
# --------------------------------------------------------------------------

def test_criterion_6_topology_semantics():
    with criterion(6, "constructed topologies have declared edge sets"):
        for n_leaves in (0, 1, 3, 7):
            leaves = {f"l{i}" for i in range(n_leaves)}
            g = build_central("hub", leaves)
            assert len(g.targets_of("hub")) == n_leaves
            assert len(g.edges) == n_leaves
            for leaf in leaves:
                assert g.in_degree(leaf) == 1 and len(g.targets_of(leaf)) == 0
        assert len(build_burst("l", "c", self_target=False).edges) == 1
        assert len(build_burst("l", "c", self_target=True).edges) == 2
        for n in (2, 3, 5):
            names = [f"c{i}" for i in range(n)]
            pairs = [(a, b) for a in names for b in names if a != b]
            g = build_decentralized(names, pairs)
            assert len(g.edges) == n * (n - 1)
            for a in names:
                for b in names:
                    assert (b in g.targets_of(a)) == (a in g.sources_of(b))


# --------------------------------------------------------------------------
# Criterion 7: burst offloads only on local insufficiency.
# --------------------------------------------------------------------------

def burst_raw(local_nodes):
    clusters = [
        {"id": "local", "nodes": [node_cfg(f"l-n{i}", cpu=8000, mem="16GiB")
                                  for i in range(local_nodes)]},
        {"id": "cloud", "nodes": [node_cfg(f"c-n{i}", cpu=8000, mem="16GiB")
                                  for i in range(4)]},
    ]
    pods = [pod_cfg(f"p{i}", "local", cpu=3000, mem="2GiB", submit=i * 1000,
                    duration="20m") for i in range(6)]
    raw = base_config(
        clusters, kind="burst",
        topology_extra={"local": "local", "cloud": "cloud", "self_target": True},
        pods=pods, duration="10m", jitter="5ms",
    )
    raw["federation"] = {"election_policy": "prefer_local"}
    return raw


def test_criterion_7_burst_behavior():
    with criterion(7, "burst offloads exactly when local is insufficient"):
        _, ample = run_raw(burst_raw(local_nodes=3), seed=1)
        assert ample.offloads.get(("local", "cloud"), 0) == 0
        assert all(p.bound_cluster == "local" for p in ample.pods)
        _, squeezed = run_raw(burst_raw(local_nodes=1), seed=1)
        assert squeezed.offloads.get(("local", "cloud"), 0) > 0
        assert all(p.bind_time is not None for p in squeezed.pods)


# --------------------------------------------------------------------------
# Criterion 8: meta-scale safety under oscillating demand.
# --------------------------------------------------------------------------

def oscillating_raw(seed):
    rng = random.Random(seed)
    nodes = [node_cfg(f"m-b{i}", cpu=8000, pool="Batch") for i in range(3)]
    nodes += [node_cfg(f"m-c{i}", cpu=8000, pool="Container") for i in range(3)]
    jobs = [
        {"id": f"j{i}", "cluster": "m", "submit": i * 240_000,
         "node_count": rng.randint(2, 4), "duration": "45s"}
        for i in range(7)
    ]
    pods = [
        pod_cfg(f"w{i}", "m", cpu=8000, mem="1GiB", federated=False,
                submit=120_000 + i * 240_000, duration="45s")
        for i in range(7)
    ]
    raw = base_config([{"id": "m", "nodes": nodes}], edges=[], pods=pods,
                      duration="40m")
    raw["scenario"]["batch_jobs"] = jobs
    raw["metascale"] = {"enabled": True, "tick": "60s",
                        "provisioning_delay": "120s", "cooldown": "10m"}
    return raw


def test_criterion_8_metascale_safety():
    with criterion(8, "rebalancing never evicts; hysteresis bounds moves"):
        for seed in (1, 2, 3):
            sim, _ = run_raw(oscillating_raw(seed))
            bound = {}
            job_nodes = {}
            moves = {}
            move_count = 0
            for event in sim.events:
                for fx in fx_of(event):
                    if fx["op"] == "bind":
                        bound.setdefault(fx["node"], set()).add(fx["pod"])
                    elif fx["op"] == "unbind":
                        bound[fx["node"]].discard(fx["pod"])
                    elif fx["op"] == "job" and fx["state"] == "Running":
                        job_nodes[fx["job"]] = set(fx["nodes"])
                    elif fx["op"] == "job" and fx["state"] == "Done":
                        job_nodes.pop(fx["job"], None)
                    elif fx["op"] == "pool_move":
                        move_count += 1
                        assert not bound.get(fx["node"]), "moved a node running pods"
                        for nodes in job_nodes.values():
                            assert fx["node"] not in nodes, "moved a busy batch node"
                        moves.setdefault(fx["node"], []).append(event.time)
            assert move_count > 0, "oscillating trace caused no moves at all"
            assert len(sim.clusters["m"].nodes()) == 6, "node count not conserved"
            for node, times in moves.items():
                for earlier, later in zip(times, times[1:]):
                    assert later - earlier >= 600_000, (
                        f"{node} moved twice inside one cooldown window: {times}"
                    )


# --------------------------------------------------------------------------
# Criterion 9: wildfire closed loop on the bundled two-cluster config.
# --------------------------------------------------------------------------

def test_criterion_9_wildfire_closed_loop():
    with criterion(9, "3 high-confidence events -> 3 retrains + 24 sims"):
        raw = json.loads(BUNDLED.read_text())
        raw["scenario"]["cameras"] = 0
        raw["scenario"]["rate_per_hour"] = 0
        raw["scenario"]["trace"] = [
            ["cam-1", "60s", 0.97],
            ["cam-2", "30s", 0.42],       # below threshold: ignored
            ["cam-2", "45m", 0.95],
            ["cam-3", "80m", 0.10],       # below threshold: ignored
            ["cam-3", "90m", 0.93],
        ]
        raw["sim"]["seed"] = 7
        config = validate_config(raw)
        assert config.scenario.threshold == 0.9
        assert config.scenario.ensemble_size == 8
        sim = Simulation(config)
        report = sim.run()

        retrains = [p for p in report.pods if p.role == "retrain"]
        sims = [p for p in report.pods if p.role == "ensemble"]
        assert len(retrains) == 3
        assert len(sims) == 24
        for row in retrains:
            node = sim.clusters[row.bound_cluster].nodes()[row.bound_node]
            assert node.capacity.gpu_count > 0
            assert node.labels.get("accelerator") == "gpu"
        for row in sims:
            node = sim.clusters[row.bound_cluster].nodes()[row.bound_node]
            assert node.labels.get("memory") == "large"
        assert report.registry_version == 1 + 3
        assert sim.scenario.registry.current_version == 4


# --------------------------------------------------------------------------
# Criterion 10: namespace policy blocks delegates across all seeds.
# --------------------------------------------------------------------------

def policy_raw(seed):
    clusters = [
        {"id": "src", "nodes": [node_cfg("s-n1", cpu=100)]},
        {"id": "open", "nodes": [node_cfg("o-n1", cpu=16_000, mem="32GiB")]},
        # More attractive by every score, but the namespace is not admitted.
        {"id": "closed", "nodes": [node_cfg("c-n1", cpu=64_000, mem="256GiB")],
         "namespace_allowlist": ["something-else"]},
    ]
    pods = [pod_cfg(f"p{i}", "src", cpu=1000, mem="1GiB", ns="research",
                    submit=i * 1500, duration="20s") for i in range(5)]
    raw = base_config(clusters, pairs=[("src", "open"), ("src", "closed")],
                      pods=pods, duration="5m", jitter="5ms", seed=seed)
    return raw


def test_criterion_10_policy_respect():
    with criterion(10, "no delegate binds in a disallowing cluster"):
        for seed in range(20):
            sim, report = run_raw(policy_raw(seed))
            for event in sim.events:
                for fx in fx_of(event):
                    if fx["op"] in ("bind", "reserve"):
                        assert fx["cluster"] != "closed", (seed, fx)
            assert all(p.bound_cluster == "open" for p in report.pods)


# --------------------------------------------------------------------------
# Criterion 11: liveness. No pod waits in a cluster that could place it now.
# --------------------------------------------------------------------------

N_LIVENESS_RUNS = 150


def liveness_configs():
    """Random protocol runs, every other one without reservations and with
    about 30% of pods local-only, then the metascale configs, whose nodes
    come back Ready in either pool."""
    rng = random.Random(20261019)
    for index in range(N_LIVENESS_RUNS):
        raw = random_protocol_raw(rng)
        if index % 2:
            raw["federation"]["reservations"] = False
        for pod in raw["scenario"]["pods"]:
            if rng.random() < 0.3:
                pod["federated"] = False
        yield f"random-{index}", raw
    for seed in (1, 2, 3):
        yield f"oscillating-{seed}", oscillating_raw(seed)
    yield "rebalance", rebalance_raw()


def liveness_violations(raw):
    """(time, cluster, pod id) of each waiting pod or chaperon that could be
    placed at once, checked after every step by the plain loop over every
    node, which neither reads nor writes the scheduler's node order and
    ceilings."""
    sim = Simulation(validate_config(copy.deepcopy(raw)))
    queue, duration = sim.ctx.queue, sim.config.duration_ms
    violations = []
    while queue.due(duration):
        sim.step()
        for cluster_id, state in sim.clusters.items():
            pipeline = sim.ctx.pipelines[cluster_id]
            for pod in sim.pending_requests(cluster_id):
                if plain_choice(pod, state, pipeline) is not None:
                    violations.append((sim.ctx.now, cluster_id, pod.pod_id))
    return violations


def test_criterion_11_nothing_waits_that_fits():
    with criterion(11, "every step retries each cluster it freed"):
        violations = {}
        for name, raw in liveness_configs():
            found = liveness_violations(raw)
            if found:
                violations[name] = found[:3]
        assert violations == {}
