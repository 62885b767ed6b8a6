"""Seeded workload generators for the run benchmark.

`generate(name, seed)` returns the config dict that fedsched receives; the
simulator never sees the workload seed except as `sim.seed`. The same name
and seed always give the same dict, byte for byte once serialised.

Pod shapes are drawn as a fixed multiset that the seed only shuffles, and
submit times are one per equal slot with a seeded offset inside the slot.
So every seed offers the same total load in the same window, and run-to-run
differences between seeds come from ordering, not from how much work there
is. That keeps the host-time medians comparable across seeds.
"""

from __future__ import annotations

import json
import os
import random

MINUTE_MS = 60_000

WORKLOADS = ("fed-mesh-overload", "local-wide", "wildfire-metascale")

# Why each workload exists, in one line; printed by run.py and the doc.
WHY = {
    "fed-mesh-overload": "meshed federation past capacity, so chaperons queue and retry_pending dominates",
    "local-wide": "wide clusters and no edges: per-node accounting and scheduling, federation idle",
    "wildfire-metascale": "bundled wildfire config with metascale: elections, timeouts, heartbeats, writers",
}

# 0.5-4 cores, 1-8 GiB, 1-20 min, as in the ladder of ROADMAP.md.
# Workload sizes keep one run near 2-3 s on a 2-core host, so that a
# 30-second measurement holds about ten runs and their median is steady.
CPU_LEVELS = tuple(range(500, 4001, 500))
MEMORY_GIB_LEVELS = tuple(range(1, 9))
DURATION_MIN_LEVELS = tuple(range(1, 21))

BUNDLED_CONFIG = os.path.join("src", "fedsched", "data", "expanse-nautilus.json")


def _stratified(rng: random.Random, levels, count: int) -> list:
    values = [levels[i % len(levels)] for i in range(count)]
    rng.shuffle(values)
    return values


def _slot_times(rng: random.Random, count: int, window_ms: int) -> list:
    return [int((i + rng.random()) * window_ms / count) for i in range(count)]


def _pods(rng: random.Random, count: int, clusters: list, window_ms: int, federated: bool) -> list:
    cpus = _stratified(rng, CPU_LEVELS, count)
    mems = _stratified(rng, MEMORY_GIB_LEVELS, count)
    durations = _stratified(rng, DURATION_MIN_LEVELS, count)
    sources = _stratified(rng, clusters, count)
    submits = _slot_times(rng, count, window_ms)
    return [
        {
            "id": f"p{i:05d}",
            "cluster": sources[i],
            "submit": submits[i],
            "duration": durations[i] * MINUTE_MS,
            "cpu": cpus[i],
            "memory": f"{mems[i]}GiB",
            "federated": federated,
        }
        for i in range(count)
    ]


def _two_clusters(nodes: int) -> list:
    return [
        {
            "id": f"c{c}",
            "nodes": [
                {"id": f"c{c}-n{k:02d}", "cpu": 32_000, "memory": "128GiB"}
                for k in range(nodes)
            ],
        }
        for c in range(2)
    ]


def fed_mesh_overload(seed: int, pods: int = 600, window_min: int = 20) -> dict:
    """Two fully meshed 10-node clusters with self-edges. At 30 pods a minute
    the offered load passes capacity after about ten minutes, so chaperons
    queue and every freed resource triggers a retry scan."""
    rng = random.Random(f"fed-mesh-overload/{seed}")
    cluster_cfg = _two_clusters(10)
    ids = [c["id"] for c in cluster_cfg]
    return {
        "sim": {"seed": seed, "duration": "1h"},
        "topology": {
            "clusters": cluster_cfg,
            "kind": "decentralized",
            "pairs": [[s, t] for s in ids for t in ids],
            "default_latency": {"base": "10ms", "jitter": "5ms"},
        },
        "scenario": {"pods": _pods(rng, pods, ids, window_min * MINUTE_MS, federated=True)},
    }


def local_wide(seed: int) -> dict:
    """Two 32-node clusters, no edges, non-federated pods at about half of
    capacity: the federation protocol has nothing to do."""
    rng = random.Random(f"local-wide/{seed}")
    cluster_cfg = _two_clusters(32)
    ids = [c["id"] for c in cluster_cfg]
    return {
        "sim": {"seed": seed, "duration": "1h"},
        "topology": {"clusters": cluster_cfg, "kind": "explicit", "edges": []},
        "scenario": {"pods": _pods(rng, 800, ids, 20 * MINUTE_MS, federated=False)},
    }


def wildfire_metascale(seed: int) -> dict:
    """The bundled two-cluster wildfire config with metascale on, 10 batch
    jobs on `expanse` (with 40, how many pods end Unschedulable, and so the
    work, varied by 10% between seeds), and an explicit camera trace: 40
    cameras each send 12 messages an hour for 6 hours, and exactly 5% of
    all messages clear the 0.9 threshold. fedsched's own Poisson trace would
    make the number of triggers, and so the work, vary by about 25% between
    seeds."""
    jobs, cameras = 10, 40
    with open(BUNDLED_CONFIG, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    rng = random.Random(f"wildfire-metascale/{seed}")
    window_ms = 6 * 60 * MINUTE_MS
    per_camera = 12 * 6
    high = _stratified(rng, (True,) + (False,) * 19, cameras * per_camera)
    trace = []
    for camera in range(cameras):
        for time_ms in _slot_times(rng, per_camera, window_ms):
            band = (0.9, 1.0) if high[len(trace)] else (0.0, 0.5)
            trace.append([f"cam-{camera + 1}", time_ms, round(rng.uniform(*band), 4)])
    node_counts = _stratified(rng, (1, 2, 3), jobs)
    durations = _stratified(rng, tuple(range(10, 61, 10)), jobs)
    submits = _slot_times(rng, jobs, window_ms)
    raw["sim"] = {"seed": seed, "duration": "6h"}
    raw["metascale"] = {"enabled": True}
    del raw["scenario"]["cameras"], raw["scenario"]["rate_per_hour"]
    raw["scenario"]["trace"] = trace
    raw["scenario"]["batch_jobs"] = [
        {
            "id": f"job-{i:03d}",
            "cluster": "expanse",
            "submit": submits[i],
            "node_count": node_counts[i],
            "duration": durations[i] * MINUTE_MS,
        }
        for i in range(jobs)
    ]
    return raw


GENERATORS = {
    "fed-mesh-overload": fed_mesh_overload,
    "local-wide": local_wide,
    "wildfire-metascale": wildfire_metascale,
}


def generate(name: str, seed: int) -> dict:
    return GENERATORS[name](seed)
