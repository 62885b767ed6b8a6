"""Shared builders for simulator tests.

Most protocol tests drive a full Simulation from a config dict, the same
surface the CLI uses, so the whole stack is exercised end to end.
"""

from __future__ import annotations

import copy
import os
import tempfile

import pytest

from fedsched.cluster import NodeSpec, PodSpec
from fedsched.config import validate_config
from fedsched.metrics import record_of, write_event_log
from fedsched.resources import GIB, ResourceVector
from fedsched.sim import Simulation


def make_node(node_id, cpu=10_000, mem=32 * GIB, gpu=0, labels=None, cluster="c1", pool="Container"):
    from fedsched.cluster import NodePool

    return NodeSpec(
        node_id=node_id,
        cluster_id=cluster,
        capacity=ResourceVector(cpu, mem, gpu),
        labels=labels or {},
        pool=NodePool(pool),
    )


def make_pod(pod_id, cpu=1000, mem=GIB, gpu=0, ns="default", selector=None,
             federated=False, duration=60_000):
    return PodSpec(
        pod_id=pod_id,
        namespace=ns,
        req=(cpu, mem, gpu),
        node_selector=selector or {},
        federation_eligible=federated,
        duration=duration,
    )


def node_cfg(node_id, cpu=10_000, mem="32GiB", gpu=0, labels=None, pool="Container"):
    return {"id": node_id, "cpu": cpu, "memory": mem, "gpu": gpu,
            "labels": labels or {}, "pool": pool}


def pod_cfg(pod_id, cluster, cpu=1000, mem="1GiB", gpu=0, ns="default", selector=None,
            federated=True, submit=0, duration="1m"):
    return {"id": pod_id, "cluster": cluster, "namespace": ns, "submit": submit,
            "duration": duration, "cpu": cpu, "memory": mem, "gpu": gpu,
            "selector": selector or {}, "federated": federated}


def base_config(clusters, *, kind="explicit", edges=(), pairs=None, pods=(),
                seed=0, duration="10m", jitter="0ms", base_latency="10ms", **extra):
    """Config dict skeleton with zero-jitter latency unless asked otherwise."""
    topology = {
        "clusters": list(clusters),
        "default_latency": {"base": base_latency, "jitter": jitter},
    }
    if pairs is not None:
        topology["kind"] = "decentralized"
        topology["pairs"] = [list(p) for p in pairs]
    else:
        topology["kind"] = kind
        if kind == "explicit":
            topology["edges"] = [
                {"source": s, "target": t} for (s, t) in edges
            ]
        else:
            topology.update(extra.pop("topology_extra", {}))
    raw = {
        "sim": {"seed": seed, "duration": duration},
        "topology": topology,
        "scenario": {"pods": list(pods)},
    }
    raw.update(extra)
    return raw


def seeded(raw, seed=None):
    """A copy of a raw config dict, with `sim.seed` set to `seed` unless it
    is None."""
    raw = copy.deepcopy(raw)
    if seed is not None:
        raw.setdefault("sim", {})["seed"] = seed
    return raw


def run_raw(raw, seed=None):
    """Validate a raw config dict, with `seed` as in `seeded`, run it, and
    return (sim, report)."""
    config = validate_config(seeded(raw, seed))
    sim = Simulation(config)
    report = sim.run()
    return sim, report


def push_every_row(queue, kind, rows, args_of):
    """The naive twin of `EventQueue.stream`: push every row now."""
    for row in rows:
        queue.push(row.time, kind, args_of(row))


def log_bytes(events) -> bytes:
    """The bytes of `events`' log, as `write_event_log` writes it."""
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "events.jsonl")
        write_event_log(path, events)
        with open(path, "rb") as handle:
            return handle.read()


def fx_of(event):
    """A live event's effects as its log line lists them, `record_of`'s
    `fx`: a fresh list of dicts, each its `op` and then its fields."""
    return record_of(event)["fx"]


def pod_row(report, pod_id):
    """The report's row for one pod."""
    (row,) = [row for row in report.pods if row.pod_id == pod_id]
    return row


@pytest.fixture
def two_cluster_raw():
    """Two single-node clusters with mutual plus self edges, no jitter."""
    clusters = [
        {"id": "a", "nodes": [node_cfg("a-n1")]},
        {"id": "b", "nodes": [node_cfg("b-n1")]},
    ]
    return base_config(
        clusters, pairs=[("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")]
    )
