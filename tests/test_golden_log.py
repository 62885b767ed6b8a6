"""Golden-log gate: pinned SHA-256 digests of `events.jsonl` bytes.

A seed and a config fix the event log bytes. Each case below runs one fixed
config and compares the digest of its log, serialized exactly as
`write_event_log` writes it, against a pinned digest. A change meant to
keep behaviour must leave every digest alone; a deliberate behaviour change
updates the digests it moves and says why. `local-only` has no edges and no
metascale, so no federation change may move it.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
import random

import pytest

from fedsched.config import validate_config
from fedsched.sim import Simulation

from conftest import base_config, log_bytes, node_cfg, pod_cfg, seeded
from test_acceptance import (
    burst_raw,
    determinism_configs,
    oscillating_raw,
    policy_raw,
    random_protocol_raw,
)

BUNDLED = importlib.resources.files("fedsched") / "data" / "expanse-nautilus.json"


def _bundled():
    return json.loads(BUNDLED.read_text()), None


def _bundled_trace():
    raw = json.loads(BUNDLED.read_text())
    raw["scenario"]["cameras"] = 0
    raw["scenario"]["rate_per_hour"] = 0
    raw["scenario"]["trace"] = [
        ["cam-1", "60s", 0.97],
        ["cam-2", "45m", 0.95],
        ["cam-3", "90m", 0.93],
    ]
    return raw, 7


def _random_protocol(index, reservations=True):
    def build():
        rng = random.Random(20260808)
        for _ in range(index):
            random_protocol_raw(rng)
        raw = random_protocol_raw(rng)
        if not reservations:
            raw["federation"]["reservations"] = False
        return raw, None
    return build


def _determinism(index):
    return lambda: (determinism_configs()[index], 1000 + index)


def _mesh_overload():
    # Offered load well past capacity on a meshed pair, so chaperons queue
    # in PendingSchedule and are retried each time a target frees resources.
    rng = random.Random(77)
    clusters = [
        {"id": name, "nodes": [node_cfg(f"{name}-n{k}", cpu=8000, mem="16GiB")
                               for k in range(3)]}
        for name in ("a", "b")
    ]
    pods = [
        pod_cfg(f"p{i}", rng.choice("ab"), cpu=rng.choice([1000, 2000, 4000]),
                mem=f"{rng.choice([1, 2, 4])}GiB", submit=rng.randint(0, 300_000),
                duration=rng.randint(60_000, 300_000))
        for i in range(80)
    ]
    raw = base_config(clusters, pairs=[("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")],
                      pods=pods, duration="10m", jitter="5ms", seed=5)
    return raw, None


def _local_only():
    # No edges and no metascale: no cluster has a source to report to, so
    # the federation adds nothing to this log.
    rng = random.Random(31)
    clusters = [
        {"id": name, "nodes": [node_cfg(f"{name}-n{k}", cpu=8000, mem="16GiB")
                               for k in range(4)]}
        for name in ("a", "b")
    ]
    pods = [
        pod_cfg(f"p{i}", rng.choice("ab"), cpu=rng.choice([1000, 2000, 4000]),
                mem=f"{rng.choice([1, 2, 4])}GiB", federated=False,
                submit=rng.randint(0, 300_000), duration=rng.randint(60_000, 300_000))
        for i in range(60)
    ]
    return base_config(clusters, edges=[], pods=pods, duration="10m", seed=3), None


def _bind_conflict():
    # A local pod fills the elected node while the delegate bind is in
    # flight, so the proxy re-elects the runner-up.
    clusters = [
        {"id": "s", "nodes": [node_cfg("s-n1", cpu=100)]},
        {"id": "a", "nodes": [node_cfg("a-n1", cpu=10_000, mem="4GiB")]},
        {"id": "b", "nodes": [node_cfg("b-n1", cpu=5_000, mem="4GiB")]},
    ]
    pods = [
        pod_cfg("p1", "s", cpu=1000, mem="1GiB", submit=0, duration="30s"),
        pod_cfg("blocker", "a", cpu=10_000, mem="4GiB", federated=False,
                submit=25, duration="1h"),
    ]
    raw = base_config(clusters, pairs=[("s", "a"), ("s", "b")], pods=pods,
                      duration="5m")
    raw["federation"] = {"reservations": False}
    return raw, None


CASES = {
    "bundled": _bundled,
    "bundled-trace-seed7": _bundled_trace,
    "random-protocol-0": _random_protocol(0),
    "random-protocol-1": _random_protocol(1),
    "random-protocol-21-no-reservations": _random_protocol(21, reservations=False),
    "determinism-0": _determinism(0),
    "determinism-5-metascale": _determinism(5),
    "burst-squeezed": lambda: (burst_raw(local_nodes=1), 1),
    "oscillating-metascale": lambda: (oscillating_raw(2), None),
    "policy-seed3": lambda: (policy_raw(3), None),
    "bind-conflict": _bind_conflict,
    "mesh-overload": _mesh_overload,
    "local-only": _local_only,
}

GOLDEN = {
    "bundled": "c9714929037b581d0455a2cdf3f0aceb3f2e8b95c0ce04c69e83324c4460c9ab",
    "bundled-trace-seed7": "009557be5bc85f665a9f3cf34e559ee64026b3916336609ddb7ad4f0eac33639",
    "random-protocol-0": "cc6e500952002b8d1f46fdb750ee227f077b388fb5ee144d94bd3c6e2abbc38c",
    "random-protocol-1": "31887d4fc8e72f8facbcfa329d3451c789162ccf4107a54c75a713aae79d0d62",
    "random-protocol-21-no-reservations": "c1b15c88d1e04055c5db8feccc9b9b15ce7f193b233347b2209a9bbb0dfde4b9",
    "determinism-0": "f63719ed46e1218aa4be5fddac7d9daf5625ee7b718c85bbaed51efe330ecbe2",
    "determinism-5-metascale": "b82936e83f64a8bc7dfdb18e1a6f3809b58b6a82d2bc20f95e872cfe339cb230",
    "burst-squeezed": "5cd2d7a031e81179585a44f00a6fe19481a84282db45a5464620d783843e59d2",
    "oscillating-metascale": "47fe8d3a47aa9b507a36c165b6ccc9f6cfdb6f3bdc37685bee1bda5c783a4827",
    "policy-seed3": "0da35c6529426252ab4221027d460221ad8dc3c6c1c0a1e3d42778d45803195e",
    "bind-conflict": "b2ea5b4160c33d90915297aa6469af1c784286105681f6ed1f054889afb017a8",
    "mesh-overload": "8144de1abe9a9d4a21ae1be92465cd8313cb0d75dd46df2ab2a02ef9b371ceab",
    "local-only": "f5945e40b974bd7a013329429598e40a91bd07bcf5feffff8c1060269869191f",
}


def log_digest(raw, seed) -> str:
    sim = Simulation(validate_config(seeded(raw, seed)))
    sim.run()
    return hashlib.sha256(log_bytes(sim.events)).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_event_log_digest_is_pinned(name):
    raw, seed = CASES[name]()
    assert log_digest(raw, seed) == GOLDEN[name]
