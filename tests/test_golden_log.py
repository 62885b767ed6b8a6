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
from fedsched.metrics import serialize_event
from fedsched.sim import Simulation

from conftest import base_config, node_cfg, pod_cfg, seeded
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
    "bundled": "e34865f0ec563ee4059ac685a301e1dbfa7333069af87bcd6ab322a2eedecdd1",
    "bundled-trace-seed7": "93c8b4fca509e7594618ac9ddb32ac470cba03cac327f722d30f7a2e20455380",
    "random-protocol-0": "8727bc046328007756df11b3aad0f047e1c2f0c03f20c88d1a4494cd8dc5eb0c",
    "random-protocol-1": "521bc60cf3b4437ab041251eb3e19d835ea27c595276b5f8e5b3ed2faf3113cf",
    "random-protocol-21-no-reservations": "2f426b2a8785917701602ee53d2add640253ec79849959e261345d21b75001c9",
    "determinism-0": "b72b46e6be7f386846a9bf76d854451b650ed84cdaf92e285bb64b06f2f7f133",
    "determinism-5-metascale": "b84682839b23025ee191a3b41709c2ee81b70692cb8eab3c04ad3db51cfaa282",
    "burst-squeezed": "9f31101d6988f1c1ad4a724ac0bb828ac04d420bc642ba9b33d0e95e6f7cafd7",
    "oscillating-metascale": "64e743b00803cc4e537e295c31f2524e841d6f8bb4de81c7f837fb793c31ed10",
    "policy-seed3": "4f00057232951ea801ec4d12c98008f0db68d72c2ce27cc0b6d98b7da3f13e61",
    "bind-conflict": "3fcc76e2141962de88627bebd2161b30f8456c78ecc217146b292126be301c4b",
    "mesh-overload": "d5db9890313fc2806a866dad9a7147d6888132f237cef0f6108a64acd249c5c3",
    "local-only": "37ac83908ee7abe530beabff82f3b937e48126af5eec369f9a83e31c4c670b5c",
}


def log_digest(raw, seed) -> str:
    sim = Simulation(validate_config(seeded(raw, seed)))
    sim.run()
    digest = hashlib.sha256()
    for event in sim.events:
        digest.update(serialize_event(event).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_event_log_digest_is_pinned(name):
    raw, seed = CASES[name]()
    assert log_digest(raw, seed) == GOLDEN[name]
