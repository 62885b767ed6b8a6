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
    "bundled": "20d588d37c84f104f11f7a29626f3a5933669538833c5b0edec9718c79b1e718",
    "bundled-trace-seed7": "5f44f006f8863d149893b24a7e6bdfcc912ce6d88118b15b0242c5f19f51bde4",
    "random-protocol-0": "6fac33edeaba042d88d987d9b79aadbe857e9096c85238bc07b76119fa23bcd9",
    "random-protocol-1": "6a767a0bbb305d5717f82d4aa23eca096930e7e9d59c019b73b34352e69b6d91",
    "random-protocol-21-no-reservations": "6234ee5d59295291cb8cfac1aedf7f73361f0888be21879b038a336a9a038d0d",
    "determinism-0": "469edc8df43797e649f8ecbe95a69f3e2e386647f55602425d7d06041841fe0a",
    "determinism-5-metascale": "9a1d94eb1b1a1d2b0d6d413337200a9545638a20a6da6bcc420ac9b25ebebe62",
    "burst-squeezed": "25eb2ba156bf0f639cf37c306a3176f5ce73bfd9a099c3086b094296abc4b559",
    "oscillating-metascale": "64e743b00803cc4e537e295c31f2524e841d6f8bb4de81c7f837fb793c31ed10",
    "policy-seed3": "78d33b3a8d8f4d7fae9781e41828d4ae58ed1dfc5c4caf71e24098cff0639d1f",
    "bind-conflict": "ad4cab3ac07fe20878c67d7701022f1192e9b8c241475881e21a2ae4795aceee",
    "mesh-overload": "f04b0fdf707c26e2aef1b4a9d584d3d9c5391e738e0efc4b49ae54464a6c23b0",
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
