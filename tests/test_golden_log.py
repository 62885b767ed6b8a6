"""Golden-log gate: pinned SHA-256 digests of `events.jsonl` bytes.

A seed and a config fix the event log bytes. Each case below runs one fixed
config and compares the digest of its log, serialized exactly as
`write_event_log` writes it, against a digest recorded before any
performance work. A change meant to keep behaviour must leave every digest
alone; a deliberate behaviour change updates the digests it moves and says
why.
"""

from __future__ import annotations

import copy
import hashlib
import importlib.resources
import json
import random

import pytest

from fedsched.config import validate_config
from fedsched.metrics import serialize_event
from fedsched.sim import Simulation

from conftest import base_config, node_cfg, pod_cfg
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
    raw["federation"] = {"heartbeat": "30s"}
    return raw, None


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
}

GOLDEN = {
    "bundled": "708f63c0534cc655defa15036aa374902b4256bfd8d1c68831aec4013ba116f6",
    "bundled-trace-seed7": "01a7c9401789fba163c584d2a637d067ec832ac177f220c759eae0af959cf56d",
    "random-protocol-0": "f8b51c51b2413bbdecedb89709f8f9ea5b89fa06f077199fc9abd230bf982066",
    "random-protocol-1": "9ca876ba003c1fd70150265109f50fddd0d28be0900515fbd1df14c8b6a974a0",
    "random-protocol-21-no-reservations": "803f6aa2ae2e4282e7f40cd99f76a41f5c572468251bbee5420b3b795117ea9e",
    "determinism-0": "8326eb4f0f99c44e90421bb96a185b2b551535d17aab04b56ea77dbe409d929b",
    "determinism-5-metascale": "57b360b062ce1cbdbcf4ed2e83d61ff0b3930f75e9c76140a619e1c41415eacf",
    "burst-squeezed": "bf4f660c73502e64ea0bf761ab10ce28f5d0845ba2f77ee7ca2d05d9fb81e86e",
    "oscillating-metascale": "e71b38c40b898997c2cbecb24c9ea0ba0e6679ef5538a842c1313e0ed1a54486",
    "policy-seed3": "7f3c631d8c3f671266a7321ab19cd5d35516a1adbda9afc6ea09588878553df9",
    "bind-conflict": "362b9bcc805281ffe8226fdf4cb5d379035bd571341afe8f3c7d4bfbe35ef60d",
    "mesh-overload": "37b5fb3b24bd3bef07fb05268be9de47157bf03baddd4fffc2fe9002799baa60",
}


def log_digest(raw, seed) -> str:
    sim = Simulation(validate_config(copy.deepcopy(raw), base_seed=seed))
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
