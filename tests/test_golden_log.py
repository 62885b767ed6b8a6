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
    "bundled": "e459c593902344cc8f85f8db341898c392d822c34622b40d1c9f461da2e27f05",
    "bundled-trace-seed7": "4f00efa7a44ed6d7d330db91e06b8e3b38f2472ced6d766dded36e5c5e5fa634",
    "random-protocol-0": "b3215c6504f42f051d1a74b19ed830580379a44fcf545c723d6e474ba8c6a34c",
    "random-protocol-1": "dbdaed6ff49e4384ca1c447ff92c82742c9aeaa846f338a0a6fd03f397912f29",
    "random-protocol-21-no-reservations": "24aa9099b69e5162e378150ce03a85deb5f1621c001e49db5e188a69f1b5e817",
    "determinism-0": "6c46b6804e4335372dc9934989282a62f8968959d68d39309544eec61b703895",
    "determinism-5-metascale": "4b446692cf667c1aa087aca474abfad61cb3d3fb662a667cc2e622e9b512bb33",
    "burst-squeezed": "ac1b56311ac687bbd81a3843f4f581b5ec5df9e913b185b50eaa1e530895bd5e",
    "oscillating-metascale": "cd0b818da133a87da1e5a2964ce0993703711f28b80abee2cc16707a0b64e860",
    "policy-seed3": "0d937614aac04682b83d247bce68ebccb4db3a5409bffc978345a4688638b9ea",
    "bind-conflict": "a2d84772ef13d0be767504fe9703e3efda400678259f688b3c5f5aaf66f4b72d",
    "mesh-overload": "dcdaef6cdb46321d030ed6af154b2054fbd71a913bbef295aa404abe4c55aeac",
    "local-only": "fdcfacec149f049dbd0451e40777dcefb495e35b7ea0adbb3abdf863b93b7236",
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
