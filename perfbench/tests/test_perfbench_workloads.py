"""The workload generators are pure functions of (name, seed)."""

import hashlib
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import workloads  # noqa: E402

# SHA-256 of json.dumps(generate(name, 0), sort_keys=True). A change here is
# a change of benchmark inputs and needs a fresh baseline.
PINNED = {
    "fed-mesh-overload": "eea212195a9c65db556e0645d30a22b50e4525dcc576bb99de5c214226f8458a",
    "local-wide": "6ee88a5278819d9533f0b7b6d8403b862eef1ec6e39dc6b313e7cd7173853d9c",
    "wildfire-metascale": "a4eea3827e93f072a25eb0b352104e5518656e4c10b68d4af06474dbb0617711",
}


def _bytes(name, seed):
    return json.dumps(workloads.generate(name, seed), sort_keys=True).encode()


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_byte_stable(name):
    assert _bytes(name, 3) == _bytes(name, 3)
    assert hashlib.sha256(_bytes(name, 0)).hexdigest() == PINNED[name]
    assert _bytes(name, 3) != _bytes(name, 4)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generated_config_validates(name):
    from fedsched.config import validate_config

    config = validate_config(workloads.generate(name, 1))
    assert config.seed == 1


@pytest.mark.parametrize("name", ["fed-mesh-overload", "local-wide"])
def test_seed_only_reorders_the_offered_load(name):
    def shapes(seed):
        pods = workloads.generate(name, seed)["scenario"]["pods"]
        return [sorted(p[key] for p in pods) for key in ("cpu", "memory", "duration", "cluster")]

    assert shapes(1) == shapes(2)


def test_ladder_rungs_change_only_the_pods():
    rung = workloads.fed_mesh_overload(0, pods=500, window_min=50)
    pods = rung["scenario"]["pods"]
    assert len(pods) == 500
    assert max(p["submit"] for p in pods) < 50 * workloads.MINUTE_MS
    assert rung["topology"] == workloads.fed_mesh_overload(0)["topology"]


def test_wildfire_trace_fires_the_same_number_of_triggers_for_every_seed():
    for seed in (1, 2):
        trace = workloads.generate("wildfire-metascale", seed)["scenario"]["trace"]
        assert len(trace) == 40 * 72
        assert sum(1 for _, _, probability in trace if probability >= 0.9) == 144
