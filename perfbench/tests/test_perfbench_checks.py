"""The per-run check accepts a clean log and rejects corrupted ones."""

import copy
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from fedsched.config import validate_config  # noqa: E402
from fedsched.metrics import record_of  # noqa: E402
from fedsched.sim import Simulation  # noqa: E402


@pytest.fixture(scope="module")
def small_run():
    sim = Simulation(validate_config(workloads.fed_mesh_overload(0, pods=80)))
    report = sim.run()
    return sim, report, [record_of(event) for event in sim.events]


def _first(records, op):
    for index, rec in enumerate(records):
        for fx in rec["fx"]:
            if fx["op"] == op:
                return index, fx
    raise AssertionError(f"no {op} effect in the log")


def test_clean_run_passes(small_run):
    sim, report, records = small_run
    assert any(fx["op"] == "release" for rec in records for fx in rec["fx"])
    assert checks.violations(records, sim, report) == []


def test_duplicated_bind_is_rejected(small_run):
    sim, report, records = small_run
    corrupted = copy.deepcopy(records)
    index, bind = _first(corrupted, "bind")
    corrupted[index + 1]["fx"].append(dict(bind))
    found = checks.violations(corrupted, sim, report)
    assert any(f"pod {bind['pod']} bound 2 times" in line for line in found)


def test_overcommitting_reserve_is_rejected(small_run):
    sim, report, records = small_run
    corrupted = copy.deepcopy(records)
    index, bind = _first(corrupted, "bind")
    capacity = sim.clusters[bind["cluster"]].nodes()[bind["node"]].capacity.as_list()
    corrupted[index]["fx"].append(
        {"op": "reserve", "pod": "intruder", "cluster": bind["cluster"],
         "node": bind["node"], "req": capacity}
    )
    found = checks.violations(corrupted, sim, report)
    assert any(f"node {bind['cluster']}/{bind['node']} holds" in line for line in found)


def test_unreported_pod_is_rejected(small_run):
    sim, report, records = small_run
    trimmed = copy.copy(report)
    trimmed.pods = report.pods[1:]
    found = checks.violations(records, sim, trimmed)
    assert any(line.startswith("report has 79 pods") for line in found)
