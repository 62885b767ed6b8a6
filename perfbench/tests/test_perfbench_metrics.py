"""Every metric is emitted by name with its unit, in both modes."""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

# The metric list the benchmark promises (perfbench/README.md).
DOCUMENTED = """
wall_s setup_s pods_per_s peak_rss_mib fail_frac sim_ttb_p50_ms sim_ttb_p95_ms
sim_unschedulable_frac
federation.retry_pending_calls federation.retry_pending_s federation.chaperons_scanned
federation.retry_attempts federation.retry_success_ratio
scheduling.snapshot_of_calls scheduling.snapshot_of_s scheduling.schedule_one_calls
scheduling.schedule_one_s scheduling.nodes_considered scheduling.fit_ratio
cluster.allocatable_calls cluster.aggregate_allocatable_s cluster.bind_calls
cluster.reserve_calls cluster.release_calls cluster.unbind_calls resources.vectors_built
federation.broadcast_calls federation.broadcast_s federation.reports_per_broadcast
federation.elections federation.election_timeouts federation.giveups
metascale.on_tick_s sim.pending_requests_s
sim.events sim.events_per_s sim.step_us_p50 sim.step_us_p99 sim.step_s.PodSubmit
sim.step_s.HeartbeatTick sim.step_s.ElectionTimeout
engine.push_calls engine.queue_peak_len engine.delivery_time_calls
metrics.build_report_s metrics.write_s metrics.events_bytes
config.validate_s trace.overhead_s
""".split()


def test_benchmark_json_lists_what_run_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_documented_metric_has_a_unit():
    emitted = {**run.E2E_UNITS, **run.OUTCOME_UNITS, **run.LAYER_UNITS}
    assert [name for name in DOCUMENTED if name not in emitted] == []


@pytest.fixture
def small_checkout(tmp_path, monkeypatch):
    """A directory with `src/` of this repository and a small workload."""
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(workloads, "generate", lambda name, seed: workloads.fed_mesh_overload(seed, pods=250))


@pytest.mark.parametrize("trace, units", [(False, run.E2E_UNITS), (True, run.LAYER_UNITS)])
def test_measure_emits_every_metric_with_its_unit(small_checkout, capsys, trace, units):
    result = run.measure("fed-mesh-overload", 0, 0, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    printed = capsys.readouterr().out
    for name, unit in {**run.E2E_UNITS, **run.OUTCOME_UNITS}.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in printed.splitlines())
    assert "events.jsonl sha256 " in printed


def test_missing_source_tree_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "local-wide", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
