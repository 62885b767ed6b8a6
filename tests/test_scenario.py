"""Trigger rules, model registry, and synthetic camera traces."""

import math
import random

import pytest

from fedsched.resources import GIB
from fedsched.scenario import (
    ModelRegistry,
    PodTemplate,
    generate_trace,
)

from conftest import base_config, fx_of, node_cfg, run_raw


def wildfire_raw(trace, threshold=0.9, ensemble=4, cooldown="0s", duration="2h"):
    clusters = [
        {"id": "hub", "nodes": [
            node_cfg("h-gpu", cpu=16_000, mem="64GiB", gpu=4,
                     labels={"accelerator": "gpu"}),
            node_cfg("h-mem1", cpu=64_000, mem="512GiB", labels={"memory": "large"}),
            node_cfg("h-mem2", cpu=64_000, mem="512GiB", labels={"memory": "large"}),
        ]},
    ]
    raw = base_config(clusters, pairs=[("hub", "hub")], duration=duration)
    raw["scenario"] = {
        "namespace": "fire",
        "submit_cluster": "hub",
        "threshold": threshold,
        "ensemble_size": ensemble,
        "camera_cooldown": cooldown,
        "trace": trace,
        "retrain": {"cpu": 2000, "memory": "8GiB", "gpu": 1, "duration": "20m",
                    "selector": {"accelerator": "gpu"}},
        "ensemble_member": {"cpu": 4000, "memory": "32GiB", "duration": "10m",
                            "selector": {"memory": "large"}},
    }
    return raw


class TestTriggerRule:
    def test_fires_at_and_above_threshold(self):
        # Boundary: a probability exactly at the threshold fires.
        trace = [["cam-a", "10s", 0.95], ["cam-b", "10s", 0.9],
                 ["cam-c", "10s", 0.8999], ["cam-d", "10s", 0.0]]
        sim, _ = run_raw(wildfire_raw(trace=trace, ensemble=1))
        fired = [fx["camera"] for e in sim.events for fx in fx_of(e) if fx["op"] == "trigger"]
        assert fired == ["cam-a", "cam-b"]


class TestLambdaTrigger:
    def test_high_confidence_message_emits_retrain_plus_ensemble(self):
        raw = wildfire_raw(trace=[["cam-1", "10s", 0.95]], ensemble=8)
        _, report = run_raw(raw)
        roles = sorted(p.role for p in report.pods)
        assert roles.count("retrain") == 1
        assert roles.count("ensemble") == 8

    def test_low_confidence_message_emits_nothing(self):
        raw = wildfire_raw(trace=[["cam-1", "10s", 0.0], ["cam-2", "20s", 0.4]])
        _, report = run_raw(raw)
        assert report.pods == []

    def test_exact_threshold_fires(self):
        raw = wildfire_raw(trace=[["cam-1", "10s", 0.9]], ensemble=2)
        _, report = run_raw(raw)
        assert len(report.pods) == 3

    def test_camera_cooldown_suppresses_rapid_refires(self):
        trace = [["cam-1", "10s", 0.95], ["cam-1", "30s", 0.99],
                 ["cam-1", "20m", 0.97], ["cam-2", "40s", 0.95]]
        raw = wildfire_raw(trace=trace, ensemble=2, cooldown="5m")
        _, report = run_raw(raw)
        # cam-1 fires at 10s and 20m (30s suppressed); cam-2 fires once.
        assert len(report.pods) == 3 * 3

    def test_pods_are_never_lost(self):
        trace = [["cam-1", f"{k}m", 0.95] for k in range(1, 6)]
        raw = wildfire_raw(trace=trace, ensemble=3)
        _, report = run_raw(raw)
        assert len(report.pods) == 5 * 4
        for row in report.pods:
            assert row.final_phase in ("Completed", "Running", "Unschedulable")
            assert row.final_phase != "Pending"

    def test_placement_intent_gpu_and_large_memory(self):
        raw = wildfire_raw(trace=[["cam-1", "10s", 0.95]], ensemble=6)
        sim, report = run_raw(raw)
        for row in report.pods:
            node = sim.clusters[row.bound_cluster].nodes()[row.bound_node]
            if row.role == "retrain":
                assert node.capacity.gpu_count > 0
                assert node.labels.get("accelerator") == "gpu"
            else:
                assert node.labels.get("memory") == "large"


class TestModelRegistry:
    def test_first_retrain_bumps_one_to_two(self):
        registry = ModelRegistry()
        assert registry.current_version == 1
        assert registry.bump() == 2

    def test_versions_strictly_increase_in_completion_order(self):
        registry = ModelRegistry()
        versions = [registry.bump() for _ in range(3)]
        assert versions == [2, 3, 4]
        assert registry.current_version == 4

    def test_overlapping_retrains_version_in_completion_order(self):
        # Two triggers close together: both retrains run concurrently on
        # separate GPUs; versions are assigned when each completes.
        raw = wildfire_raw(
            trace=[["cam-1", "10s", 0.95], ["cam-2", "30s", 0.95]], ensemble=1
        )
        sim, report = run_raw(raw)
        registry_fx = [
            (e.time, fx["version"])
            for e in sim.events
            for fx in fx_of(e)
            if fx["op"] == "registry"
        ]
        assert [v for _, v in registry_fx] == [2, 3]
        times = [t for t, _ in registry_fx]
        assert times == sorted(times)
        assert sim.scenario.registry.current_version == 3


class TestGenerateTrace:
    def test_zero_rate_empty_stream(self):
        assert generate_trace(4, 0.0, 3_600_000, random.Random(1)) == []
        assert generate_trace(0, 10.0, 3_600_000, random.Random(1)) == []

    def test_fixed_seed_identical_stream(self):
        a = generate_trace(3, 6.0, 7_200_000, random.Random(99))
        b = generate_trace(3, 6.0, 7_200_000, random.Random(99))
        assert a == b
        c = generate_trace(3, 6.0, 7_200_000, random.Random(100))
        assert a != c

    def test_events_time_ordered_per_camera(self):
        events = generate_trace(5, 20.0, 3_600_000, random.Random(5))
        per_camera = {}
        for e in events:
            per_camera.setdefault(e.camera_id, []).append(e.time)
        for times in per_camera.values():
            assert times == sorted(times)

    def test_high_confidence_rate_within_three_sigma(self):
        # Thinned Poisson: high-confidence count over all seeds is Poisson
        # with mean seeds * cameras * rate * hours * p_high.
        cameras, rate, hours, p_high = 4, 12.0, 2.0, 0.2
        seeds = 40
        total = 0
        for seed in range(seeds):
            events = generate_trace(
                cameras, rate, int(hours * 3_600_000), random.Random(seed),
                high_probability=p_high,
            )
            total += sum(1 for e in events if e.smoke_probability >= 0.9)
        mean = seeds * cameras * rate * hours * p_high
        assert abs(total - mean) <= 3 * math.sqrt(mean), (total, mean)


def test_templates_are_federation_eligible():
    template = PodTemplate((1000, GIB, 0), {}, 60_000)
    pod = template.make("p1", "ns", 0)
    assert pod.federation_eligible


class TestTraceFile:
    def test_trace_loaded_from_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "# camera_id, time, probability\n"
            "cam-1, 10s, 0.95\n"
            "cam-2, 90s, 0.3\n"
            "cam-1, 3m, 0.97\n"
        )
        raw = wildfire_raw(trace=[], ensemble=2)
        raw["scenario"]["trace_file"] = str(path)
        _, report = run_raw(raw)
        assert len(report.pods) == 2 * 3  # two qualifying events

    def test_trace_file_without_rows_generates_no_trace(self, tmp_path):
        # Beside a trace file, even one with no rows, the Poisson keys are
        # not used.
        path = tmp_path / "trace.csv"
        path.write_text("# camera_id, time, probability\n")
        raw = wildfire_raw(trace=[])
        raw["scenario"].update(trace_file=str(path), cameras=4, rate_per_hour=12,
                               high_probability=0.5)
        sim, report = run_raw(raw)
        assert sim.events == [] and report.pods == []

    def test_malformed_trace_file_is_a_config_error(self, tmp_path):
        from fedsched.errors import ConfigError

        path = tmp_path / "trace.csv"
        path.write_text("cam-1, 10s\n")
        raw = wildfire_raw(trace=[])
        raw["scenario"]["trace_file"] = str(path)
        with pytest.raises(ConfigError, match="trace_file"):
            run_raw(raw)

    @pytest.mark.parametrize(
        "row", ["cam-2, 20x, 0.5", "cam-2, 20s, 1.5", "cam-2, 20s, high", ", 20s, 0.5"]
    )
    def test_bad_row_is_located_at_trace_file_with_file_and_line(self, tmp_path, row):
        from fedsched.errors import ConfigError

        path = tmp_path / "trace.csv"
        path.write_text(f"# camera_id, time, probability\ncam-1, 10s, 0.95\n{row}\n")
        raw = wildfire_raw(trace=[])
        raw["scenario"]["trace_file"] = str(path)
        with pytest.raises(ConfigError) as info:
            run_raw(raw)
        assert info.value.location == "scenario.trace_file"
        assert f"{path}:3: " in str(info.value)

    def test_relative_trace_file_resolves_against_the_config_file(self, tmp_path, monkeypatch):
        import json

        from fedsched.cli import EXIT_OK, main
        from fedsched.config import parse_config

        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        (config_dir / "trace.csv").write_text("cam-1, 10s, 0.95\ncam-1, 3m, 0.97\n")
        raw = wildfire_raw(trace=[])
        raw["scenario"]["trace_file"] = "trace.csv"
        config_path = config_dir / "run.json"
        config_path.write_text(json.dumps(raw))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        config = parse_config(str(config_path))
        assert [e.time for e in config.scenario.trace] == [10_000, 180_000]
        assert main(["validate", "--config", str(config_path)]) == EXIT_OK
        assert main(["validate", "--config", "../configs/run.json"]) == EXIT_OK
