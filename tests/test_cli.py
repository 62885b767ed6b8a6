import json
import os

import pytest

from fedsched.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, main
from fedsched.errors import OvercommitError

from conftest import base_config, node_cfg, pod_cfg


@pytest.fixture
def config_path(tmp_path):
    clusters = [
        {"id": "a", "nodes": [node_cfg("a-n1", cpu=6000), node_cfg("a-n2", cpu=6000)]},
        {"id": "b", "nodes": [node_cfg("b-n1", cpu=6000)]},
    ]
    pods = [
        pod_cfg(f"p{i}", "a", cpu=2000, mem="1GiB", submit=i * 2000, duration="30s")
        for i in range(5)
    ]
    raw = base_config(clusters, pairs=[("a", "a"), ("a", "b")], pods=pods,
                      duration="5m", jitter="5ms", seed=11)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_validate_ok(config_path, capsys):
    assert main(["validate", "--config", config_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "2 clusters" in out


def test_validate_bad_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["validate", "--config", str(bad)]) == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_one(capsys):
    assert main(["run", "--config", "/no/such/file.json"]) == EXIT_CONFIG


def test_run_writes_metrics_and_event_log(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", config_path, "--seed", "42",
                 "--out", str(out)]) == EXIT_OK
    for name in ("events.jsonl", "pods.csv", "timeseries.csv", "summary.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pods_total"] == 5
    stdout = json.loads(capsys.readouterr().out)
    assert stdout == summary


def test_same_seed_is_byte_identical(config_path, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["run", "--config", config_path, "--seed", "7", "--out", str(out1)])
    main(["run", "--config", config_path, "--seed", "7", "--out", str(out2)])
    assert (out1 / "events.jsonl").read_bytes() == (out2 / "events.jsonl").read_bytes()


def test_different_seed_changes_the_log(config_path, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["run", "--config", config_path, "--seed", "7", "--out", str(out1)])
    main(["run", "--config", config_path, "--seed", "8", "--out", str(out2)])
    assert (out1 / "events.jsonl").read_bytes() != (out2 / "events.jsonl").read_bytes()


def test_env_seed_fallback(config_path, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    monkeypatch.setenv("FEDSCHED_SEED", "31")
    main(["run", "--config", config_path, "--out", str(out1)])
    monkeypatch.delenv("FEDSCHED_SEED")
    main(["run", "--config", config_path, "--seed", "31", "--out", str(out2)])
    assert (out1 / "events.jsonl").read_bytes() == (out2 / "events.jsonl").read_bytes()


def test_duration_override(config_path, tmp_path, capsys):
    assert main(["run", "--config", config_path, "--duration", "10s"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["end_time_ms"] <= 10_000


def test_sweep_produces_one_result_set_per_value(config_path, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main([
        "sweep", "--config", config_path,
        "--param", "federation.election_timeout",
        "--values", "1s,5s,30s",
        "--seed", "3", "--out", str(out),
    ])
    assert rc == EXIT_OK
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert [l["value"] for l in lines] == ["1s", "5s", "30s"]
    dirs = sorted(os.listdir(out))
    assert dirs == [
        "federation.election_timeout=1s",
        "federation.election_timeout=30s",
        "federation.election_timeout=5s",
    ]
    for d in dirs:
        assert (out / d / "events.jsonl").exists()


def test_sweep_value_actually_changes_behavior(config_path, tmp_path, capsys):
    # Sweeping the jitter changes delivery timestamps between runs.
    out = tmp_path / "sweep"
    main([
        "sweep", "--config", config_path,
        "--param", "topology.default_latency.jitter",
        "--values", "0ms,50ms",
        "--seed", "3", "--out", str(out),
    ])
    a = (out / "topology.default_latency.jitter=0ms" / "events.jsonl").read_bytes()
    b = (out / "topology.default_latency.jitter=50ms" / "events.jsonl").read_bytes()
    assert a != b


def test_sweep_indexes_list_elements(config_path, tmp_path, capsys):
    # An integer path part selects a list element instead of replacing the
    # list with an object.
    out = tmp_path / "sweep"
    rc = main([
        "sweep", "--config", config_path,
        "--param", "topology.clusters.1.nodes.0.cpu",
        "--values", "6000,100",
        "--seed", "3", "--out", str(out),
    ])
    assert rc == EXIT_OK
    a = (out / "topology.clusters.1.nodes.0.cpu=6000" / "events.jsonl").read_bytes()
    b = (out / "topology.clusters.1.nodes.0.cpu=100" / "events.jsonl").read_bytes()
    assert a != b
    capsys.readouterr()
    assert main(["sweep", "--config", config_path,
                 "--param", "topology.clusters.0.initial_batch_nodes",
                 "--values", "1"]) == EXIT_OK


@pytest.mark.parametrize("param,location", [
    ("topology.clusters.2.scale_divisor", "topology.clusters.2"),
    ("topology.clusters.first.scale_divisor", "topology.clusters.first"),
    ("topology.pairs.0.0.x", "topology.pairs.0.0"),
])
def test_sweep_bad_list_path_is_config_error(config_path, capsys, param, location):
    rc = main(["sweep", "--config", config_path, "--param", param, "--values", "7"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {location}: ")
    assert "Traceback" not in err


def test_invariant_violation_exits_two(config_path, monkeypatch, capsys):
    from fedsched import cli as cli_module

    def boom(self):
        raise OvercommitError("node x overcommitted")

    monkeypatch.setattr(cli_module.Simulation, "run", boom)
    assert main(["run", "--config", config_path]) == EXIT_INVARIANT
    assert "invariant" in capsys.readouterr().err
