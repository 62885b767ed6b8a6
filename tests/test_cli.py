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


@pytest.mark.parametrize("flag,env", [("-1", None), (None, "-3")])
def test_a_negative_seed_override_is_a_located_config_error(
    config_path, monkeypatch, capsys, flag, env
):
    # The override is checked by the rule that checks `sim.seed` in a file.
    if env is not None:
        monkeypatch.setenv("FEDSCHED_SEED", env)
    seed_args = [] if flag is None else ["--seed", flag]
    assert main(["run", "--config", config_path, *seed_args]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: sim.seed: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("sim,code", [(None, EXIT_OK), ([], EXIT_CONFIG)], ids=["null", "list"])
def test_overrides_on_a_null_or_bad_sim_section(config_path, capsys, sim, code):
    with open(config_path) as handle:
        raw = json.load(handle)
    raw["sim"] = sim
    with open(config_path, "w") as handle:
        json.dump(raw, handle)
    assert main(["run", "--config", config_path, "--seed", "3", "--duration", "10s"]) == code
    if code == EXIT_CONFIG:
        assert capsys.readouterr().err.startswith("error: sim: ")


def test_sweep_over_the_seed_runs_each_value(config_path, tmp_path, capsys):
    # A swept `sim.seed` wins over `--seed`, as a swept `sim.duration` wins
    # over `--duration`.
    out = tmp_path / "sweep"
    assert main([
        "sweep", "--config", config_path, "--param", "sim.seed", "--values", "1,2",
        "--seed", "5", "--out", str(out),
    ]) == EXIT_OK
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert [l["value"] for l in lines] == ["1", "2"]
    assert lines[0]["summary"] != lines[1]["summary"]
    a = (out / "sim.seed=1" / "events.jsonl").read_bytes()
    b = (out / "sim.seed=2" / "events.jsonl").read_bytes()
    assert a != b
    assert main(["run", "--config", config_path, "--seed", "2",
                 "--out", str(tmp_path / "run")]) == EXIT_OK
    assert (tmp_path / "run" / "events.jsonl").read_bytes() == b


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


@pytest.mark.parametrize("name", ["bundled", "oscillating-metascale"])
def test_report_rebuilds_the_run_outputs_from_its_log(name, tmp_path, capsys):
    from test_golden_log import CASES

    raw, seed = CASES[name]()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    run_dir, report_dir = tmp_path / "run", tmp_path / "report"
    seed_args = [] if seed is None else ["--seed", str(seed)]
    assert main(["run", "--config", str(config), *seed_args, "--out", str(run_dir)]) == EXIT_OK
    log = run_dir / "events.jsonl"
    if name == "oscillating-metascale":
        assert '"op":"pool_move"' in log.read_text()
    capsys.readouterr()
    assert main(["report", "--config", str(config), "--log", str(log),
                 "--out", str(report_dir)]) == EXIT_OK
    for output in ("pods.csv", "timeseries.csv", "summary.json"):
        assert (report_dir / output).read_bytes() == (run_dir / output).read_bytes(), output
    assert json.loads(capsys.readouterr().out) == json.loads((run_dir / "summary.json").read_text())
    assert not (report_dir / "events.jsonl").exists()


# A second line that breaks a log whose first line is sound.
BAD_LINES = {
    "truncated": b'{"t":0',
    "blank": b"",
    "not-utf8": b"\xff\xfe",
    "not-an-object": b"5",
    "unknown-pod": json.dumps(
        {"t": 1, "seq": 1, "kind": "PodComplete", "payload": {},
         "fx": [{"op": "phase", "pod": "ghost", "phase": "Completed"}]}).encode(),
    "overcommit": json.dumps(
        {"t": 1, "seq": 1, "kind": "PodComplete", "payload": {},
         "fx": [{"op": "unbind", "pod": "ghost", "cluster": "a", "node": "a-n1",
                 "req": [1000, 0, 0]}]}).encode(),
}


@pytest.mark.parametrize("case", sorted(BAD_LINES))
def test_report_on_a_malformed_log_names_the_file_and_line(case, config_path, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["run", "--config", config_path, "--out", str(run_dir)]) == EXIT_OK
    first = (run_dir / "events.jsonl").read_bytes().split(b"\n")[0]
    log = tmp_path / "events.jsonl"
    log.write_bytes(first + b"\n" + BAD_LINES[case] + b"\n")
    capsys.readouterr()
    assert main(["report", "--config", config_path, "--log", str(log),
                 "--out", str(tmp_path / "report")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log}:2: ")
    assert "Traceback" not in err


def edit_first_effect(run_dir, tmp_path, op, edit):
    """A copy of the run's log in which `edit` changed the first effect of
    `op`, and the number of that effect's line."""
    lines = (run_dir / "events.jsonl").read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, 1):
        record = json.loads(line)
        found = [fx for fx in record["fx"] if fx["op"] == op]
        if found:
            edit(found[0])
            lines[number - 1] = json.dumps(record, separators=(",", ":"))
            break
    else:
        raise AssertionError(f"the log holds no {op} effect")
    log = tmp_path / "edited.jsonl"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return log, number


def test_report_on_an_effect_missing_a_field_it_reads_names_the_line(config_path, tmp_path,
                                                                     capsys):
    run_dir = tmp_path / "run"
    assert main(["run", "--config", config_path, "--out", str(run_dir)]) == EXIT_OK
    log, number = edit_first_effect(run_dir, tmp_path, "bind", lambda fx: fx.pop("node"))
    capsys.readouterr()
    assert main(["report", "--config", config_path, "--log", str(log),
                 "--out", str(tmp_path / "report")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log}:{number}: record does not replay: KeyError: 'node'")
    assert "Traceback" not in err


def test_report_on_an_unknown_effect_op_names_the_line(tmp_path, capsys):
    # A one-pod log in which the first "phase" effect's op reads "phaze",
    # an op no effect has: the report cannot know what it skips. Nor does
    # any effect have the op "mirror" any more, so a log written while the
    # status mirror still logged one exits 1 at that line too.
    raw = base_config([{"id": "a", "nodes": [node_cfg("a-n1")]}],
                      pods=[pod_cfg("p1", "a", federated=False)])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(run_dir)]) == EXIT_OK
    for op in ("phaze", "mirror"):
        log, number = edit_first_effect(run_dir, tmp_path, "phase", lambda fx: fx.update(op=op))
        capsys.readouterr()
        assert main(["report", "--config", str(config), "--log", str(log),
                     "--out", str(tmp_path / "report")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {log}:{number}: record does not replay: ValueError: unknown effect op {op!r}"
        )
        assert "Traceback" not in err


# A PodSubmit payload edited to a value no live PodSubmit holds, and the
# start of the error it replays as.
POD_SUBMIT_EDITS = {
    "federated-yes": (lambda payload: payload.update(federated="yes"),
                      "ValueError: PodSubmit federated is not a bool: 'yes'"),
    "req-of-two": (lambda payload: payload.update(req=payload["req"][:2]),
                   "ValueError: PodSubmit req is not three ints: ["),
}


@pytest.mark.parametrize("case", sorted(POD_SUBMIT_EDITS))
def test_report_on_a_pod_submit_of_another_shape_names_the_line(case, tmp_path, capsys):
    from test_golden_log import BUNDLED

    edit, message = POD_SUBMIT_EDITS[case]
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(BUNDLED), "--out", str(run_dir)]) == EXIT_OK
    lines = (run_dir / "events.jsonl").read_text(encoding="utf-8").splitlines()
    number = next(n for n, line in enumerate(lines, 1) if '"kind":"PodSubmit"' in line)
    record = json.loads(lines[number - 1])
    edit(record["payload"])
    lines[number - 1] = json.dumps(record, separators=(",", ":"))
    log = tmp_path / "edited.jsonl"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--config", str(BUNDLED), "--log", str(log),
                 "--out", str(tmp_path / "report")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log}:{number}: record does not replay: {message}")
    assert "Traceback" not in err


EDITS_THAT_REPLAY = {
    # The report reads no chaperon effect, nor an unbind's node.
    "chaperon-with-an-extra-key": ("chaperon", lambda fx: fx.update(extra=[1, {"x": None}])),
    "unbind-without-its-node": ("unbind", lambda fx: fx.pop("node")),
}


@pytest.mark.parametrize("case", sorted(EDITS_THAT_REPLAY))
def test_report_replays_an_effect_edited_where_it_reads_nothing(case, config_path, tmp_path,
                                                                 capsys):
    run_dir, report_dir = tmp_path / "run", tmp_path / "report"
    assert main(["run", "--config", config_path, "--out", str(run_dir)]) == EXIT_OK
    log, _ = edit_first_effect(run_dir, tmp_path, *EDITS_THAT_REPLAY[case])
    assert main(["report", "--config", config_path, "--log", str(log),
                 "--out", str(report_dir)]) == EXIT_OK
    for output in ("pods.csv", "timeseries.csv", "summary.json"):
        assert (report_dir / output).read_bytes() == (run_dir / output).read_bytes(), output


def test_report_on_a_missing_log_exits_one(config_path, tmp_path, capsys):
    log = tmp_path / "absent.jsonl"
    assert main(["report", "--config", config_path, "--log", str(log),
                 "--out", str(tmp_path / "report")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log}: cannot read event log")
    assert "Traceback" not in err


def _under_a_file(tmp_path):
    """An output path whose parent is a regular file."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return blocker / "out"


def _refuses_output(path, capsys):
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: cannot create output directory: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_run_with_an_unwritable_out_exits_one_before_running(config_path, tmp_path, monkeypatch,
                                                             capsys):
    from fedsched import cli as cli_module

    def never(self):
        raise AssertionError("ran although --out cannot be written")

    monkeypatch.setattr(cli_module.Simulation, "run", never)
    out = _under_a_file(tmp_path)
    assert main(["run", "--config", config_path, "--out", str(out)]) == EXIT_CONFIG
    _refuses_output(out, capsys)


def test_sweep_with_an_unwritable_out_exits_one(config_path, tmp_path, capsys):
    out = _under_a_file(tmp_path)
    assert main(["sweep", "--config", config_path, "--param", "sim.seed", "--values", "1,2",
                 "--out", str(out)]) == EXIT_CONFIG
    _refuses_output(out / "sim.seed=1", capsys)


def test_report_with_an_unwritable_out_exits_one(config_path, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["run", "--config", config_path, "--out", str(run_dir)]) == EXIT_OK
    capsys.readouterr()
    out = _under_a_file(tmp_path)
    assert main(["report", "--config", config_path, "--log", str(run_dir / "events.jsonl"),
                 "--out", str(out)]) == EXIT_CONFIG
    _refuses_output(out, capsys)


def test_a_failed_write_exits_one_naming_the_file(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "summary.json").mkdir(parents=True)
    assert main(["run", "--config", config_path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'summary.json'}: cannot write output: ")
    assert "Traceback" not in err
