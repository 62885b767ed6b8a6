import copy
import importlib.resources
import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedsched.cli import EXIT_CONFIG, EXIT_OK, main
from fedsched.config import RunConfig, parse_config, parse_time, validate_config
from fedsched.errors import ConfigError
from fedsched.metrics import serialize_event
from fedsched.sim import Simulation

from conftest import base_config, node_cfg, pod_cfg, run_raw

BUNDLED = importlib.resources.files("fedsched") / "data" / "expanse-nautilus.json"

# Configs that chose their own filter list, which the scheduler used to
# accept. Without ResourceFit the LeastAllocated score subtracted past zero
# on a node too small for the pod (a false invariant violation, exit 2);
# without NamespacePolicy the scheduler picked a node that bind then refused
# (exit 1 mid-run, with no config location).
FILTER_CONFIGS = {
    "no-resource-fit": base_config(
        [{"id": "a", "nodes": [node_cfg("n1", cpu=1000)],
          "pipeline": {"filters": ["LabelSelector", "NamespacePolicy"]}}],
        pods=[pod_cfg("p", "a", cpu=2000, federated=False)],
    ),
    "no-namespace-policy": base_config(
        [{"id": "a", "nodes": [node_cfg("n1")], "namespace_allowlist": ["prod"],
          "pipeline": {"filters": ["ResourceFit", "LabelSelector"]}}],
        pods=[pod_cfg("p", "a", ns="dev", federated=False)],
    ),
}


class TestParseTime:
    @pytest.mark.parametrize(
        "text,expected",
        [("10ms", 10), ("5s", 5000), ("1m", 60_000), ("2h", 7_200_000),
         ("0s", 0), (1500, 1500), ("1.5s", 1500)],
    )
    def test_units(self, text, expected):
        assert parse_time(text) == expected

    def test_rejects_junk(self):
        for bad in ("", "fast", "-5s", "5 hours", None, True, -1, "9" * 400 + "s"):
            with pytest.raises(ConfigError):
                parse_time(bad)


class TestBundledConfig:
    def test_parses_two_clusters_with_mutual_edges(self):
        config = parse_config(str(BUNDLED))
        assert sorted(c.cluster_id for c in config.clusters) == ["expanse", "nautilus"]
        assert ("expanse", "nautilus") in config.graph.edges
        assert ("nautilus", "expanse") in config.graph.edges

    def test_bundled_config_runs(self):
        config = parse_config(str(BUNDLED))
        sim = Simulation(config)
        report = sim.run()
        assert report.event_count > 0


class TestValidation:
    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            parse_config(str(p))

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(str(p))

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("/nonexistent/nowhere.json")

    def test_edge_to_unknown_cluster_named_in_error(self):
        raw = base_config([{"id": "a", "nodes": [node_cfg("n1")]}])
        raw["topology"]["edges"] = [{"source": "a", "target": "ghost"}]
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert "ghost" in str(err.value)
        assert "topology.edges[0]" in str(err.value)

    def test_unknown_keys_rejected_with_location(self):
        raw = base_config([{"id": "a", "nodes": [node_cfg("n1")]}])
        raw["federation"] = {"election_timeot": "5s"}  # typo
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert "election_timeot" in str(err.value)

    def test_negative_quantities_rejected(self):
        raw = base_config([{"id": "a", "nodes": [node_cfg("n1", cpu=-5)]}])
        with pytest.raises(ConfigError):
            validate_config(raw)

    def test_duplicate_cluster_ids_rejected(self):
        raw = base_config(
            [{"id": "a", "nodes": [node_cfg("n1")]},
             {"id": "a", "nodes": [node_cfg("n2")]}]
        )
        with pytest.raises(ConfigError, match="duplicate cluster ids"):
            validate_config(raw)

    def test_pod_referencing_unknown_cluster_rejected(self):
        raw = base_config([{"id": "a", "nodes": [node_cfg("n1")]}],
                          pods=[pod_cfg("p1", "nowhere")])
        with pytest.raises(ConfigError, match="nowhere"):
            validate_config(raw)

    def test_duplicate_pod_ids_rejected(self):
        raw = base_config([{"id": "a", "nodes": [node_cfg("n1")]}],
                          pods=[pod_cfg("p1", "a"), pod_cfg("p1", "a")])
        with pytest.raises(ConfigError, match="duplicate pod id"):
            validate_config(raw)

    def test_multi_hop_delegation_rejected(self):
        raw = base_config([{"id": "a", "nodes": [node_cfg("n1")]}])
        raw["federation"] = {"hop_limit": 2}
        with pytest.raises(ConfigError, match="hop_limit"):
            validate_config(raw)

    @pytest.mark.parametrize("name", sorted(FILTER_CONFIGS))
    def test_pipeline_filters_rejected_with_location(self, name):
        with pytest.raises(ConfigError, match="unknown keys: filters") as err:
            validate_config(copy.deepcopy(FILTER_CONFIGS[name]))
        assert err.value.location == "topology.clusters[0].pipeline"

    @pytest.mark.parametrize("name", sorted(FILTER_CONFIGS))
    def test_validate_cli_rejects_pipeline_filters(self, name, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(FILTER_CONFIGS[name]))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: topology.clusters[0].pipeline: unknown keys: filters")
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["nan", "inf", "-inf", "huge-int"])
    def test_non_finite_rate_rejected_with_location(self, bad):
        # An infinite arrival rate used to validate and then hang the trace
        # generator, since expovariate(inf) never advances time.
        raw = base_config([{"id": "a", "nodes": [node_cfg("n1")]}])
        raw["scenario"]["rate_per_hour"] = bad
        with pytest.raises(ConfigError, match="finite") as err:
            validate_config(raw)
        assert err.value.location == "scenario.rate_per_hour"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_score_weight_rejected_with_location(self, bad):
        # A NaN weight used to make every score comparison false, so the
        # scheduler silently took the first feasible node.
        cluster = {"id": "a", "nodes": [node_cfg("n1")],
                   "pipeline": {"scores": [{"name": "LeastAllocated", "weight": bad}]}}
        with pytest.raises(ConfigError, match="finite") as err:
            validate_config(base_config([cluster]))
        assert err.value.location == "topology.clusters[0].pipeline.scores[0].weight"

    def test_json_infinity_literal_rejected(self, tmp_path):
        path = tmp_path / "inf.json"
        raw = base_config([{"id": "a", "nodes": [node_cfg("n1")]}])
        raw["scenario"]["rate_per_hour"] = math.inf
        path.write_text(json.dumps(raw))
        assert "Infinity" in path.read_text()
        with pytest.raises(ConfigError, match="scenario.rate_per_hour"):
            parse_config(str(path))

    def test_unknown_election_policy_rejected(self):
        raw = base_config([{"id": "a", "nodes": [node_cfg("n1")]}])
        raw["federation"] = {"election_policy": "random"}
        with pytest.raises(ConfigError, match="election policy"):
            validate_config(raw)

    def test_cluster_needs_profile_or_nodes(self):
        raw = base_config([{"id": "a"}])
        with pytest.raises(ConfigError, match="profile.*nodes|needs either"):
            validate_config(raw)

    def test_unknown_profile_rejected(self):
        raw = base_config([{"id": "a", "profile": "mystery-machine"}])
        with pytest.raises(ConfigError, match="mystery-machine"):
            validate_config(raw)

    def test_wildfire_scenario_requires_templates(self):
        raw = base_config([{"id": "a", "nodes": [node_cfg("n1")]}])
        raw["scenario"] = {"submit_cluster": "a", "trace": [["cam", 0, 0.5]]}
        with pytest.raises(ConfigError, match="retrain"):
            validate_config(raw)

    def test_pod_submitted_after_run_end_rejected(self):
        raw = base_config([{"id": "a", "nodes": [node_cfg("n1")]}],
                          pods=[pod_cfg("p1", "a", submit="20m")], duration="10m")
        with pytest.raises(ConfigError, match="after the run ends"):
            validate_config(raw)

    def test_seed_override_wins_over_config(self):
        raw = base_config([{"id": "a", "nodes": [node_cfg("n1")]}], seed=7)
        assert validate_config(copy.deepcopy(raw)).seed == 7
        assert validate_config(copy.deepcopy(raw), base_seed=99).seed == 99


class TestValidateThenRun:
    def variants(self):
        yield base_config([{"id": "a", "nodes": [node_cfg("n1")]}],
                          pairs=[("a", "a")], pods=[pod_cfg("p", "a")])
        yield base_config(
            [{"id": "hub", "nodes": [node_cfg("h1")]},
             {"id": "l1", "nodes": [node_cfg("x1")]},
             {"id": "l2", "nodes": [node_cfg("y1")]}],
            kind="central", topology_extra={"hub": "hub", "leaves": ["l1", "l2"]},
            pods=[pod_cfg("p", "hub")],
        )
        yield base_config(
            [{"id": "l", "nodes": [node_cfg("l1")]},
             {"id": "c", "nodes": [node_cfg("c1")]}],
            kind="burst", topology_extra={"local": "l", "cloud": "c", "self_target": True},
            pods=[pod_cfg("p", "l")],
        )
        profile_based = {
            "sim": {"seed": 3, "duration": "5m"},
            "topology": {
                "clusters": [{"id": "e", "profile": "expanse-sscu", "scale_divisor": 28}],
                "kind": "decentralized",
                "pairs": [["e", "e"]],
            },
        }
        yield profile_based

    def test_any_config_accepted_by_validate_runs_clean(self):
        # validate-then-run: run must never raise validation errors after
        # validate accepted the document.
        for raw in self.variants():
            config = validate_config(copy.deepcopy(raw))
            sim = Simulation(config)
            report = sim.run()
            assert report is not None


def test_per_cluster_pipeline_changes_placement():
    # Default LeastAllocated spreads; a GpuBinpack-weighted cluster packs.
    nodes = [node_cfg("g1", cpu=32_000, mem="32GiB", gpu=4),
             node_cfg("g2", cpu=32_000, mem="32GiB", gpu=4)]
    pods = [pod_cfg(f"p{i}", "a", cpu=1000, mem="1GiB", gpu=1, federated=False,
                    submit=i * 1000, duration="1h") for i in range(2)]

    spread = base_config([{"id": "a", "nodes": nodes}], edges=[], pods=pods)
    _, spread_report = run_raw(spread)
    assert {p.bound_node for p in spread_report.pods} == {"g1", "g2"}

    packed = base_config(
        [{"id": "a", "nodes": nodes,
          "pipeline": {"scores": [{"name": "GpuBinpack", "weight": 1}]}}],
        edges=[], pods=pods,
    )
    _, packed_report = run_raw(packed)
    assert {p.bound_node for p in packed_report.pods} == {"g1"}


def test_retired_heartbeat_is_read_and_changes_nothing(tmp_path):
    # Targets report their aggregates when they change, so no period exists
    # any more; `heartbeat` still parses as a time and is then ignored.
    clusters = [{"id": "a", "nodes": [node_cfg("a-n1", cpu=4000)]},
                {"id": "b", "nodes": [node_cfg("b-n1", cpu=4000)]}]
    pods = [pod_cfg(f"p{i}", "ab"[i % 2], cpu=3000, submit=i * 700, duration="40s")
            for i in range(8)]
    raw = base_config(clusters, pairs=[("a", "b"), ("b", "a"), ("a", "a")], pods=pods,
                      jitter="5ms", duration="5m")
    logs = set()
    for heartbeat in (None, "1s", "1h"):
        raw["federation"] = {} if heartbeat is None else {"heartbeat": heartbeat}
        sim, _ = run_raw(raw)
        logs.add("\n".join(serialize_event(e) for e in sim.events))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--config", str(path)]) == EXIT_OK
    assert len(logs) == 1
    assert "heartbeat_ms" not in vars(validate_config(raw).federation)


def test_explicit_burst_topology_builds_expected_edges():
    raw = base_config(
        [{"id": "l", "nodes": [node_cfg("l1")]},
         {"id": "c", "nodes": [node_cfg("c1")]}],
        kind="burst", topology_extra={"local": "l", "cloud": "c", "self_target": False},
    )
    config = validate_config(raw)
    assert set(config.graph.edges) == {("l", "c")}


def rich_config():
    """A valid config that sets every record type: explicit and profile
    clusters, a quota, an allowlist, a pipeline, an edge with its own
    latency, federation and metascale sections, pods, batch jobs, templates
    and a camera trace."""
    raw = base_config(
        [{"id": "a", "nodes": [node_cfg("n1", labels={"zone": "x"}), node_cfg("n2")],
          "initial_batch_nodes": 1,
          "namespace_allowlist": ["default"],
          "namespace_quota": {"default": {"cpu": 8000, "memory": "16GiB", "gpu": 0}},
          "pipeline": {"scores": [{"name": "LeastAllocated", "weight": 1}]}},
         {"id": "b", "profile": "expanse-sscu", "scale_divisor": 28}],
        edges=[("a", "b")],
        pods=[pod_cfg("p1", "a", selector={"zone": "x"}), pod_cfg("p2", "a", submit="1m")],
        duration="1h",
    )
    raw["topology"]["edges"][0]["latency"] = {"base": "5ms", "jitter": "1ms"}
    raw["federation"] = {"election_timeout": "5s", "retry_backoff": "1s", "max_retries": 5,
                         "reservations": True,
                         "election_policy": "least_allocated"}
    raw["metascale"] = {"enabled": True, "tick": "60s", "provisioning_delay": "2m",
                        "cooldown": "10m", "min_batch_nodes": 0, "min_container_nodes": 1}
    raw["scenario"].update({
        "namespace": "default", "submit_cluster": "a", "cameras": 0, "rate_per_hour": 0,
        "threshold": 0.9, "ensemble_size": 2, "high_probability": 0.05,
        "high_range": [0.9, 1.0], "low_range": [0.0, 0.5], "camera_cooldown": "0s",
        "trace": [["cam-1", "2m", 0.95], ["cam-2", "3m", 0.1]],
        "retrain": {"cpu": 1000, "memory": "1GiB", "gpu": 0, "duration": "5m",
                    "selector": {"zone": "x"}},
        "ensemble_member": {"cpu": 1000, "memory": "1GiB", "duration": "5m"},
        "batch_jobs": [{"id": "j1", "cluster": "b", "submit": "1m", "node_count": 1,
                        "duration": "10m"}],
    })
    return raw


def kind_config(kind):
    """A valid config for each topology kind other than explicit."""
    clusters = [{"id": "a", "nodes": [node_cfg("n1")]}, {"id": "b", "nodes": [node_cfg("n2")]}]
    if kind == "decentralized":
        return base_config(clusters, pairs=[("a", "b")])
    extra = {"central": {"hub": "a", "leaves": ["b"]},
             "burst": {"local": "a", "cloud": "b", "self_target": True}}[kind]
    return base_config(clusters, kind=kind, topology_extra=extra)


def set_at(raw, location, value):
    """Set the field at a dotted location such as `topology.clusters[0].id`."""
    parts = [int(p[1:-1]) if p.startswith("[") else p
             for p in re.findall(r"\[\d+\]|[^.\[\]]+", location)]
    target = raw
    for part in parts[:-1]:
        target = target[part]
    target[parts[-1]] = value
    return raw


# For every field of every record: one wrong-type or out-of-range value, set
# at the location the error must name. (base, location, value)
LOCATION_CASES = [
    ("rich", "sim", 5),
    ("rich", "sim.seed", "x"),
    ("rich", "sim.duration", "soon"),
    ("rich", "topology", 5),
    ("rich", "topology.clusters[0]", 5),
    ("rich", "topology.kind", "ring"),
    ("rich", "topology.default_latency", 5),
    ("rich", "topology.default_latency.base", "x"),
    ("rich", "topology.default_latency.jitter", -1),
    ("rich", "topology.edges[0]", 5),
    ("rich", "topology.edges[0].source", "ghost"),
    ("rich", "topology.edges[0].target", 5),
    ("rich", "topology.edges[0].latency", 5),
    ("decentralized", "topology.pairs", 5),
    ("decentralized", "topology.pairs[0]", ["a"]),
    ("central", "topology.hub", 5),
    ("central", "topology.leaves", 5),
    ("burst", "topology.local", 5),
    ("burst", "topology.cloud", "ghost"),
    ("burst", "topology.self_target", "yes"),
    ("rich", "topology.clusters[0].id", 5),
    ("rich", "topology.clusters[1].profile", "mystery-machine"),
    ("rich", "topology.clusters[1].scale_divisor", 0),
    ("rich", "topology.clusters[0].nodes", 5),
    ("rich", "topology.clusters[0].initial_batch_nodes", -1),
    ("rich", "topology.clusters[0].namespace_allowlist", "default"),
    ("rich", "topology.clusters[0].namespace_quota.default", 5),
    ("rich", "topology.clusters[0].namespace_quota.default.cpu", -1),
    ("rich", "topology.clusters[0].namespace_quota.default.memory", "lots"),
    ("rich", "topology.clusters[0].namespace_quota.default.gpu", "x"),
    ("rich", "topology.clusters[0].pipeline", 5),
    ("rich", "topology.clusters[0].pipeline.scores", 5),
    ("rich", "topology.clusters[0].pipeline.scores[0]", 5),
    ("rich", "topology.clusters[0].pipeline.scores[0].name", "Nope"),
    ("rich", "topology.clusters[0].pipeline.scores[0].weight", -1),
    ("rich", "topology.clusters[0].nodes[0]", 5),
    ("rich", "topology.clusters[0].nodes[0].id", 5),
    ("rich", "topology.clusters[0].nodes[0].cpu", "x"),
    ("rich", "topology.clusters[0].nodes[0].memory", "lots"),
    ("rich", "topology.clusters[0].nodes[0].gpu", -1),
    ("rich", "topology.clusters[0].nodes[0].labels", {"zone": 5}),
    ("rich", "topology.clusters[0].nodes[0].pool", "Spot"),
    ("rich", "federation", 5),
    ("rich", "federation.election_timeout", "x"),
    ("rich", "federation.retry_backoff", -1),
    ("rich", "federation.max_retries", -1),
    ("rich", "federation.heartbeat", 1.5),
    ("rich", "federation.reservations", "yes"),
    ("rich", "federation.election_policy", "random"),
    ("rich", "metascale", 5),
    ("rich", "metascale.enabled", 1),
    ("rich", "metascale.tick", "x"),
    ("rich", "metascale.provisioning_delay", "x"),
    ("rich", "metascale.cooldown", "x"),
    ("rich", "metascale.min_batch_nodes", -1),
    ("rich", "metascale.min_container_nodes", "x"),
    ("rich", "scenario", 5),
    ("rich", "scenario.namespace", ""),
    ("rich", "scenario.submit_cluster", "ghost"),
    ("rich", "scenario.cameras", -1),
    ("rich", "scenario.rate_per_hour", "x"),
    ("rich", "scenario.threshold", 2),
    ("rich", "scenario.ensemble_size", 0),
    ("rich", "scenario.high_probability", "x"),
    ("rich", "scenario.high_range", [0.9]),
    ("rich", "scenario.low_range", [0.5, 0.1]),
    ("rich", "scenario.camera_cooldown", "x"),
    ("rich", "scenario.trace[0]", ["cam-1", "x", 0.5]),
    ("rich", "scenario.trace[1]", ["cam-2", "3m", 2]),
    ("rich", "scenario.trace_file", 5),
    ("rich", "scenario.retrain", 5),
    ("rich", "scenario.retrain.cpu", "x"),
    ("rich", "scenario.retrain.memory", "x"),
    ("rich", "scenario.retrain.gpu", -1),
    ("rich", "scenario.retrain.duration", "x"),
    ("rich", "scenario.retrain.selector", 5),
    ("rich", "scenario.ensemble_member", 5),
    ("rich", "scenario.pods[0]", 5),
    ("rich", "scenario.pods[0].id", 5),
    ("rich", "scenario.pods[0].cluster", "ghost"),
    ("rich", "scenario.pods[0].namespace", ""),
    ("rich", "scenario.pods[0].submit", "x"),
    ("rich", "scenario.pods[0].duration", "x"),
    ("rich", "scenario.pods[0].cpu", -1),
    ("rich", "scenario.pods[0].memory", "x"),
    ("rich", "scenario.pods[0].gpu", "x"),
    ("rich", "scenario.pods[0].selector", 5),
    ("rich", "scenario.pods[0].federated", "yes"),
    ("rich", "scenario.batch_jobs[0]", 5),
    ("rich", "scenario.batch_jobs[0].id", ""),
    ("rich", "scenario.batch_jobs[0].cluster", "ghost"),
    ("rich", "scenario.batch_jobs[0].submit", "x"),
    ("rich", "scenario.batch_jobs[0].node_count", 0),
    ("rich", "scenario.batch_jobs[0].duration", "x"),
    # Valid jobs, but the base leaves metascale, which runs them, disabled.
    ("profile", "scenario.batch_jobs",
     [{"id": "j1", "cluster": "a", "submit": "1m", "node_count": 1, "duration": "5m"}]),
]

BASES = {"rich": rich_config, "central": lambda: kind_config("central"),
         "burst": lambda: kind_config("burst"),
         "decentralized": lambda: kind_config("decentralized"),
         "profile": lambda: base_config([{"id": "a", "profile": "nautilus-mini"}])}


@pytest.mark.parametrize("base", sorted(BASES))
def test_location_case_bases_are_valid(base):
    validate_config(BASES[base]())


@pytest.mark.parametrize("base,location,value", LOCATION_CASES,
                         ids=[f"{b}:{loc}" for b, loc, _ in LOCATION_CASES])
def test_wrong_value_is_located(base, location, value):
    raw = set_at(BASES[base](), location, value)
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.location == location


HUGE_DIGITS = "9" * 400

# Malformed configs that once escaped `validate` as a Python traceback.
# (base config, location of the bad value, bad value)
TRACEBACK_CASES = [
    ("rich", "topology.clusters[0].namespace_quota", []),
    ("rich", "scenario.pods", 5),
    ("rich", "scenario.batch_jobs", 5),
    ("rich", "scenario.trace", 5),
    ("rich", "topology.edges", 5),
    ("profile", "topology.clusters[0].profile", ["x"]),
    ("central", "topology.leaves[0]", ["b"]),
    ("decentralized", "topology.pairs[0]", [["a"], "a"]),
    ("rich", "scenario.submit_cluster", ["a"]),
    ("rich", "topology.clusters[0].nodes[0].memory", HUGE_DIGITS + "GiB"),
    ("rich", "scenario.pods[0].duration", HUGE_DIGITS + "s"),
]


@pytest.mark.parametrize("base,location,value", TRACEBACK_CASES,
                         ids=[loc for _, loc, _ in TRACEBACK_CASES])
def test_malformed_value_is_a_located_config_error(base, location, value, tmp_path, capsys):
    raw = set_at(BASES[base](), location, value)
    with pytest.raises(ConfigError) as err:
        validate_config(copy.deepcopy(raw))
    assert err.value.location == location
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    err_text = capsys.readouterr().err
    assert err_text.startswith(f"error: {location}: ")
    assert "Traceback" not in err_text


@pytest.mark.parametrize("kind", ["central", "burst", "decentralized"])
def test_edges_need_an_explicit_topology(kind, tmp_path, capsys):
    # Only an explicit topology reads `edges`; elsewhere they were dropped.
    raw = kind_config(kind)
    raw["topology"]["edges"] = [{"source": "a", "target": "b"}]
    with pytest.raises(ConfigError) as err:
        validate_config(copy.deepcopy(raw))
    assert err.value.location == "topology.edges"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    err_text = capsys.readouterr().err
    assert err_text.startswith("error: topology.edges: ")
    assert "Traceback" not in err_text


# Each key that one topology kind reads: (key, a valid value, that kind).
KIND_KEYS = [
    ("pairs", [["a", "b"]], "decentralized"),
    ("hub", "a", "central"),
    ("leaves", ["b"], "central"),
    ("local", "a", "burst"),
    ("cloud", "b", "burst"),
    ("self_target", True, "burst"),
    ("self_target", False, "burst"),
]
FOREIGN_KEY_CASES = [
    (kind, key, value, reader)
    for kind in ("explicit", "central", "burst", "decentralized")
    for key, value, reader in KIND_KEYS
    if kind != reader
]


@pytest.mark.parametrize("kind,key,value,reader", FOREIGN_KEY_CASES,
                         ids=[f"{kind}-{key}-{value}" for kind, key, value, _ in FOREIGN_KEY_CASES])
def test_keys_of_other_topology_kinds_are_rejected(kind, key, value, reader, tmp_path, capsys):
    # Each kind reads only its own keys; the others were silently ignored.
    if kind == "explicit":
        raw = base_config([{"id": "a", "nodes": [node_cfg("n1")]},
                           {"id": "b", "nodes": [node_cfg("n2")]}], edges=[("a", "b")])
    else:
        raw = kind_config(kind)
    raw["topology"][key] = value
    with pytest.raises(ConfigError) as err:
        validate_config(copy.deepcopy(raw))
    assert err.value.location == f"topology.{key}"
    assert f"only a {reader} topology reads it" in str(err.value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    err_text = capsys.readouterr().err
    assert err_text.startswith(f"error: topology.{key}: ")
    assert "Traceback" not in err_text


def test_burst_self_target_defaults_to_true():
    raw = kind_config("burst")
    del raw["topology"]["self_target"]
    assert set(validate_config(raw).graph.edges) == {("a", "b"), ("a", "a")}


# Each scenario key only the wildfire trigger reads, with a valid value.
TRIGGER_KEY_VALUES = {
    "namespace": "fire",
    "submit_cluster": "a",
    "threshold": 0.5,
    "ensemble_size": 2,
    "camera_cooldown": "5m",
    "retrain": {"cpu": 1000, "memory": "1GiB"},
    "ensemble_member": {"cpu": 1000, "memory": "1GiB"},
}


@pytest.mark.parametrize("cameras", [{}, {"cameras": 4, "rate_per_hour": 0}],
                         ids=["no-cameras", "cameras-without-rate"])
@pytest.mark.parametrize("key", sorted(TRIGGER_KEY_VALUES))
def test_trigger_keys_need_a_wildfire_scenario(key, cameras, tmp_path, capsys):
    # Without a trace, a trace file or a camera rate no trigger runs, and
    # these keys were silently ignored.
    raw = base_config([{"id": "a", "nodes": [node_cfg("n1")]}])
    raw["scenario"].update(cameras)
    raw["scenario"][key] = TRIGGER_KEY_VALUES[key]
    with pytest.raises(ConfigError) as err:
        validate_config(copy.deepcopy(raw))
    assert err.value.location == f"scenario.{key}"
    assert "only the wildfire trigger reads it" in str(err.value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    err_text = capsys.readouterr().err
    assert err_text.startswith(f"error: scenario.{key}: ")
    assert "Traceback" not in err_text


def test_wildfire_reads_the_trigger_defaults():
    raw = base_config([{"id": "a", "nodes": [node_cfg("n1")]}])
    raw["scenario"].update(
        submit_cluster="a", trace=[["cam", 0, 0.95]],
        retrain=TRIGGER_KEY_VALUES["retrain"], ensemble_member=TRIGGER_KEY_VALUES["ensemble_member"],
    )
    scenario = validate_config(raw).scenario
    assert (scenario.namespace, scenario.threshold, scenario.ensemble_size,
            scenario.camera_cooldown_ms) == ("default", 0.9, 8, 0)
    off = validate_config(base_config([{"id": "a", "nodes": [node_cfg("n1")]}])).scenario
    assert not off.wildfire_enabled
    assert (off.namespace, off.threshold, off.ensemble_size, off.camera_cooldown_ms) == (
        None, None, None, None)


@pytest.mark.parametrize("cluster", [
    {"id": "a", "profile": "nautilus-mini", "scale_divisor": 999},
    {"id": "a", "nodes": [node_cfg("n1")], "scale_divisor": 2},
], ids=["nautilus-mini", "explicit-nodes"])
def test_scale_divisor_needs_a_scaled_profile(cluster, tmp_path, capsys):
    # Only expanse-sscu scales; elsewhere the divisor was silently ignored.
    raw = base_config([cluster])
    location = "topology.clusters[0].scale_divisor"
    with pytest.raises(ConfigError) as err:
        validate_config(copy.deepcopy(raw))
    assert err.value.location == location
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    err_text = capsys.readouterr().err
    assert err_text.startswith(f"error: {location}: ")
    assert "Traceback" not in err_text
    del cluster["scale_divisor"]
    validate_config(base_config([cluster]))


@pytest.mark.parametrize("location", ["scenario.pods[0].selector",
                                      "scenario.retrain.selector",
                                      "scenario.ensemble_member.selector"])
def test_selector_values_must_be_strings(location):
    # A non-string selector value never equals a node label, so the pod
    # would validate and then stay Pending for the whole run.
    raw = set_at(rich_config(), location, {"zone": 5})
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.location == location


@pytest.mark.parametrize("text", [
    '{"sim": {"seed": ' + "1" * 5000 + "}}",  # too many digits to convert to an int
    '{"sim": ' + "[" * 100_000 + "]" * 100_000 + "}",  # nested past the decoder's depth
], ids=["long-int", "deep-nesting"])
def test_json_the_decoder_refuses_is_a_config_error(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="invalid JSON") as err:
        parse_config(str(path))
    assert err.value.location == str(path)


def _json_values():
    scalars = (
        st.none() | st.booleans()
        | st.integers(min_value=-(10 ** 6), max_value=10 ** 6)
        | st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 63])
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.text(max_size=6)
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=6,
    )


def _paths(value, prefix=()):
    """Every path to a value or subtree inside a JSON document."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, prefix + (index,))


FUZZ_BASES = [json.loads(BUNDLED.read_text()), rich_config()]
FUZZ_TARGETS = [(i, path) for i, base in enumerate(FUZZ_BASES) for path in _paths(base)]


@settings(max_examples=600, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(target=st.sampled_from(FUZZ_TARGETS), value=_json_values())
def test_fuzzed_config_validates_or_raises_config_error(target, value):
    # One value or subtree of a valid config replaced by random JSON must
    # give a RunConfig or a ConfigError, never another exception.
    index, path = target
    raw = copy.deepcopy(FUZZ_BASES[index])
    if path:
        parent = raw
        for part in path[:-1]:
            parent = parent[part]
        parent[path[-1]] = value
    else:
        raw = value
    try:
        assert isinstance(validate_config(raw), RunConfig)
    except ConfigError:
        pass
