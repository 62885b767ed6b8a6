import copy
import importlib.resources
import json
import math

import pytest

from fedsched.cli import EXIT_CONFIG, main
from fedsched.config import parse_config, parse_time, validate_config
from fedsched.errors import ConfigError
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
        for bad in ("", "fast", "-5s", "5 hours", None, True, -1):
            with pytest.raises(ConfigError):
                parse_time(bad)


class TestBundledConfig:
    def test_parses_two_clusters_with_mutual_edges(self):
        config = parse_config(str(BUNDLED))
        assert sorted(config.cluster_ids()) == ["expanse", "nautilus"]
        assert config.graph.has_edge("expanse", "nautilus")
        assert config.graph.has_edge("nautilus", "expanse")

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


def test_explicit_burst_topology_builds_expected_edges():
    raw = base_config(
        [{"id": "l", "nodes": [node_cfg("l1")]},
         {"id": "c", "nodes": [node_cfg("c1")]}],
        kind="burst", topology_extra={"local": "l", "cloud": "c", "self_target": False},
    )
    config = validate_config(raw)
    assert set(config.graph.edges) == {("l", "c")}
