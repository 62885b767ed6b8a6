"""Run configuration: JSON schema, validation, and object construction.

Each record of the config is declared once, as a table that maps each of
its keys to a `(parser, default)` pair, plus the field name of the object
built from the record where that differs from the key (see `record`). A
parser takes `(value, path)`, with `path` the value's dotted location, and
returns the parsed value or raises a `ConfigError` at `path`. A record's
allowed keys are its table's keys; a key that is absent or null takes the
default, which is written as in a config file and parsed once, at import.
Rules that relate several fields follow the tables as plain code.

Time values accept human units (ms, s, m, h) and normalize to integer
milliseconds.
"""

from __future__ import annotations

import json
import math
import os
import re
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .cluster import ClusterSpec, NodePool, NodeSpec, PodSpec
from .errors import ConfigError
from .federation import ELECTION_LEAST_ALLOCATED, ELECTION_PREFER_LOCAL, FederationParams
from .graph import FederationGraph, LatencyModel, build_burst, build_central, build_decentralized
from .metascale import BatchJob, MetaScaleParams
from .profiles import PROFILES, SCALED_PROFILES
from .resources import ResourceVector, parse_memory
from .scenario import CameraEvent, PodTemplate, TriggerRule, load_trace
from .scheduling import DEFAULT_SCORES, SCORE_PLUGINS

Parser = Callable[[Any, str], Any]

# The default of a key that must be given.
REQUIRED = object()

_TIME_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(ms|s|m|h)?\s*$")
_TIME_UNITS = {None: 1, "ms": 1, "s": 1_000, "m": 60_000, "h": 3_600_000}


# -- parsers -------------------------------------------------------------------


def parse_time(value, path: str = "time") -> int:
    """Normalize '10ms' / '5s' / '2h' / bare integers to milliseconds."""
    if type(value) is int:
        if value < 0:
            raise ConfigError(f"time must be >= 0, got {value}", path)
        return value
    if type(value) is str:
        m = _TIME_RE.match(value)
        if not m:
            raise ConfigError(f"bad time value {value!r} (expected e.g. '500ms', '5s', '2h')", path)
        ms = float(m.group(1)) * _TIME_UNITS[m.group(2)]
        if not math.isfinite(ms):
            raise ConfigError(f"time value too large: {value!r}", path)
        return int(ms)
    raise ConfigError(f"not a time value: {value!r}", path)


def integer(minimum: int) -> Parser:
    def parse(value, path):
        if type(value) is not int:
            raise ConfigError(f"must be an integer, got {value!r}", path)
        if value < minimum:
            raise ConfigError(f"must be >= {minimum}, got {value}", path)
        return value
    return parse


def number(lo: Optional[float] = None, hi: Optional[float] = None) -> Parser:
    """A finite float within [lo, hi]; an int too large for a float is infinite."""
    def parse(value, path):
        if type(value) is not float and type(value) is not int:
            raise ConfigError(f"must be a number, got {value!r}", path)
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"must be a finite number, got {value}", path)
        if lo is not None and value < lo:
            raise ConfigError(f"must be >= {lo}, got {value}", path)
        if hi is not None and value > hi:
            raise ConfigError(f"must be <= {hi}, got {value}", path)
        return value
    return parse


def boolean(value, path) -> bool:
    if type(value) is not bool:
        raise ConfigError(f"must be true or false, got {value!r}", path)
    return value


def string(value, path) -> str:
    """A non-empty string."""
    if type(value) is not str or not value:
        raise ConfigError(f"must be a non-empty string, got {value!r}", path)
    return value


def one_of(what: str, choices) -> Parser:
    choices = tuple(choices)

    def parse(value, path):
        if type(value) is not str or value not in choices:
            raise ConfigError(f"unknown {what} {value!r} (known: {', '.join(choices)})", path)
        return value
    return parse


def list_of(item: Parser, non_empty: bool = False) -> Parser:
    def parse(value, path):
        if type(value) is not list or (non_empty and not value):
            raise ConfigError("must be a non-empty list" if non_empty else "must be a list", path)
        return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return parse


def map_of(item: Parser) -> Parser:
    """An object whose every value `item` parses, located at its key."""
    def parse(value, path):
        if type(value) is not dict:
            raise ConfigError(f"expected an object, got {type(value).__name__}", path)
        return {k: item(v, f"{path}.{k}") for k, v in value.items()}
    return parse


def string_map(value, path) -> Dict[str, str]:
    """Node labels and pod selectors."""
    if type(value) is not dict or not all(
        type(k) is str and type(v) is str for k, v in value.items()
    ):
        raise ConfigError("must map strings to strings", path)
    return value


def memory_size(value, path) -> int:
    try:
        return parse_memory(value)
    except ValueError as exc:
        raise ConfigError(str(exc), path) from None


_probability = number(0.0, 1.0)


def probability_range(value, path) -> Tuple[float, float]:
    if type(value) is not list or len(value) != 2:
        raise ConfigError("must be [low, high] probabilities", path)
    lo, hi = _probability(value[0], path), _probability(value[1], path)
    if lo > hi:
        raise ConfigError(f"must satisfy 0 <= low <= high <= 1, got {value}", path)
    return lo, hi


# The cluster references read by the `validate_config` call in progress, as
# (cluster id, location). They are checked against the declared clusters once
# the whole document is read, so a parser needs no cluster list.
_cluster_refs: ContextVar[List[Tuple[str, str]]] = ContextVar("cluster_refs")


def cluster_ref(value, path) -> str:
    cluster_id = string(value, path)
    _cluster_refs.get().append((cluster_id, path))
    return cluster_id


def cluster_pair(value, path) -> Tuple[str, str]:
    if type(value) is not list or len(value) != 2:
        raise ConfigError("each pair must be [source, target]", path)
    return cluster_ref(value[0], path), cluster_ref(value[1], path)


def camera_event(value, path) -> CameraEvent:
    if type(value) is not list or len(value) != 3:
        raise ConfigError("each trace row is [camera_id, time, probability]", path)
    camera, when, probability = value
    return CameraEvent(string(camera, path), parse_time(when, path), _probability(probability, path))


def _check_keys(section, table, path: str) -> None:
    if type(section) is not dict:
        raise ConfigError(f"expected an object, got {type(section).__name__}", path)
    if not section.keys() <= table.keys():
        unknown = sorted(str(k) for k in section if k not in table)
        raise ConfigError(f"unknown keys: {', '.join(unknown)}", path)


def record(table: Dict[str, tuple], build: Callable = dict) -> Parser:
    """The parser of one record, built from its table.

    Each row is `key: (parser, default)` or `key: (parser, default, name)`,
    where `name` is the keyword `build` takes the value as (the key itself
    when not given). The record is `build(**values)`.
    """
    rows, defaults, required = {}, {}, []
    for key, (parse, default, *name) in table.items():
        name = name[0] if name else key
        rows[key] = (name, parse)
        if default is REQUIRED:
            required.append((key, name))
        else:
            defaults[name] = default if default is None else parse(default, key)

    def parse_record(value, path):
        _check_keys(value, rows, path)
        values = defaults.copy()
        for key, raw in value.items():
            if raw is not None:
                name, parse = rows[key]
                values[name] = parse(raw, f"{path}.{key}")
        for key, name in required:
            if name not in values:
                raise ConfigError("missing required key", f"{path}.{key}")
        return build(**values)
    return parse_record


def _unique(ids: List[str], what: str, path: str) -> None:
    seen = set()
    for i, item_id in enumerate(ids):
        if item_id in seen:
            raise ConfigError(f"duplicate {what} ids: {item_id!r}", f"{path}[{i}]")
        seen.add(item_id)


# -- records -------------------------------------------------------------------

RESOURCES = {
    "cpu": (integer(0), 0),
    "memory": (memory_size, 0),
    "gpu": (integer(0), 0),
}


def _with_vector(build: Callable, name: str) -> Callable:
    """`build` given the record's cpu, memory and gpu as one vector `name`."""
    def build_with(cpu, memory, gpu, **values):
        return build(**values, **{name: ResourceVector(cpu, memory, gpu)})
    return build_with


resources = record(RESOURCES, lambda cpu, memory, gpu: ResourceVector(cpu, memory, gpu))


@dataclass
class ClusterConfig:
    cluster_id: str
    profile: Optional[str]
    scale_divisor: Optional[int]
    explicit_nodes: Optional[List[dict]]
    initial_batch_nodes: int
    namespace_allowlist: Optional[List[str]]
    namespace_quota: Dict[str, ResourceVector]
    score_weights: Tuple[Tuple[str, float], ...]

    def build_nodes(self) -> List[NodeSpec]:
        if self.profile is not None:
            scale = {} if self.scale_divisor is None else {"divisor": self.scale_divisor}
            nodes = PROFILES[self.profile](self.cluster_id, **scale)
        else:
            nodes = [
                NodeSpec(
                    node_id=n["id"],
                    cluster_id=self.cluster_id,
                    capacity=n["capacity"],
                    labels=dict(n["labels"]),
                    pool=NodePool(n["pool"]),
                )
                for n in self.explicit_nodes
            ]
        for node in nodes[: self.initial_batch_nodes]:
            node.pool = NodePool.BATCH
        return nodes

    def build_spec(self) -> ClusterSpec:
        spec = ClusterSpec(
            cluster_id=self.cluster_id,
            namespace_allowlist=(
                None if self.namespace_allowlist is None else set(self.namespace_allowlist)
            ),
            namespace_quota=dict(self.namespace_quota),
        )
        for node in self.build_nodes():
            spec.add_node(node)
        return spec


NODE = {
    "id": (string, REQUIRED),
    **RESOURCES,
    "labels": (string_map, {}),
    "pool": (one_of("pool", (pool.value for pool in NodePool)), "Container"),
}

SCORE = {
    "name": (one_of("score plugin", SCORE_PLUGINS), REQUIRED),
    "weight": (number(lo=0.0), 1.0),
}

# Node feasibility is fixed, so score weights are all a pipeline configures.
PIPELINE = {
    "scores": (list_of(record(SCORE, lambda name, weight: (name, weight))), None),
}

# A cluster has exactly one of `profile` and `nodes`, and only a profile in
# SCALED_PROFILES takes `scale_divisor`; `validate_config` checks those and
# the node ids.
CLUSTER = {
    "id": (string, REQUIRED, "cluster_id"),
    "profile": (one_of("profile", PROFILES), None),
    "scale_divisor": (integer(1), None),
    "nodes": (list_of(record(NODE, _with_vector(dict, "capacity")), non_empty=True), None,
              "explicit_nodes"),
    "initial_batch_nodes": (integer(0), 0),
    "namespace_allowlist": (list_of(string), None),
    "namespace_quota": (map_of(resources), {}),
    "pipeline": (
        record(PIPELINE, lambda scores: tuple(DEFAULT_SCORES if scores is None else scores)),
        {}, "score_weights",
    ),
}

# An absent part of an edge's latency is the topology's default latency.
LATENCY = {
    "base": (parse_time, None),
    "jitter": (parse_time, None),
}


def _latency(parts: Optional[dict], default: LatencyModel) -> LatencyModel:
    if parts is None:
        return default
    base, jitter = parts["base"], parts["jitter"]
    return LatencyModel(
        default.base_ms if base is None else base,
        default.jitter_ms if jitter is None else jitter,
    )


EDGE = {
    "source": (cluster_ref, REQUIRED),
    "target": (cluster_ref, REQUIRED),
    "latency": (record(LATENCY), None),
}

# Which of hub, leaves, local, cloud, self_target, pairs and edges apply
# depends on the kind (`KIND_OF_KEY`); `_graph` reads them and rejects the
# keys of other kinds.
TOPOLOGY = {
    "clusters": (list_of(record(CLUSTER, ClusterConfig), non_empty=True), REQUIRED),
    "kind": (one_of("topology kind", ("central", "burst", "decentralized", "explicit")), "explicit"),
    "default_latency": (record(LATENCY), None),
    "pairs": (list_of(cluster_pair), None),
    "hub": (cluster_ref, None),
    "leaves": (list_of(cluster_ref), None),
    "local": (cluster_ref, None),
    "cloud": (cluster_ref, None),
    "self_target": (boolean, None),
    "edges": (list_of(record(EDGE)), None),
}

# The topology kind that reads each kind-specific key.
KIND_OF_KEY = {
    "pairs": "decentralized",
    "hub": "central",
    "leaves": "central",
    "local": "burst",
    "cloud": "burst",
    "self_target": "burst",
    "edges": "explicit",
}

SIM = {
    "seed": (integer(0), 0),
    "duration": (parse_time, "1h"),
}

FEDERATION = {
    "election_timeout": (parse_time, "5s", "election_timeout_ms"),
    "retry_backoff": (parse_time, "1s", "retry_backoff_ms"),
    "max_retries": (integer(0), 5),
    # Retired: a target reports its aggregates whenever they change. A time
    # is still accepted, and ignored, because the bundled config sets it and
    # the benchmark's wildfire workload pins that file's contents.
    "heartbeat": (parse_time, None),
    "reservations": (boolean, True),
    "election_policy": (
        one_of("election policy", (ELECTION_LEAST_ALLOCATED, ELECTION_PREFER_LOCAL)),
        ELECTION_LEAST_ALLOCATED,
    ),
}


def _federation(heartbeat, **params) -> FederationParams:
    return FederationParams(**params)


METASCALE = {
    "enabled": (boolean, False),
    "tick": (parse_time, "60s", "tick_ms"),
    "provisioning_delay": (parse_time, "120s", "provisioning_delay_ms"),
    "cooldown": (parse_time, "10m", "cooldown_ms"),
    "min_batch_nodes": (integer(0), 0),
    "min_container_nodes": (integer(0), 0),
}

TEMPLATE = {
    **RESOURCES,
    "duration": (parse_time, "10m"),
    "selector": (string_map, {}, "node_selector"),
}


@dataclass
class PodEntry:
    pod_id: str
    cluster: str
    namespace: str
    submit_time: int
    duration: int
    request: ResourceVector
    node_selector: Dict[str, str]
    federated: bool

    def make(self) -> PodSpec:
        return PodSpec(
            pod_id=self.pod_id,
            namespace=self.namespace,
            request=self.request,
            node_selector=dict(self.node_selector),
            federation_eligible=self.federated,
            submit_time=self.submit_time,
            duration=self.duration,
        )


POD = {
    "id": (string, REQUIRED, "pod_id"),
    "cluster": (cluster_ref, REQUIRED),
    "namespace": (string, "default"),
    "submit": (parse_time, 0, "submit_time"),
    "duration": (parse_time, "5m"),
    **RESOURCES,
    "selector": (string_map, {}, "node_selector"),
    "federated": (boolean, False),
}

BATCH_JOB = {
    "id": (string, REQUIRED, "job_id"),
    "cluster": (cluster_ref, REQUIRED),
    "submit": (parse_time, 0, "submit_time"),
    "node_count": (integer(1), 1),
    "duration": (parse_time, "10m"),
}


@dataclass
class ScenarioConfig:
    # The trigger keys (`TRIGGER_KEYS`) are None unless wildfire is enabled.
    namespace: Optional[str]
    submit_cluster: Optional[str]
    cameras: int
    rate_per_hour: float
    threshold: Optional[float]
    ensemble_size: Optional[int]
    high_probability: float
    high_range: Tuple[float, float]
    low_range: Tuple[float, float]
    camera_cooldown_ms: Optional[int]
    trace: List[CameraEvent]
    trace_file: Optional[str]
    retrain: Optional[PodTemplate]
    ensemble_member: Optional[PodTemplate]
    pods: List[PodEntry]
    batch_jobs: List[BatchJob]

    def rule(self) -> TriggerRule:
        return TriggerRule(
            confidence_threshold=self.threshold,
            retrain_template=self.retrain,
            ensemble_template=self.ensemble_member,
            ensemble_size=self.ensemble_size,
            camera_cooldown_ms=self.camera_cooldown_ms,
        )

    @property
    def wildfire_enabled(self) -> bool:
        return bool(self.trace) or self.trace_file is not None or (
            self.cameras > 0 and self.rate_per_hour > 0
        )


# The scenario keys only the wildfire trigger reads, as key -> (field name,
# value a wildfire scenario takes when the key is absent; None: it must be
# given). Their table defaults are None, so a key that is set can be told
# from one that is not, and set without wildfire is a ConfigError.
TRIGGER_KEYS = {
    "namespace": ("namespace", "default"),
    "submit_cluster": ("submit_cluster", None),
    "threshold": ("threshold", 0.9),
    "ensemble_size": ("ensemble_size", 8),
    "camera_cooldown": ("camera_cooldown_ms", 0),
    "retrain": ("retrain", None),
    "ensemble_member": ("ensemble_member", None),
}


def _scenario(trace, trace_file, pods, batch_jobs, **values) -> ScenarioConfig:
    if trace_file is not None:
        try:
            trace = trace + load_trace(trace_file, parse_time)
        except (OSError, ValueError, ConfigError) as exc:
            raise ConfigError(str(exc), "scenario.trace_file") from None
    _unique([p.pod_id for p in pods], "pod", "scenario.pods")
    _unique([j.job_id for j in batch_jobs], "job", "scenario.batch_jobs")
    config = ScenarioConfig(
        trace=sorted(trace, key=lambda e: (e.time, e.camera_id)),
        trace_file=trace_file, pods=list(pods), batch_jobs=list(batch_jobs), **values,
    )
    if not config.wildfire_enabled:
        for key, (name, _) in TRIGGER_KEYS.items():
            if values[name] is not None:
                raise ConfigError(
                    "only the wildfire trigger reads it, and no 'trace', 'trace_file' "
                    "or 'cameras' with 'rate_per_hour' enables one",
                    f"scenario.{key}",
                )
        return config
    for name, default in TRIGGER_KEYS.values():
        if values[name] is None:
            setattr(config, name, default)
    if config.submit_cluster is None:
        raise ConfigError(
            "a wildfire scenario needs 'submit_cluster'", "scenario.submit_cluster"
        )
    if config.retrain is None or config.ensemble_member is None:
        raise ConfigError(
            "a wildfire scenario needs 'retrain' and 'ensemble_member' templates", "scenario"
        )
    return config


template = record(TEMPLATE, _with_vector(PodTemplate, "request"))

SCENARIO = {
    "namespace": (string, None),
    "submit_cluster": (cluster_ref, None),
    "cameras": (integer(0), 0),
    "rate_per_hour": (number(lo=0.0), 0),
    "threshold": (_probability, None),
    "ensemble_size": (integer(1), None),
    "high_probability": (_probability, 0.05),
    "high_range": (probability_range, [0.9, 1.0]),
    "low_range": (probability_range, [0.0, 0.5]),
    "camera_cooldown": (parse_time, None, "camera_cooldown_ms"),
    "trace": (list_of(camera_event), []),
    "trace_file": (string, None),
    "retrain": (template, None),
    "ensemble_member": (template, None),
    "pods": (list_of(record(POD, _with_vector(PodEntry, "request"))), []),
    "batch_jobs": (list_of(record(BATCH_JOB, BatchJob)), []),
}

# The top-level sections; an absent or null section reads as {}.
SECTIONS = {
    "sim": record(SIM),
    "topology": record(TOPOLOGY),
    "federation": record(FEDERATION, _federation),
    "metascale": record(METASCALE, MetaScaleParams),
    "scenario": record(SCENARIO, _scenario),
}


@dataclass
class RunConfig:
    seed: int
    duration_ms: int
    clusters: List[ClusterConfig]
    graph: FederationGraph
    federation: FederationParams
    metascale: MetaScaleParams
    scenario: ScenarioConfig


# -- rules across fields -------------------------------------------------------


def _needed(topology: dict, key: str):
    value = topology[key]
    if value is None:
        raise ConfigError(f"a {topology['kind']} topology needs '{key}'", f"topology.{key}")
    return value


def _graph(topology: dict, cluster_ids: set) -> FederationGraph:
    default = _latency(topology["default_latency"], LatencyModel())
    kind = topology["kind"]
    for key, reader in KIND_OF_KEY.items():
        if reader != kind and topology[key] is not None:
            raise ConfigError(
                f"a {kind} topology takes no '{key}'; only a {reader} topology reads it",
                f"topology.{key}",
            )
    if kind == "explicit":
        graph = FederationGraph(cluster_ids)
        for edge in topology["edges"] or ():
            graph.add_edge(edge["source"], edge["target"], _latency(edge["latency"], default))
        return graph
    if kind == "decentralized":
        return build_decentralized(cluster_ids, _needed(topology, "pairs"), default)
    if kind == "central":
        hub, leaves = _needed(topology, "hub"), _needed(topology, "leaves")
        if hub in leaves:
            raise ConfigError("hub must not appear among leaves", "topology.leaves")
        graph = build_central(hub, leaves, default)
    else:
        self_target = topology["self_target"] is not False
        graph = build_burst(
            _needed(topology, "local"), _needed(topology, "cloud"), self_target, default
        )
    for cluster_id in cluster_ids:
        graph.add_cluster(cluster_id)
    return graph


def validate_config(raw: dict, base_seed: Optional[int] = None) -> RunConfig:
    """Validate a parsed JSON document and construct the run configuration."""
    _check_keys(raw, SECTIONS, "config")
    if raw.get("topology") is None:
        raise ConfigError("missing required section", "config.topology")
    refs: List[Tuple[str, str]] = []
    token = _cluster_refs.set(refs)
    try:
        sim, topology, federation, metascale, scenario = [
            parse({} if raw.get(name) is None else raw[name], name)
            for name, parse in SECTIONS.items()
        ]
    finally:
        _cluster_refs.reset(token)

    clusters = topology["clusters"]
    cluster_ids = [c.cluster_id for c in clusters]
    _unique(cluster_ids, "cluster", "topology.clusters")
    for i, cluster in enumerate(clusters):
        path = f"topology.clusters[{i}]"
        if (cluster.profile is None) == (cluster.explicit_nodes is None):
            raise ConfigError("needs exactly one of 'profile' and 'nodes'", path)
        if cluster.scale_divisor is not None and cluster.profile not in SCALED_PROFILES:
            raise ConfigError(
                f"only the {', '.join(sorted(SCALED_PROFILES))} profile takes a scale_divisor",
                f"{path}.scale_divisor",
            )
        _unique([n["id"] for n in cluster.explicit_nodes or ()], "node", f"{path}.nodes")
    known = set(cluster_ids)
    for cluster_id, location in refs:
        if cluster_id not in known:
            raise ConfigError(f"unknown cluster {cluster_id!r}", location)

    # Anything submitted after the end of the run would silently vanish
    # from the metrics, so reject it up front.
    duration = sim["duration"]
    for what, entries in (("pods", scenario.pods), ("batch_jobs", scenario.batch_jobs)):
        for i, entry in enumerate(entries):
            if entry.submit_time > duration:
                raise ConfigError(f"submits after the run ends ({duration} ms)",
                                  f"scenario.{what}[{i}].submit")
    for event in scenario.trace:
        if event.time > duration:
            raise ConfigError(f"event at {event.time} ms is after the run ends", "scenario.trace")
    # Only the metascaler runs batch jobs; without it they would vanish.
    if scenario.batch_jobs and not metascale.enabled:
        raise ConfigError("batch jobs need metascale.enabled", "scenario.batch_jobs")

    return RunConfig(
        seed=base_seed if base_seed is not None else sim["seed"],
        duration_ms=duration,
        clusters=clusters,
        graph=_graph(topology, known),
        federation=federation,
        metascale=metascale,
        scenario=scenario,
    )


def load_raw(path: str) -> dict:
    """Read a config file into the dict `validate_config` takes."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path) from None
    if not text.strip():
        raise ConfigError("config file is empty", path)
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and integers too long to convert;
        # RecursionError, nesting deeper than the decoder can follow.
        raise ConfigError(f"invalid JSON: {exc}", path) from None
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object", path)
    # A relative trace file names a file next to the config, wherever the
    # command runs from.
    scenario = raw.get("scenario")
    trace_file = scenario.get("trace_file") if isinstance(scenario, dict) else None
    if isinstance(trace_file, str) and trace_file:
        scenario["trace_file"] = os.path.join(os.path.dirname(path), trace_file)
    return raw


def parse_config(path: str, base_seed: Optional[int] = None) -> RunConfig:
    return validate_config(load_raw(path), base_seed=base_seed)
