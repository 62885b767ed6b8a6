"""Run configuration: JSON schema, validation, and object construction.

Validation is strict: unknown keys, negative quantities and dangling cluster
references are rejected with the dotted location of the offending field.
Time values accept human units (ms, s, m, h) and normalize to integer
milliseconds.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .cluster import ClusterSpec, NodePool, NodeSpec, PodSpec
from .errors import ConfigError
from .federation import (
    ELECTION_LEAST_ALLOCATED,
    ELECTION_PREFER_LOCAL,
    FederationParams,
)
from .graph import (
    FederationGraph,
    LatencyModel,
    build_burst,
    build_central,
    build_decentralized,
)
from .metascale import BatchJob, MetaScaleParams
from .profiles import PROFILES, expanse_sscu, nautilus_mini
from .resources import ResourceVector, parse_memory
from .scenario import CameraEvent, PodTemplate, TriggerRule, load_trace
from .scheduling import DEFAULT_SCORES, SCORE_PLUGINS

_TIME_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(ms|s|m|h)?\s*$")
_TIME_UNITS = {None: 1, "ms": 1, "s": 1_000, "m": 60_000, "h": 3_600_000}


def parse_time(value, path: str = "time") -> int:
    """Normalize '10ms' / '5s' / '2h' / bare integers to milliseconds."""
    if isinstance(value, bool):
        raise ConfigError(f"not a time value: {value!r}", path)
    if isinstance(value, int):
        if value < 0:
            raise ConfigError(f"time must be >= 0, got {value}", path)
        return value
    if isinstance(value, str):
        m = _TIME_RE.match(value)
        if not m:
            raise ConfigError(f"bad time value {value!r} (expected e.g. '500ms', '5s', '2h')", path)
        return int(float(m.group(1)) * _TIME_UNITS[m.group(2)])
    raise ConfigError(f"not a time value: {value!r}", path)


def _check_keys(section: dict, allowed, path: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"expected an object, got {type(section).__name__}", path)
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}", path)

def _get_int(section: dict, key: str, default: int, path: str, minimum: int = 0) -> int:
    value = section.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"must be an integer, got {value!r}", f"{path}.{key}")
    if value < minimum:
        raise ConfigError(f"must be >= {minimum}, got {value}", f"{path}.{key}")
    return value


def _get_float(section: dict, key: str, default: float, path: str, lo=None, hi=None) -> float:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"must be a number, got {value!r}", f"{path}.{key}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"must be a finite number, got {value}", f"{path}.{key}")
    if lo is not None and value < lo:
        raise ConfigError(f"must be >= {lo}, got {value}", f"{path}.{key}")
    if hi is not None and value > hi:
        raise ConfigError(f"must be <= {hi}, got {value}", f"{path}.{key}")
    return value


def _get_bool(section: dict, key: str, default: bool, path: str) -> bool:
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"must be true or false, got {value!r}", f"{path}.{key}")
    return value


def _get_str(section: dict, key: str, path: str, default=None, required=False) -> Optional[str]:
    if required and key not in section:
        raise ConfigError("missing required key", f"{path}.{key}")
    value = section.get(key, default)
    if value is None and not required:
        return default
    if not isinstance(value, str) or not value:
        raise ConfigError(f"must be a non-empty string, got {value!r}", f"{path}.{key}")
    return value


def parse_resources(section: dict, path: str) -> ResourceVector:
    _check_keys(section, ("cpu", "memory", "gpu"), path)
    cpu = _get_int(section, "cpu", 0, path)
    gpu = _get_int(section, "gpu", 0, path)
    try:
        memory = parse_memory(section.get("memory", 0))
    except ValueError as exc:
        raise ConfigError(str(exc), f"{path}.memory") from None
    return ResourceVector(cpu, memory, gpu)


def _parse_latency(section: Optional[dict], path: str, default: LatencyModel) -> LatencyModel:
    if section is None:
        return default
    _check_keys(section, ("base", "jitter"), path)
    return LatencyModel(
        base_ms=parse_time(section.get("base", default.base_ms), f"{path}.base"),
        jitter_ms=parse_time(section.get("jitter", default.jitter_ms), f"{path}.jitter"),
    )


@dataclass
class ClusterConfig:
    cluster_id: str
    profile: Optional[str]
    scale_divisor: int
    explicit_nodes: List[dict]
    initial_batch_nodes: int
    namespace_allowlist: Optional[List[str]]
    namespace_quota: Dict[str, ResourceVector]
    score_weights: Tuple[Tuple[str, float], ...]

    def build_nodes(self) -> List[NodeSpec]:
        if self.profile is not None:
            if self.profile == "expanse-sscu":
                nodes = expanse_sscu(self.cluster_id, self.scale_divisor)
            else:
                nodes = nautilus_mini(self.cluster_id)
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


@dataclass
class ScenarioConfig:
    namespace: str = "default"
    submit_cluster: Optional[str] = None
    cameras: int = 0
    rate_per_hour: float = 0.0
    threshold: float = 0.9
    ensemble_size: int = 8
    high_probability: float = 0.05
    high_range: Tuple[float, float] = (0.9, 1.0)
    low_range: Tuple[float, float] = (0.0, 0.5)
    camera_cooldown_ms: int = 0
    trace: List[CameraEvent] = field(default_factory=list)
    trace_file: Optional[str] = None
    retrain: Optional[PodTemplate] = None
    ensemble_member: Optional[PodTemplate] = None
    pods: List[PodEntry] = field(default_factory=list)
    batch_jobs: List[BatchJob] = field(default_factory=list)

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


@dataclass
class RunConfig:
    seed: int
    duration_ms: int
    clusters: List[ClusterConfig]
    graph: FederationGraph
    federation: FederationParams
    metascale: MetaScaleParams
    scenario: ScenarioConfig

    def cluster_ids(self) -> List[str]:
        return [c.cluster_id for c in self.clusters]


def _parse_pipeline(section: Optional[dict], path: str) -> Tuple[Tuple[str, float], ...]:
    """The score weights; node feasibility is fixed, so scores are all a
    pipeline configures."""
    if section is None:
        return tuple(DEFAULT_SCORES)
    _check_keys(section, ("scores",), path)
    scores_raw = section.get("scores")
    if scores_raw is None:
        return tuple(DEFAULT_SCORES)
    if not isinstance(scores_raw, list):
        raise ConfigError("must be a list of {name, weight}", f"{path}.scores")
    scores = []
    for i, entry in enumerate(scores_raw):
        spath = f"{path}.scores[{i}]"
        _check_keys(entry, ("name", "weight"), spath)
        name = _get_str(entry, "name", spath, required=True)
        if name not in SCORE_PLUGINS:
            raise ConfigError(f"unknown score plugin {name!r}", f"{spath}.name")
        weight = _get_float(entry, "weight", 1.0, spath, lo=0.0)
        scores.append((name, weight))
    return tuple(scores)


def _parse_cluster(entry: dict, path: str) -> ClusterConfig:
    _check_keys(
        entry,
        (
            "id", "profile", "scale_divisor", "nodes", "initial_batch_nodes",
            "namespace_allowlist", "namespace_quota", "pipeline",
        ),
        path,
    )
    cluster_id = _get_str(entry, "id", path, required=True)
    profile = entry.get("profile")
    explicit = entry.get("nodes")
    if profile is None and explicit is None:
        raise ConfigError("needs either 'profile' or 'nodes'", path)
    if profile is not None and explicit is not None:
        raise ConfigError("'profile' and 'nodes' are mutually exclusive", path)
    if profile is not None and profile not in PROFILES:
        raise ConfigError(
            f"unknown profile {profile!r} (known: {', '.join(sorted(PROFILES))})",
            f"{path}.profile",
        )
    nodes = []
    if explicit is not None:
        if not isinstance(explicit, list) or not explicit:
            raise ConfigError("must be a non-empty list of nodes", f"{path}.nodes")
        seen = set()
        for i, node in enumerate(explicit):
            npath = f"{path}.nodes[{i}]"
            _check_keys(node, ("id", "cpu", "memory", "gpu", "labels", "pool"), npath)
            node_id = _get_str(node, "id", npath, required=True)
            if node_id in seen:
                raise ConfigError(f"duplicate node id {node_id!r}", npath)
            seen.add(node_id)
            labels = node.get("labels", {})
            if not isinstance(labels, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in labels.items()
            ):
                raise ConfigError("labels must map strings to strings", f"{npath}.labels")
            pool = node.get("pool", "Container")
            if pool not in ("Container", "Batch"):
                raise ConfigError(f"pool must be 'Container' or 'Batch', got {pool!r}", f"{npath}.pool")
            capacity = parse_resources(
                {k: node[k] for k in ("cpu", "memory", "gpu") if k in node}, npath
            )
            nodes.append({"id": node_id, "capacity": capacity, "labels": labels, "pool": pool})
    allowlist = entry.get("namespace_allowlist")
    if allowlist is not None:
        if not isinstance(allowlist, list) or not all(isinstance(ns, str) for ns in allowlist):
            raise ConfigError("must be a list of namespace names", f"{path}.namespace_allowlist")
    quota = {}
    for ns, q in entry.get("namespace_quota", {}).items():
        quota[ns] = parse_resources(q, f"{path}.namespace_quota.{ns}")
    scores = _parse_pipeline(entry.get("pipeline"), f"{path}.pipeline")
    return ClusterConfig(
        cluster_id=cluster_id,
        profile=profile,
        scale_divisor=_get_int(entry, "scale_divisor", 14, path, minimum=1),
        explicit_nodes=nodes,
        initial_batch_nodes=_get_int(entry, "initial_batch_nodes", 0, path),
        namespace_allowlist=allowlist,
        namespace_quota=quota,
        score_weights=scores,
    )


def _parse_topology(section: dict, path: str) -> Tuple[List[ClusterConfig], FederationGraph]:
    _check_keys(
        section,
        (
            "clusters", "kind", "default_latency", "pairs", "hub", "leaves",
            "local", "cloud", "self_target", "edges",
        ),
        path,
    )
    raw_clusters = section.get("clusters")
    if not isinstance(raw_clusters, list) or not raw_clusters:
        raise ConfigError("must declare a non-empty 'clusters' list", path)
    clusters = [
        _parse_cluster(entry, f"{path}.clusters[{i}]") for i, entry in enumerate(raw_clusters)
    ]
    ids = [c.cluster_id for c in clusters]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate cluster ids", f"{path}.clusters")
    known = set(ids)
    default_latency = _parse_latency(
        section.get("default_latency"), f"{path}.default_latency", LatencyModel()
    )

    def check_cluster(name: str, where: str) -> str:
        if name not in known:
            raise ConfigError(f"unknown cluster {name!r}", where)
        return name

    kind = section.get("kind", "explicit")
    if kind == "central":
        hub = check_cluster(_get_str(section, "hub", path, required=True), f"{path}.hub")
        leaves_raw = section.get("leaves")
        if not isinstance(leaves_raw, list):
            raise ConfigError("central topology needs a 'leaves' list", f"{path}.leaves")
        leaves = [check_cluster(l, f"{path}.leaves[{i}]") for i, l in enumerate(leaves_raw)]
        if hub in leaves:
            raise ConfigError("hub must not appear among leaves", f"{path}.leaves")
        graph = build_central(hub, leaves, default_latency)
        for extra in known - {hub, *leaves}:
            graph.add_cluster(extra)
    elif kind == "burst":
        local = check_cluster(_get_str(section, "local", path, required=True), f"{path}.local")
        cloud = check_cluster(_get_str(section, "cloud", path, required=True), f"{path}.cloud")
        graph = build_burst(local, cloud, _get_bool(section, "self_target", True, path), default_latency)
        for extra in known - {local, cloud}:
            graph.add_cluster(extra)
    elif kind == "decentralized":
        pairs_raw = section.get("pairs")
        if not isinstance(pairs_raw, list):
            raise ConfigError("decentralized topology needs a 'pairs' list", f"{path}.pairs")
        pairs = []
        for i, pair in enumerate(pairs_raw):
            ppath = f"{path}.pairs[{i}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError("each pair must be [source, target]", ppath)
            pairs.append(
                (check_cluster(pair[0], ppath), check_cluster(pair[1], ppath))
            )
        graph = build_decentralized(known, pairs, default_latency)
    elif kind == "explicit":
        graph = FederationGraph(known)
        for i, edge in enumerate(section.get("edges", [])):
            epath = f"{path}.edges[{i}]"
            _check_keys(edge, ("source", "target", "latency"), epath)
            source = check_cluster(_get_str(edge, "source", epath, required=True), f"{epath}.source")
            target = check_cluster(_get_str(edge, "target", epath, required=True), f"{epath}.target")
            graph.add_edge(
                source, target, _parse_latency(edge.get("latency"), f"{epath}.latency", default_latency)
            )
    else:
        raise ConfigError(
            f"unknown topology kind {kind!r} (central, burst, decentralized, explicit)",
            f"{path}.kind",
        )
    return clusters, graph


def _parse_federation(section: dict, path: str) -> FederationParams:
    _check_keys(
        section,
        (
            "election_timeout", "retry_backoff", "max_retries", "heartbeat",
            "reservations", "election_policy",
        ),
        path,
    )
    policy = section.get("election_policy", ELECTION_LEAST_ALLOCATED)
    if policy not in (ELECTION_LEAST_ALLOCATED, ELECTION_PREFER_LOCAL):
        raise ConfigError(
            f"unknown election policy {policy!r}", f"{path}.election_policy"
        )
    return FederationParams(
        election_timeout_ms=parse_time(section.get("election_timeout", "5s"), f"{path}.election_timeout"),
        retry_backoff_ms=parse_time(section.get("retry_backoff", "1s"), f"{path}.retry_backoff"),
        max_retries=_get_int(section, "max_retries", 5, path),
        heartbeat_ms=parse_time(section.get("heartbeat", "10s"), f"{path}.heartbeat"),
        reservations=_get_bool(section, "reservations", True, path),
        election_policy=policy,
    )


def _parse_metascale(section: dict, path: str) -> MetaScaleParams:
    _check_keys(
        section,
        (
            "enabled", "tick", "provisioning_delay", "cooldown",
            "min_batch_nodes", "min_container_nodes",
        ),
        path,
    )
    return MetaScaleParams(
        enabled=_get_bool(section, "enabled", False, path),
        tick_ms=parse_time(section.get("tick", "60s"), f"{path}.tick"),
        provisioning_delay_ms=parse_time(section.get("provisioning_delay", "120s"), f"{path}.provisioning_delay"),
        cooldown_ms=parse_time(section.get("cooldown", "10m"), f"{path}.cooldown"),
        min_batch_nodes=_get_int(section, "min_batch_nodes", 0, path),
        min_container_nodes=_get_int(section, "min_container_nodes", 0, path),
    )


def _parse_template(section: Optional[dict], path: str) -> Optional[PodTemplate]:
    if section is None:
        return None
    _check_keys(section, ("cpu", "memory", "gpu", "duration", "selector"), path)
    selector = section.get("selector", {})
    if not isinstance(selector, dict):
        raise ConfigError("selector must be an object", f"{path}.selector")
    request = parse_resources(
        {k: section[k] for k in ("cpu", "memory", "gpu") if k in section}, path
    )
    return PodTemplate(
        request=request,
        node_selector=selector,
        duration=parse_time(section.get("duration", "10m"), f"{path}.duration"),
    )


def _parse_range(section: dict, key: str, default, path: str) -> Tuple[float, float]:
    raw = section.get(key, list(default))
    if (
        not isinstance(raw, list) or len(raw) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw)
    ):
        raise ConfigError("must be [low, high] probabilities", f"{path}.{key}")
    lo, hi = float(raw[0]), float(raw[1])
    if not (0.0 <= lo <= hi <= 1.0):
        raise ConfigError(f"must satisfy 0 <= low <= high <= 1, got {raw}", f"{path}.{key}")
    return lo, hi


def _parse_scenario(section: dict, path: str, known_clusters: set) -> ScenarioConfig:
    _check_keys(
        section,
        (
            "namespace", "submit_cluster", "cameras", "rate_per_hour", "threshold",
            "ensemble_size", "high_probability", "high_range", "low_range",
            "camera_cooldown", "trace", "trace_file", "retrain", "ensemble_member",
            "pods", "batch_jobs",
        ),
        path,
    )
    submit_cluster = section.get("submit_cluster")
    if submit_cluster is not None and submit_cluster not in known_clusters:
        raise ConfigError(f"unknown cluster {submit_cluster!r}", f"{path}.submit_cluster")

    trace = []
    for i, row in enumerate(section.get("trace", [])):
        tpath = f"{path}.trace[{i}]"
        if not isinstance(row, list) or len(row) != 3:
            raise ConfigError("each trace row is [camera_id, time, probability]", tpath)
        camera, when, prob = row
        if not isinstance(prob, (int, float)) or isinstance(prob, bool) or not 0 <= prob <= 1:
            raise ConfigError(f"probability must be in [0,1], got {prob!r}", tpath)
        trace.append(CameraEvent(str(camera), parse_time(when, tpath), float(prob)))
    trace_file = section.get("trace_file")
    if trace_file is not None:
        trace_file = _get_str(section, "trace_file", path)
        try:
            trace += load_trace(trace_file, parse_time)
        except (OSError, ValueError, ConfigError) as exc:
            raise ConfigError(str(exc), f"{path}.trace_file") from None
    trace.sort(key=lambda e: (e.time, e.camera_id))

    pods = []
    seen_pods = set()
    for i, entry in enumerate(section.get("pods", [])):
        ppath = f"{path}.pods[{i}]"
        _check_keys(
            entry,
            ("id", "cluster", "namespace", "submit", "duration", "cpu", "memory",
             "gpu", "selector", "federated"),
            ppath,
        )
        pod_id = _get_str(entry, "id", ppath, required=True)
        if pod_id in seen_pods:
            raise ConfigError(f"duplicate pod id {pod_id!r}", ppath)
        seen_pods.add(pod_id)
        cluster = _get_str(entry, "cluster", ppath, required=True)
        if cluster not in known_clusters:
            raise ConfigError(f"unknown cluster {cluster!r}", f"{ppath}.cluster")
        selector = entry.get("selector", {})
        if not isinstance(selector, dict):
            raise ConfigError("selector must be an object", f"{ppath}.selector")
        pods.append(
            PodEntry(
                pod_id=pod_id,
                cluster=cluster,
                namespace=_get_str(entry, "namespace", ppath, default="default"),
                submit_time=parse_time(entry.get("submit", 0), f"{ppath}.submit"),
                duration=parse_time(entry.get("duration", "5m"), f"{ppath}.duration"),
                request=parse_resources(
                    {k: entry[k] for k in ("cpu", "memory", "gpu") if k in entry}, ppath
                ),
                node_selector=selector,
                federated=_get_bool(entry, "federated", False, ppath),
            )
        )

    jobs = []
    seen_jobs = set()
    for i, entry in enumerate(section.get("batch_jobs", [])):
        jpath = f"{path}.batch_jobs[{i}]"
        _check_keys(entry, ("id", "cluster", "submit", "node_count", "duration"), jpath)
        job_id = _get_str(entry, "id", jpath, required=True)
        if job_id in seen_jobs:
            raise ConfigError(f"duplicate job id {job_id!r}", jpath)
        seen_jobs.add(job_id)
        cluster = _get_str(entry, "cluster", jpath, required=True)
        if cluster not in known_clusters:
            raise ConfigError(f"unknown cluster {cluster!r}", f"{jpath}.cluster")
        jobs.append(
            BatchJob(
                job_id=job_id,
                cluster=cluster,
                node_count=_get_int(entry, "node_count", 1, jpath, minimum=1),
                duration=parse_time(entry.get("duration", "10m"), f"{jpath}.duration"),
                submit_time=parse_time(entry.get("submit", 0), f"{jpath}.submit"),
            )
        )

    config = ScenarioConfig(
        namespace=_get_str(section, "namespace", path, default="default"),
        submit_cluster=submit_cluster,
        cameras=_get_int(section, "cameras", 0, path),
        rate_per_hour=_get_float(section, "rate_per_hour", 0.0, path, lo=0.0),
        threshold=_get_float(section, "threshold", 0.9, path, lo=0.0, hi=1.0),
        ensemble_size=_get_int(section, "ensemble_size", 8, path, minimum=1),
        high_probability=_get_float(section, "high_probability", 0.05, path, lo=0.0, hi=1.0),
        high_range=_parse_range(section, "high_range", (0.9, 1.0), path),
        low_range=_parse_range(section, "low_range", (0.0, 0.5), path),
        camera_cooldown_ms=parse_time(section.get("camera_cooldown", 0), f"{path}.camera_cooldown"),
        trace=trace,
        trace_file=trace_file,
        retrain=_parse_template(section.get("retrain"), f"{path}.retrain"),
        ensemble_member=_parse_template(section.get("ensemble_member"), f"{path}.ensemble_member"),
        pods=pods,
        batch_jobs=jobs,
    )
    if config.wildfire_enabled:
        if config.submit_cluster is None:
            raise ConfigError(
                "a wildfire scenario needs 'submit_cluster'", f"{path}.submit_cluster"
            )
        if config.retrain is None or config.ensemble_member is None:
            raise ConfigError(
                "a wildfire scenario needs 'retrain' and 'ensemble_member' templates", path
            )
    return config


def validate_config(raw: dict, base_seed: Optional[int] = None) -> RunConfig:
    """Validate a parsed JSON document and construct the run configuration."""
    _check_keys(raw, ("sim", "topology", "federation", "metascale", "scenario"), "config")
    if "topology" not in raw:
        raise ConfigError("missing required section", "config.topology")

    sim = raw.get("sim", {})
    _check_keys(sim, ("seed", "duration"), "sim")
    seed = base_seed if base_seed is not None else _get_int(sim, "seed", 0, "sim")
    duration = parse_time(sim.get("duration", "1h"), "sim.duration")

    clusters, graph = _parse_topology(raw["topology"], "topology")
    federation = _parse_federation(raw.get("federation", {}), "federation")
    metascale = _parse_metascale(raw.get("metascale", {}), "metascale")
    scenario = _parse_scenario(
        raw.get("scenario", {}), "scenario", {c.cluster_id for c in clusters}
    )

    # Anything submitted after the end of the run would silently vanish
    # from the metrics, so reject it up front.
    for entry in scenario.pods:
        if entry.submit_time > duration:
            raise ConfigError(
                f"pod {entry.pod_id!r} submits at {entry.submit_time} ms, "
                f"after the run ends ({duration} ms)", "scenario.pods"
            )
    for job in scenario.batch_jobs:
        if job.submit_time > duration:
            raise ConfigError(
                f"batch job {job.job_id!r} submits after the run ends", "scenario.batch_jobs"
            )
    for event in scenario.trace:
        if event.time > duration:
            raise ConfigError(
                f"trace event at {event.time} ms is after the run ends", "scenario.trace"
            )

    # Build the specs once so profile/node problems surface at validate time.
    for cluster in clusters:
        cluster.build_spec()

    return RunConfig(
        seed=seed,
        duration_ms=duration,
        clusters=clusters,
        graph=graph,
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
    except json.JSONDecodeError as exc:
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
