"""fedsched: a deterministic discrete-event simulator of federated container
clusters — multi-cluster candidate/delegate scheduling, batch/container node
re-purposing, and a closed-loop wildfire workload scenario."""

from .cluster import (
    ClusterSpec,
    ClusterState,
    NodePool,
    NodeSpec,
    NodeState,
    PodPhase,
    PodSpec,
    fits,
)
from .config import RunConfig, parse_config, validate_config
from .engine import Event, EventQueue, RngStreams
from .federation import FederationParams, FederationProtocol, PodChaperon, ProxyPod, VirtualNode
from .graph import (
    FederationEdge,
    FederationGraph,
    LatencyModel,
    build_burst,
    build_central,
    build_decentralized,
)
from .metrics import MetricsReport, build_report
from .resources import ResourceVector
from .scenario import CameraEvent, ModelRegistry, generate_trace
from .scheduling import SchedulingSnapshot, builtin_pipeline, schedule_one
from .sim import Simulation

__version__ = "0.1.0"

__all__ = [
    "CameraEvent",
    "ClusterSpec",
    "ClusterState",
    "Event",
    "EventQueue",
    "FederationEdge",
    "FederationGraph",
    "FederationParams",
    "FederationProtocol",
    "LatencyModel",
    "MetricsReport",
    "ModelRegistry",
    "NodePool",
    "NodeSpec",
    "NodeState",
    "PodChaperon",
    "PodPhase",
    "PodSpec",
    "ProxyPod",
    "ResourceVector",
    "RngStreams",
    "RunConfig",
    "SchedulingSnapshot",
    "Simulation",
    "VirtualNode",
    "build_burst",
    "build_central",
    "build_decentralized",
    "build_report",
    "builtin_pipeline",
    "fits",
    "generate_trace",
    "parse_config",
    "schedule_one",
    "validate_config",
]
