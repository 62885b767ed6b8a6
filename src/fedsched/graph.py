"""Directed federation graph between clusters.

Edges are directed: (A -> B) means A is a source of B, i.e. controllers in A
may place workloads on B. Self-edges are legal and are how a cluster keeps
the option of running its own federated workloads locally.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from .errors import HubInLeaves, UnknownCluster

DEFAULT_LATENCY_BASE_MS = 10
DEFAULT_LATENCY_JITTER_MS = 5


@dataclass(frozen=True)
class LatencyModel:
    base_ms: int = DEFAULT_LATENCY_BASE_MS
    jitter_ms: int = DEFAULT_LATENCY_JITTER_MS

    def __post_init__(self):
        if self.base_ms < 0 or self.jitter_ms < 0:
            raise ValueError("latency components must be >= 0")


@dataclass(frozen=True)
class FederationEdge:
    source: str
    target: str
    latency: LatencyModel = field(default_factory=LatencyModel)


class FederationGraph:
    def __init__(self, clusters: Iterable[str] = ()):
        self.clusters: Set[str] = set()
        self.edges: Dict[Tuple[str, str], FederationEdge] = {}
        # Sorted neighbour lists, kept up to date by `add_edge`.
        self._targets: Dict[str, List[str]] = {}
        self._sources: Dict[str, List[str]] = {}
        for c in clusters:
            self.add_cluster(c)

    def add_cluster(self, cluster_id: str) -> None:
        self.clusters.add(cluster_id)

    def add_edge(self, source: str, target: str, latency: LatencyModel = None) -> FederationEdge:
        """Add (or update) a directed edge; re-adding only refreshes latency."""
        if source not in self.clusters:
            raise UnknownCluster(f"unknown source cluster {source!r}")
        if target not in self.clusters:
            raise UnknownCluster(f"unknown target cluster {target!r}")
        edge = FederationEdge(source, target, latency or LatencyModel())
        if (source, target) not in self.edges:
            insort(self._targets.setdefault(source, []), target)
            insort(self._sources.setdefault(target, []), source)
        self.edges[(source, target)] = edge
        return edge

    def targets_of(self, source: str) -> List[str]:
        return list(self._targets.get(source, ()))

    def sources_of(self, target: str) -> List[str]:
        return list(self._sources.get(target, ()))

    def in_degree(self, cluster_id: str) -> int:
        return len(self._sources.get(cluster_id, ()))


def build_central(hub: str, leaves: Iterable[str], latency: LatencyModel = None) -> FederationGraph:
    """Central control plane: the hub targets every leaf, nothing else."""
    leaves = set(leaves)
    if hub in leaves:
        raise HubInLeaves(f"hub {hub!r} must not appear among the leaves")
    graph = FederationGraph([hub, *leaves])
    for leaf in sorted(leaves):
        graph.add_edge(hub, leaf, latency)
    return graph


def build_burst(local: str, cloud: str, self_target: bool, latency: LatencyModel = None) -> FederationGraph:
    """Cloud bursting: local targets the cloud, optionally also itself."""
    graph = FederationGraph([local, cloud])
    graph.add_edge(local, cloud, latency)
    if self_target:
        graph.add_edge(local, local, latency)
    return graph


def build_decentralized(
    clusters: Iterable[str],
    pairs: Iterable[Tuple[str, str]],
    latency: LatencyModel = None,
) -> FederationGraph:
    """Arbitrary user-declared edge set; every cluster on the same level."""
    graph = FederationGraph(clusters)
    for source, target in pairs:
        graph.add_edge(source, target, latency)
    return graph
