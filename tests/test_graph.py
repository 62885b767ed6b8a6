import itertools
import random

import pytest

from fedsched.errors import HubInLeaves, UnknownCluster
from fedsched.graph import (
    FederationGraph,
    LatencyModel,
    build_burst,
    build_central,
    build_decentralized,
)


def test_self_edge_accepted():
    g = FederationGraph(["a"])
    g.add_edge("a", "a")
    assert ("a", "a") in g.edges
    assert g.targets_of("a") == ["a"]


def test_dual_view_after_single_edge():
    g = FederationGraph(["a", "b"])
    g.add_edge("a", "b")
    assert g.sources_of("b") == ["a"]
    assert g.targets_of("a") == ["b"]
    assert g.targets_of("b") == []


def test_two_cycle_keeps_both_directions_distinct():
    g = FederationGraph(["a", "b"])
    g.add_edge("a", "b")
    g.add_edge("b", "a")
    assert ("a", "b") in g.edges and ("b", "a") in g.edges
    assert len(g.edges) == 2


def test_add_edge_is_idempotent_and_updates_latency():
    g = FederationGraph(["a", "b"])
    g.add_edge("a", "b", LatencyModel(10, 5))
    g.add_edge("a", "b", LatencyModel(50, 0))
    assert len(g.edges) == 1
    assert g.edges[("a", "b")].latency == LatencyModel(50, 0)


def test_unknown_cluster_rejected():
    g = FederationGraph(["a"])
    with pytest.raises(UnknownCluster):
        g.add_edge("a", "ghost")
    with pytest.raises(UnknownCluster):
        g.add_edge("ghost", "a")


def test_dual_view_consistency_on_random_graphs():
    rng = random.Random(3)
    for _ in range(50):
        names = [f"c{i}" for i in range(rng.randint(1, 6))]
        g = FederationGraph(names)
        for _ in range(rng.randint(0, 12)):
            g.add_edge(rng.choice(names), rng.choice(names))
        for a, b in itertools.product(names, names):
            assert (b in g.targets_of(a)) == (a in g.sources_of(b))


def test_neighbour_lists_match_a_scan_of_the_edges():
    # Edges added in random order and re-added: the lists stay sorted,
    # hold each neighbour once, and do not alias the graph.
    rng = random.Random(8)
    for _ in range(50):
        names = [f"c{i}" for i in range(rng.randint(1, 6))]
        g = FederationGraph(names)
        for _ in range(rng.randint(0, 20)):
            g.add_edge(rng.choice(names), rng.choice(names))
        for name in names:
            targets = sorted(t for (s, t) in g.edges if s == name)
            sources = sorted(s for (s, t) in g.edges if t == name)
            assert g.targets_of(name) == targets
            assert g.sources_of(name) == sources and g.in_degree(name) == len(sources)
            g.targets_of(name).append("ghost")
            g.sources_of(name).append("ghost")
            assert g.targets_of(name) == targets and g.sources_of(name) == sources


class TestCentral:
    def test_hub_targets_every_leaf_and_nothing_else(self):
        g = build_central("hub", {"a", "b", "c"})
        assert g.targets_of("hub") == ["a", "b", "c"]
        assert len(g.targets_of("hub")) == 3
        for leaf in ("a", "b", "c"):
            assert g.targets_of(leaf) == []
            assert g.in_degree(leaf) == 1
        assert len(g.edges) == 3

    def test_empty_leaves_degenerate(self):
        g = build_central("hub", set())
        assert len(g.edges) == 0

    def test_hub_in_leaves_rejected(self):
        with pytest.raises(HubInLeaves):
            build_central("hub", {"hub", "a"})

    def test_degree_counts_over_random_sizes(self):
        rng = random.Random(5)
        for _ in range(20):
            leaves = {f"l{i}" for i in range(rng.randint(0, 9))}
            g = build_central("hub", leaves)
            assert len(g.targets_of("hub")) == len(leaves)
            assert all(g.in_degree(l) == 1 for l in leaves)
            assert len(g.edges) == len(leaves)


class TestBurst:
    def test_with_self_target_two_edges(self):
        g = build_burst("local", "cloud", self_target=True)
        assert len(g.edges) == 2
        assert ("local", "cloud") in g.edges and ("local", "local") in g.edges

    def test_without_self_target_one_edge(self):
        g = build_burst("local", "cloud", self_target=False)
        assert len(g.edges) == 1
        assert g.targets_of("local") == ["cloud"]


class TestDecentralized:
    def test_complete_bidirectional_edge_count(self):
        names = ["a", "b", "c"]
        pairs = [(s, t) for s in names for t in names if s != t]
        g = build_decentralized(names, pairs)
        # n(n-1) edges, verified by enumeration.
        assert len(g.edges) == 6
        with_self = build_decentralized(names, pairs + [(n, n) for n in names])
        assert len(with_self.edges) == 9

    def test_no_pairs_isolated_clusters(self):
        g = build_decentralized(["a", "b"], [])
        assert len(g.edges) == 0
        assert g.targets_of("a") == []

    def test_two_cluster_mutual_edges_shape(self):
        g = build_decentralized(
            ["expanse", "nautilus"],
            [("expanse", "nautilus"), ("nautilus", "expanse")],
        )
        assert g.targets_of("expanse") == ["nautilus"]
        assert g.targets_of("nautilus") == ["expanse"]


def test_constructors_produce_no_hidden_edges():
    g = build_central("h", {"a", "b"})
    assert set(g.edges) == {("h", "a"), ("h", "b")}
    g = build_burst("l", "c", self_target=True)
    assert set(g.edges) == {("l", "c"), ("l", "l")}
    g = build_decentralized(["x", "y"], [("x", "y")])
    assert set(g.edges) == {("x", "y")}
