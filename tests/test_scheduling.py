import random

import pytest

from fedsched.cluster import ClusterSpec, ClusterState, NodePool, NodeState, fits
from fedsched.errors import BindError
from fedsched.resources import GIB, ResourceVector
from fedsched.scheduling import (
    builtin_pipeline,
    least_allocated_score,
    schedule_one,
    snapshot_of,
)

from conftest import make_node, make_pod


def cluster_with(nodes, allowlist=None, quota=None):
    spec = ClusterSpec("c1", namespace_allowlist=allowlist, namespace_quota=quota or {})
    for node in nodes:
        spec.add_node(node)
    return ClusterState(spec)


def oracle_least_allocated(free_after, capacity):
    # Independent arithmetic: round(100 * mean of free/capacity), zero-cap
    # dimensions excluded.
    fracs = [f / c for f, c in zip(free_after, capacity) if c > 0]
    return round(100 * sum(fracs) / len(fracs)) if fracs else 0


class TestLeastAllocated:
    def test_hand_computed_three_nodes(self):
        # capacity (8000, 16GiB), free after placement (4000, 6GiB):
        # fractions 0.5 and 0.375, mean 0.4375 -> 44.
        score = least_allocated_score(
            ResourceVector(4000, 6 * GIB, 0), ResourceVector(8000, 16 * GIB, 0)
        )
        assert score == 44
        # free (1000, 16GiB) of (10000, 16GiB): (0.1 + 1.0)/2 -> 55.
        assert least_allocated_score(
            ResourceVector(1000, 16 * GIB, 0), ResourceVector(10_000, 16 * GIB, 0)
        ) == 55
        # Full node free -> 100, exhausted node -> 0.
        cap = ResourceVector(4000, GIB, 2)
        assert least_allocated_score(cap, cap) == 100
        assert least_allocated_score(ResourceVector.zero(), cap) == 0

    def test_zero_capacity_gpu_dimension_excluded(self):
        score = least_allocated_score(
            ResourceVector(5000, 5 * GIB, 0), ResourceVector(10_000, 10 * GIB, 0)
        )
        assert score == 50  # not dragged down by the absent GPU axis

    def test_matches_independent_formula_on_random_inputs(self):
        rng = random.Random(23)
        for _ in range(300):
            cap = [rng.randint(0, 100), rng.randint(0, 100), rng.randint(0, 4)]
            free = [rng.randint(0, c) if c else 0 for c in cap]
            got = least_allocated_score(ResourceVector(*free), ResourceVector(*cap))
            assert got == oracle_least_allocated(free, cap)

    def test_picks_emptiest_of_three_nodes(self):
        # Free CPU fractions 0.1 / 0.5 / 0.9 -> the 0.9 node wins.
        state = cluster_with(
            [make_node(f"n{i}", cpu=10_000, mem=GIB) for i in (1, 2, 3)]
        )
        state.bind(make_pod("f1", 9000, 0), "n1", at=0)
        state.bind(make_pod("f2", 5000, 0), "n2", at=0)
        state.bind(make_pod("f3", 1000, 0), "n3", at=0)
        pod = make_pod("p", 0, 0)
        chosen = schedule_one(pod, snapshot_of(state), builtin_pipeline())
        assert chosen == "n3"


class TestGpuBinpack:
    def test_prefers_fullest_gpu_node(self):
        state = cluster_with(
            [
                make_node("g1", cpu=10_000, mem=GIB, gpu=4),
                make_node("g2", cpu=10_000, mem=GIB, gpu=4),
            ]
        )
        state.bind(make_pod("f1", 0, 0, 3), "g1", at=0)
        pipeline = builtin_pipeline(score_weights=(("GpuBinpack", 1),))
        pod = make_pod("p", 0, 0, 1)
        assert schedule_one(pod, snapshot_of(state), pipeline) == "g1"


class TestFilters:
    def test_zero_request_passes_resource_fit_on_all_ready_container_nodes(self):
        state = cluster_with(
            [make_node("n1"), make_node("n2"), make_node("b1", pool="Batch"),
             make_node("r1")]
        )
        state.set_node("r1", state=NodeState.REPURPOSING)
        snap = snapshot_of(state)
        pod = make_pod("p", 0, 0)
        passing = [n for n, node in snap.nodes.items() if fits(pod, node, snap.allocatable[n])]
        assert sorted(passing) == ["n1", "n2"]
        # The empty Batch and non-Ready nodes would score highest, yet are
        # never chosen: not over two nearly full nodes, not when only they
        # could hold the request.
        state.bind(make_pod("f1", 9000, 0), "n1", at=0)
        state.bind(make_pod("f2", 9000, 0), "n2", at=0)
        assert schedule_one(pod, snapshot_of(state), builtin_pipeline()) == "n1"
        big = make_pod("big", 5000, 0)
        assert schedule_one(big, snapshot_of(state), builtin_pipeline()) is None

    def test_namespace_policy_rejects_unlisted_namespace(self):
        state = cluster_with([make_node("n1")], allowlist={"prod"})
        pod = make_pod("p", 0, 0, ns="dev")
        assert schedule_one(pod, snapshot_of(state), builtin_pipeline()) is None

    def test_namespace_policy_counts_quota(self):
        quota = {"team": ResourceVector(1500, 4 * GIB, 0)}
        state = cluster_with([make_node("n1")], quota=quota)
        state.bind(make_pod("f", 1000, GIB, ns="team"), "n1", at=0)
        over = make_pod("p", 1000, GIB, ns="team")
        assert schedule_one(over, snapshot_of(state), builtin_pipeline()) is None
        within = make_pod("q", 500, GIB, ns="team")
        assert schedule_one(within, snapshot_of(state), builtin_pipeline()) == "n1"


class TestScheduleOne:
    def test_single_feasible_node_wins_regardless_of_score(self):
        state = cluster_with(
            [
                make_node("full", cpu=1000, mem=GIB),
                make_node("tight", cpu=2000, mem=2 * GIB),
            ]
        )
        state.bind(make_pod("f", 900, GIB), "full", at=0)
        pod = make_pod("p", 1000, GIB)
        assert schedule_one(pod, snapshot_of(state), builtin_pipeline()) == "tight"

    def test_no_feasible_node_returns_none(self):
        state = cluster_with([make_node("n1", cpu=100, mem=GIB)])
        pod = make_pod("p", 1000, GIB)
        assert schedule_one(pod, snapshot_of(state), builtin_pipeline()) is None

    def test_tie_breaks_to_lexicographically_smallest(self):
        state = cluster_with([make_node(n) for n in ("nb", "na", "nc")])
        pod = make_pod("p", 1000, GIB)
        assert schedule_one(pod, snapshot_of(state), builtin_pipeline()) == "na"

    def test_determinism(self):
        state = cluster_with([make_node(f"n{i}") for i in range(5)])
        pod = make_pod("p", 2000, GIB)
        snap = snapshot_of(state)
        pipeline = builtin_pipeline()
        results = {schedule_one(pod, snap, pipeline) for _ in range(10)}
        assert len(results) == 1

    def test_sequential_placements_match_exhaustive_oracle(self):
        # 10 pods onto 4 nodes; at each step the chosen node must equal the
        # brute-force max-score feasible node under the documented formula.
        rng = random.Random(77)
        nodes = [
            make_node("n1", cpu=16_000, mem=32 * GIB, gpu=0),
            make_node("n2", cpu=8_000, mem=64 * GIB, gpu=2),
            make_node("n3", cpu=24_000, mem=16 * GIB, gpu=0),
            make_node("n4", cpu=8_000, mem=8 * GIB, gpu=4),
        ]
        state = cluster_with(nodes)
        pipeline = builtin_pipeline()
        for i in range(10):
            pod = make_pod(
                f"p{i}",
                cpu=rng.choice([1000, 2000, 4000]),
                mem=rng.choice([GIB, 2 * GIB, 8 * GIB]),
                gpu=rng.choice([0, 0, 1]),
            )
            snap = snapshot_of(state)
            # Independent oracle: brute force over every node.
            best = None
            for node in nodes:
                free = snap.allocatable[node.node_id]
                if not (
                    node.state is NodeState.READY
                    and node.pool is NodePool.CONTAINER
                    and pod.request.fits_within(free)
                ):
                    continue
                free_after = [
                    f - r for f, r in zip(free.as_tuple(), pod.request.as_tuple())
                ]
                score = oracle_least_allocated(free_after, node.capacity.as_tuple())
                key = (score, [-ord(c) for c in node.node_id])
                if best is None or key > best[0]:
                    best = (key, node.node_id)
            expected = best[1] if best else None
            chosen = schedule_one(pod, snap, pipeline)
            assert chosen == expected, f"step {i}: {chosen} != {expected}"
            if chosen is not None:
                state.bind(pod, chosen, at=i)


class TestBindAgreement:
    def test_chosen_node_always_binds_and_none_means_no_node_binds(self):
        # Random nodes, quotas, allowlists and pods; reservations and binds
        # accumulate. schedule_one and ClusterState apply one feasibility
        # rule, so a chosen node is always accepted, and when nothing is
        # chosen every node is refused.
        rng = random.Random(41)
        namespaces = ("prod", "dev", "team")
        chosen_count = refused_count = 0
        for trial in range(150):
            nodes = [
                make_node(f"n{i}", cpu=rng.randint(1, 8) * 1000, mem=rng.randint(1, 8) * GIB,
                          gpu=rng.choice([0, 0, 2]), labels=rng.choice([{}, {"zone": "a"}]),
                          pool=rng.choice(["Container", "Container", "Batch"]))
                for i in range(rng.randint(1, 4))
            ]
            for node in nodes:
                if rng.random() < 0.2:
                    node.state = NodeState.REPURPOSING
            quota = {
                ns: ResourceVector(rng.randint(1, 8) * 1000, rng.randint(1, 8) * GIB,
                                   rng.randint(0, 2))
                for ns in namespaces if rng.random() < 0.5
            }
            allowlist = rng.choice([None, {"prod"}, {"prod", "team"}])
            state = cluster_with(nodes, allowlist=allowlist, quota=quota)
            for step in range(8):
                pod = make_pod(f"p{trial}-{step}", cpu=rng.choice([0, 500, 1000, 3000]),
                               mem=rng.choice([0, 1, 2]) * GIB, gpu=rng.choice([0, 0, 1]),
                               ns=rng.choice(namespaces),
                               selector=rng.choice([{}, {}, {"zone": "a"}]))
                chosen = schedule_one(pod, snapshot_of(state), builtin_pipeline())
                if chosen is None:
                    refused_count += 1
                    for node_id in sorted(state.nodes()):
                        with pytest.raises(BindError):
                            state.bind(pod, node_id, at=step)
                    continue
                chosen_count += 1
                if rng.random() < 0.3:
                    state.reserve(pod, chosen)
                else:
                    state.bind(pod, chosen, at=step)
        assert chosen_count >= 200 and refused_count >= 200, (chosen_count, refused_count)


class TestWeightScaling:
    def test_multiplying_all_weights_never_changes_argmax(self):
        rng = random.Random(9)
        for trial in range(40):
            nodes = [
                make_node(f"n{i}", cpu=rng.randint(4, 32) * 1000,
                          mem=rng.randint(4, 64) * GIB, gpu=rng.choice([0, 2, 4]))
                for i in range(rng.randint(2, 5))
            ]
            state = cluster_with(nodes)
            pod = make_pod("p", 1000, GIB, rng.choice([0, 1]))
            w1, w2 = rng.randint(1, 5), rng.randint(1, 5)
            factor = rng.choice([2, 3, 10, 0.5])
            base = builtin_pipeline(
                score_weights=(("LeastAllocated", w1), ("GpuBinpack", w2))
            )
            scaled = builtin_pipeline(
                score_weights=(("LeastAllocated", w1 * factor), ("GpuBinpack", w2 * factor))
            )
            snap = snapshot_of(state)
            assert schedule_one(pod, snap, base) == schedule_one(pod, snap, scaled)


def test_snapshot_is_internally_consistent():
    state = cluster_with([make_node("n1", cpu=4000, mem=4 * GIB)])
    state.bind(make_pod("p", 1500, GIB), "n1", at=0)
    snap = snapshot_of(state)
    assert snap.allocatable["n1"] == ResourceVector(2500, 3 * GIB, 0)
    # Snapshot does not alias live state.
    state.bind(make_pod("q", 500, GIB), "n1", at=1)
    assert snap.allocatable["n1"] == ResourceVector(2500, 3 * GIB, 0)
