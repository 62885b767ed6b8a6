import itertools
import random

import pytest

from fedsched.cluster import (
    ClusterSpec,
    ClusterState,
    NodePool,
    NodeState,
    PodPhase,
    fits,
    node_allocatable,
)
from fedsched.errors import (
    BindConflict,
    NamespaceNotAllowed,
    OvercommitError,
    PhaseTransitionError,
    QuotaExceeded,
)
from fedsched.resources import GIB, ResourceVector

from conftest import make_node, make_pod


def state_of(*nodes, allowlist=None, quota=None) -> ClusterState:
    spec = ClusterSpec(
        cluster_id="c1",
        namespace_allowlist=allowlist,
        namespace_quota=quota or {},
    )
    for node in nodes:
        spec.add_node(node)
    return ClusterState(spec)


class TestNodeAllocatable:
    def test_expanse_standard_node_with_no_pods_is_full_capacity(self):
        node = make_node("n1", cpu=128_000, mem=256 * GIB, gpu=0)
        assert node_allocatable(node, []) == ResourceVector(128_000, 256 * GIB, 0)

    def test_empty_pod_set_identity(self):
        node = make_node("n1", cpu=123, mem=456, gpu=2)
        assert node_allocatable(node, []) == node.capacity

    def test_component_wise_subtraction(self):
        # Oracle: sum each component independently, subtract by hand.
        node = make_node("n1", cpu=8000, mem=16 * GIB, gpu=4)
        pods = [make_pod("p1", 2000, 4 * GIB, 1), make_pod("p2", 1000, 2 * GIB, 2)]
        assert node_allocatable(node, pods) == ResourceVector(5000, 10 * GIB, 1)

    def test_overcommit_is_an_error_not_a_clamp(self):
        node = make_node("n1", cpu=1000, mem=GIB, gpu=0)
        pods = [make_pod("p1", 2000, GIB, 0)]
        with pytest.raises(OvercommitError):
            node_allocatable(node, pods)

    def test_monotone_non_increasing_in_bound_set(self):
        rng = random.Random(11)
        node = make_node("n1", cpu=100_000, mem=100 * GIB, gpu=8)
        pods = [
            make_pod(f"p{i}", rng.randrange(0, 5000), rng.randrange(0, GIB), rng.randrange(0, 2))
            for i in range(12)
        ]
        previous = node_allocatable(node, [])
        for k in range(1, len(pods) + 1):
            current = node_allocatable(node, pods[:k])
            assert current.fits_within(previous)
            previous = current


class TestFits:
    def test_zero_request_fits_any_ready_container_node(self):
        pod = make_pod("p", 0, 0, 0)
        node = make_node("n1", cpu=1, mem=1)
        assert fits(pod, node, node.capacity)

    def test_gpu_selector_match_on_v100_node(self):
        node = make_node("n1", cpu=40_000, mem=384 * GIB, gpu=4,
                         labels={"gpu-model": "v100"})
        pod = make_pod("p", 1000, GIB, 1, selector={"gpu-model": "v100"})
        assert fits(pod, node, node.capacity)
        other = make_pod("q", 1000, GIB, 1, selector={"gpu-model": "a100"})
        assert not fits(other, node, node.capacity)

    def test_non_ready_or_batch_nodes_never_fit(self):
        pod = make_pod("p", 0, 0, 0)
        batch = make_node("n1", pool="Batch")
        assert not fits(pod, batch, batch.capacity)
        repurposing = make_node("n2")
        repurposing.state = NodeState.REPURPOSING
        assert not fits(pod, repurposing, repurposing.capacity)

    def test_exhaustive_truth_table_matches_brute_force(self):
        # Independent predicate, written from scratch for the oracle.
        def oracle(pod, node, free):
            if node.state is not NodeState.READY or node.pool is not NodePool.CONTAINER:
                return False
            for key, want in pod.node_selector.items():
                if node.labels.get(key) != want:
                    return False
            return (
                pod.request.cpu_millicores <= free.cpu_millicores
                and pod.request.memory_bytes <= free.memory_bytes
                and pod.request.gpu_count <= free.gpu_count
            )

        nodes = [
            make_node("n1", cpu=4000, mem=8 * GIB, gpu=0, labels={"zone": "a"}),
            make_node("n2", cpu=8000, mem=4 * GIB, gpu=2, labels={"zone": "b", "gpu": "yes"}),
            make_node("n3", cpu=2000, mem=2 * GIB, gpu=0, labels={}, pool="Batch"),
        ]
        pods = [
            make_pod("p1", 1000, GIB, 0),
            make_pod("p2", 5000, GIB, 0),
            make_pod("p3", 1000, 6 * GIB, 0),
            make_pod("p4", 1000, GIB, 1, selector={"gpu": "yes"}),
            make_pod("p5", 0, 0, 0, selector={"zone": "a"}),
        ]
        for pod, node in itertools.product(pods, nodes):
            assert fits(pod, node, node.capacity) == oracle(pod, node, node.capacity)


class TestBind:
    def test_forced_placement_reduces_allocatable(self):
        node = make_node("n1", cpu=4000, mem=8 * GIB)
        state = state_of(node)
        pod = make_pod("p1", 1000, 2 * GIB)
        state.bind(pod, "n1", at=0)
        assert pod.phase is PodPhase.BOUND
        assert pod.bound_cluster == "c1" and pod.bound_node == "n1"
        assert state.allocatable("n1") == ResourceVector(3000, 6 * GIB, 0)

    def test_gpu_race_yields_one_bound_one_conflict_in_both_orders(self):
        # Oracle: enumerate both submission orders; each yields one success.
        for order in ((0, 1), (1, 0)):
            state = state_of(make_node("n1", cpu=8000, mem=8 * GIB, gpu=4))
            pods = [make_pod("a", 1000, GIB, 3), make_pod("b", 1000, GIB, 3)]
            first, second = pods[order[0]], pods[order[1]]
            state.bind(first, "n1", at=0)
            with pytest.raises(BindConflict):
                state.bind(second, "n1", at=0)
            assert first.phase is PodPhase.BOUND
            assert second.phase is PodPhase.PENDING

    def test_quota_barely_below_request_rejects(self):
        request = ResourceVector(1000, GIB, 0)
        quota = ResourceVector(1000, GIB - 1, 0)  # request minus epsilon
        state = state_of(make_node("n1"), quota={"team": quota})
        pod = make_pod("p1", 1000, GIB, ns="team")
        with pytest.raises(QuotaExceeded):
            state.bind(pod, "n1", at=0)
        assert pod.phase is PodPhase.PENDING

    def test_namespace_allowlist_enforced(self):
        state = state_of(make_node("n1"), allowlist={"prod"})
        pod = make_pod("p1", ns="dev")
        with pytest.raises(NamespaceNotAllowed):
            state.bind(pod, "n1", at=0)

    def test_quota_frees_on_unbind(self):
        quota = {"team": ResourceVector(1000, GIB, 0)}
        state = state_of(make_node("n1"), quota=quota)
        pod = make_pod("p1", 1000, GIB, ns="team")
        state.bind(pod, "n1", at=0)
        with pytest.raises(QuotaExceeded):
            state.bind(make_pod("p2", 1000, GIB, ns="team"), "n1", at=1)
        state.unbind("p1")
        p3 = make_pod("p3", 1000, GIB, ns="team")
        state.bind(p3, "n1", at=2)
        assert p3.phase is PodPhase.BOUND


class TestReservations:
    def test_reservation_holds_capacity_until_released(self):
        state = state_of(make_node("n1", cpu=2000, mem=4 * GIB))
        holder = make_pod("r1", 1500, GIB)
        state.reserve(holder, "n1")
        with pytest.raises(BindConflict):
            state.bind(make_pod("p1", 1000, GIB), "n1", at=0)
        assert state.release_reservation("r1")
        state.bind(make_pod("p2", 1000, GIB), "n1", at=1)

    def test_bind_consumes_own_reservation(self):
        state = state_of(make_node("n1", cpu=2000, mem=4 * GIB))
        pod = make_pod("r1", 1500, GIB)
        state.reserve(pod, "n1")
        state.bind(pod, "n1", at=0)
        assert "r1" not in state.reserved["n1"]
        assert state.allocatable("n1") == ResourceVector(500, 3 * GIB, 0)


class TestIncrementalAccounting:
    """The cached per-node vectors against sums recomputed from scratch."""

    @staticmethod
    def scratch_allocatable(state, node_id, include_reservations):
        holds = list(state.bound[node_id].values())
        if include_reservations:
            holds += list(state.reserved[node_id].values())
        capacity = state.nodes()[node_id].capacity.as_tuple()
        return ResourceVector(*(
            capacity[d] - sum(h.as_tuple()[d] for h in holds) for d in range(3)
        ))

    def assert_matches_scratch(self, state):
        aggregate = [0, 0, 0]
        capacity = [0, 0, 0]
        for node_id, node in state.nodes().items():
            for include in (True, False):
                assert state.allocatable(node_id, include) == \
                    self.scratch_allocatable(state, node_id, include)
            if node.pool is NodePool.CONTAINER and node.state is NodeState.READY:
                free = self.scratch_allocatable(state, node_id, False).as_tuple()
                aggregate = [a + f for a, f in zip(aggregate, free)]
                capacity = [a + c for a, c in zip(capacity, node.capacity.as_tuple())]
        assert state.aggregate_allocatable() == ResourceVector(*aggregate)
        assert state.aggregate_capacity() == ResourceVector(*capacity)

    def test_random_operation_sequences_match_scratch_sums(self):
        rng = random.Random(624)
        nodes = [
            make_node(f"n{i}", cpu=rng.choice([2000, 4000, 8000]),
                      mem=rng.choice([4, 8]) * GIB, gpu=rng.choice([0, 2]))
            for i in range(4)
        ]
        nodes.append(make_node("b0", cpu=8000, mem=8 * GIB, pool="Batch"))
        state = state_of(*nodes, quota={"capped": ResourceVector(6000, 6 * GIB, 1)})
        reserved = {}  # pod id -> (pod, node id)
        bound = []
        most_reserved = most_bound = moves = 0
        for step in range(3000):
            op = rng.choice(("reserve", "bind", "bind_reserved", "release",
                             "unbind", "release_unknown", "set_node"))
            if op in ("reserve", "bind"):
                pod = make_pod(f"p{step}", cpu=rng.choice([500, 1000, 2000]),
                               mem=rng.choice([1, 2]) * GIB, gpu=rng.choice([0, 0, 1]),
                               ns=rng.choice(["default", "capped"]))
                node_id = rng.choice(sorted(state.nodes()))
                try:
                    if op == "reserve":
                        state.reserve(pod, node_id)
                        reserved[pod.pod_id] = (pod, node_id)
                    else:
                        state.bind(pod, node_id, at=step)
                        bound.append(pod.pod_id)
                except (BindConflict, QuotaExceeded):
                    pass
            elif op == "bind_reserved" and reserved:
                pod, node_id = reserved.pop(rng.choice(sorted(reserved)))
                state.bind(pod, node_id, at=step)
                bound.append(pod.pod_id)
            elif op == "release" and reserved:
                pod_id = rng.choice(sorted(reserved))
                del reserved[pod_id]
                assert state.release_reservation(pod_id)
                assert not state.release_reservation(pod_id)
            elif op == "unbind" and bound:
                pod_id = bound.pop(rng.randrange(len(bound)))
                state.unbind(pod_id)
                assert not state.release_reservation(pod_id)
            elif op == "release_unknown":
                assert not state.release_reservation(f"ghost{step}")
            elif op == "set_node":
                # Toggle Ready, or move Container<->Batch, alone or (as
                # metascale moves a node) together with going Repurposing.
                node = state.nodes()[rng.choice(sorted(state.nodes()))]
                change = rng.choice(("state", "pool", "pool_and_state"))
                pool = node_state = None
                if change != "state":
                    pool = (NodePool.BATCH if node.pool is NodePool.CONTAINER
                            else NodePool.CONTAINER)
                    moves += 1
                if change == "state":
                    node_state = (NodeState.REPURPOSING if node.state is NodeState.READY
                                  else NodeState.READY)
                elif change == "pool_and_state":
                    node_state = NodeState.REPURPOSING
                before = (node.pool, node.state)
                state.set_node(node.node_id, pool=pool, state=node_state)
                assert (node.pool, node.state) == (pool or before[0], node_state or before[1])
            self.assert_matches_scratch(state)
            for pod_id, (_, node_id) in reserved.items():
                assert pod_id in state.reserved[node_id]
            most_reserved = max(most_reserved, len(reserved))
            most_bound = max(most_bound, len(bound))
        assert most_reserved >= 3 and most_bound >= 3, (most_reserved, most_bound)
        assert moves >= 100, moves


class TestPodPhases:
    def test_legal_lifecycle_paths(self):
        pod = make_pod("p")
        for phase in (PodPhase.BOUND, PodPhase.RUNNING, PodPhase.COMPLETED):
            pod.transition(phase)
        other = make_pod("q")
        other.transition(PodPhase.UNSCHEDULABLE)
        failed = make_pod("r")
        failed.transition(PodPhase.BOUND)
        failed.transition(PodPhase.FAILED)

    def test_illegal_transitions_raise(self):
        pod = make_pod("p")
        with pytest.raises(PhaseTransitionError):
            pod.transition(PodPhase.RUNNING)  # must pass through Bound
        pod.transition(PodPhase.BOUND)
        with pytest.raises(PhaseTransitionError):
            pod.transition(PodPhase.PENDING)

    def test_duplicate_node_ids_rejected(self):
        spec = ClusterSpec(cluster_id="c1")
        spec.add_node(make_node("n1"))
        with pytest.raises(ValueError):
            spec.add_node(make_node("n1"))
