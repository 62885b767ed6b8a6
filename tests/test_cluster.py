import itertools
import random

import pytest

from fedsched import engine
from fedsched.cluster import (
    ClusterSpec,
    ClusterState,
    NodePool,
    NodeState,
    PodPhase,
    fits,
)
from fedsched.errors import (
    BindConflict,
    NamespaceNotAllowed,
    OvercommitError,
    PhaseTransitionError,
    QuotaExceeded,
)
from fedsched.config import validate_config
from fedsched.resources import GIB, subtract_triples
from fedsched.sim import Simulation

from conftest import base_config, make_node, make_pod, node_cfg, pod_cfg


def state_of(*nodes, allowlist=None, quota=None) -> ClusterState:
    spec = ClusterSpec(
        cluster_id="c1",
        namespace_allowlist=allowlist,
        namespace_quota=quota or {},
    )
    for node in nodes:
        spec.add_node(node)
    return ClusterState(spec, set(), set())


class TestNodeAllocatable:
    """A node's allocatable as `ClusterState` keeps it: capacity less the
    requests of the pods bound to it."""

    def test_expanse_standard_node_with_no_pods_is_full_capacity(self):
        state = state_of(make_node("n1", cpu=128_000, mem=256 * GIB, gpu=0))
        assert state.allocatable("n1") == (128_000, 256 * GIB, 0)

    def test_empty_pod_set_identity(self):
        node = make_node("n1", cpu=123, mem=456, gpu=2)
        assert state_of(node).allocatable("n1") == node.capacity.as_tuple()

    def test_component_wise_subtraction(self):
        # Oracle: sum each component independently, subtract by hand.
        state = state_of(make_node("n1", cpu=8000, mem=16 * GIB, gpu=4))
        for pod in (make_pod("p1", 2000, 4 * GIB, 1), make_pod("p2", 1000, 2 * GIB, 2)):
            state.bind(pod, "n1", at=0)
        assert state.allocatable("n1") == (5000, 10 * GIB, 1)

    def test_overcommit_is_an_error_not_a_clamp(self):
        node = make_node("n1", cpu=1000, mem=GIB, gpu=0)
        pod = make_pod("p1", 2000, GIB, 0)
        state = state_of(node)
        with pytest.raises(BindConflict):
            state.bind(pod, "n1", at=0)
        assert state.allocatable("n1") == node.capacity.as_tuple()
        # The accounting subtraction itself refuses to go below zero.
        with pytest.raises(OvercommitError):
            subtract_triples(node.capacity.as_tuple(), pod.req)

    def test_monotone_non_increasing_in_bound_set(self):
        rng = random.Random(11)
        state = state_of(make_node("n1", cpu=100_000, mem=100 * GIB, gpu=8))
        pods = [
            make_pod(f"p{i}", rng.randrange(0, 5000), rng.randrange(0, GIB), rng.randrange(0, 2))
            for i in range(12)
        ]
        previous = state.allocatable("n1")
        for pod in pods:
            state.bind(pod, "n1", at=0)
            current = state.allocatable("n1")
            assert all(c <= p for c, p in zip(current, previous))
            previous = current


class TestFits:
    def test_zero_request_fits_any_ready_container_node(self):
        pod = make_pod("p", 0, 0, 0)
        node = make_node("n1", cpu=1, mem=1)
        assert fits(pod, node, node.capacity.as_tuple())

    def test_gpu_selector_match_on_v100_node(self):
        node = make_node("n1", cpu=40_000, mem=384 * GIB, gpu=4,
                         labels={"gpu-model": "v100"})
        pod = make_pod("p", 1000, GIB, 1, selector={"gpu-model": "v100"})
        assert fits(pod, node, node.capacity.as_tuple())
        other = make_pod("q", 1000, GIB, 1, selector={"gpu-model": "a100"})
        assert not fits(other, node, node.capacity.as_tuple())

    def test_non_ready_or_batch_nodes_never_fit(self):
        pod = make_pod("p", 0, 0, 0)
        batch = make_node("n1", pool="Batch")
        assert not fits(pod, batch, batch.capacity.as_tuple())
        repurposing = make_node("n2")
        repurposing.state = NodeState.REPURPOSING
        assert not fits(pod, repurposing, repurposing.capacity.as_tuple())

    def test_exhaustive_truth_table_matches_brute_force(self):
        # Independent predicate, written from scratch for the oracle.
        def oracle(pod, node, free):
            if node.state is not NodeState.READY or node.pool is not NodePool.CONTAINER:
                return False
            for key, want in pod.node_selector.items():
                if node.labels.get(key) != want:
                    return False
            want_cpu, want_memory, want_gpu = pod.req
            return (
                want_cpu <= free.cpu_millicores
                and want_memory <= free.memory_bytes
                and want_gpu <= free.gpu_count
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
            assert fits(pod, node, node.capacity.as_tuple()) == oracle(pod, node, node.capacity)


class TestBind:
    def test_forced_placement_reduces_allocatable(self):
        node = make_node("n1", cpu=4000, mem=8 * GIB)
        state = state_of(node)
        pod = make_pod("p1", 1000, 2 * GIB)
        state.bind(pod, "n1", at=0)
        assert pod.phase is PodPhase.RUNNING
        assert pod.bound_node == "n1" and state.bound["n1"] == {"p1": pod.req}
        assert state.allocatable("n1") == (3000, 6 * GIB, 0)

    def test_unbind_where_the_pod_is_not_bound_raises(self):
        # Both clusters have a node n1, but only one holds the pod.
        here, there = state_of(make_node("n1")), state_of(make_node("n1"))
        pod = make_pod("p1")
        here.bind(pod, "n1", at=0)
        with pytest.raises(KeyError):
            there.unbind(pod)
        assert there.allocatable("n1") == there.nodes()["n1"].capacity.as_tuple()
        here.unbind(pod)
        assert here.bound["n1"] == {}

    def test_gpu_race_yields_one_bound_one_conflict_in_both_orders(self):
        # Oracle: enumerate both submission orders; each yields one success.
        for order in ((0, 1), (1, 0)):
            state = state_of(make_node("n1", cpu=8000, mem=8 * GIB, gpu=4))
            pods = [make_pod("a", 1000, GIB, 3), make_pod("b", 1000, GIB, 3)]
            first, second = pods[order[0]], pods[order[1]]
            state.bind(first, "n1", at=0)
            with pytest.raises(BindConflict):
                state.bind(second, "n1", at=0)
            assert first.phase is PodPhase.RUNNING
            assert second.phase is PodPhase.PENDING

    def test_quota_barely_below_request_rejects(self):
        request = (1000, GIB, 0)
        quota = (1000, GIB - 1, 0)  # request minus epsilon
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
        quota = {"team": (1000, GIB, 0)}
        state = state_of(make_node("n1"), quota=quota)
        pod = make_pod("p1", 1000, GIB, ns="team")
        state.bind(pod, "n1", at=0)
        with pytest.raises(QuotaExceeded):
            state.bind(make_pod("p2", 1000, GIB, ns="team"), "n1", at=1)
        state.unbind(pod)
        p3 = make_pod("p3", 1000, GIB, ns="team")
        state.bind(p3, "n1", at=2)
        assert p3.phase is PodPhase.RUNNING


class TestReservations:
    def test_reservation_holds_capacity_until_released(self):
        state = state_of(make_node("n1", cpu=2000, mem=4 * GIB))
        holder = make_pod("r1", 1500, GIB)
        state.reserve(holder, "n1")
        with pytest.raises(BindConflict):
            state.bind(make_pod("p1", 1000, GIB), "n1", at=0)
        assert state.release_reservation(holder, "n1")
        state.bind(make_pod("p2", 1000, GIB), "n1", at=1)

    def test_bind_consumes_own_reservation(self):
        state = state_of(make_node("n1", cpu=2000, mem=4 * GIB))
        pod = make_pod("r1", 1500, GIB)
        state.reserve(pod, "n1")
        state.bind(pod, "n1", at=0)
        assert "r1" not in state.reserved["n1"]
        assert state.allocatable("n1") == (500, 3 * GIB, 0)


class TestCeilings:
    """`ClusterState.ceilings`: raised where a schedulable node's free
    triple grows, only for the selectors that match the node, and left
    alone where free shrinks."""

    ANY, ZONE_A, ZONE_B = frozenset(), frozenset({("zone", "a")}), frozenset({("zone", "b")})

    def two_zones(self):
        """Nodes a1 (zone a) and b1 (zone b) of (8000, 8 GiB), b1 with
        (6000, 6 GiB) bound, so (2000, 2 GiB) free."""
        state = state_of(make_node("a1", cpu=8000, mem=8 * GIB, labels={"zone": "a"}),
                         make_node("b1", cpu=8000, mem=8 * GIB, labels={"zone": "b"}))
        state.bind(make_pod("b-load", 6000, 6 * GIB), "b1", at=0)
        return state

    def set_exact(self, state):
        """Put each of the three ceilings at its exact maximum, (-1, -1, -1)
        where the selector matches no Ready container node."""
        for selector in (self.ANY, self.ZONE_A, self.ZONE_B):
            frees = [state.allocatable(n) for n, node in state.nodes().items()
                     if node.state is NodeState.READY and node.pool is NodePool.CONTAINER
                     and selector <= frozenset(node.labels.items())]
            state.ceilings[selector] = tuple(max(f[d] for f in frees) if frees else -1
                                             for d in range(3))

    def test_reserve_bind_and_taking_a_node_out_leave_the_ceilings_alone(self):
        state = self.two_zones()
        self.set_exact(state)
        before = dict(state.ceilings)
        held = make_pod("held", 1000, GIB)
        state.reserve(held, "a1")
        state.bind(make_pod("direct", 1000, GIB), "a1", at=1)
        state.bind(held, "a1", at=2)
        state.set_node("b1", pool=NodePool.BATCH)
        assert state.ceilings == before

    @pytest.mark.parametrize("growth", ["unbind", "release_reservation", "set_node"])
    def test_growth_raises_only_the_ceilings_that_match_the_node(self, growth):
        state = self.two_zones()
        pod = make_pod("a-load", 4000, 4 * GIB)
        if growth == "unbind":
            state.bind(pod, "a1", at=0)
        elif growth == "release_reservation":
            state.reserve(pod, "a1")
        else:
            state.set_node("a1", state=NodeState.REPURPOSING)
        self.set_exact(state)
        zone_b = state.ceilings[self.ZONE_B]
        if growth == "unbind":
            state.unbind(pod)
        elif growth == "release_reservation":
            assert state.release_reservation(pod, "a1")
        else:
            state.set_node("a1", state=NodeState.READY)
        full = (8000, 8 * GIB, 0)
        assert state.ceilings == {self.ANY: full, self.ZONE_A: full, self.ZONE_B: zone_b}
        assert zone_b == (2000, 2 * GIB, 0)


class TestIncrementalAccounting:
    """The cached per-node vectors against sums recomputed from scratch."""

    @staticmethod
    def scratch_allocatable(state, node_id, include_reservations):
        holds = list(state.bound[node_id].values())
        if include_reservations:
            holds += list(state.reserved[node_id].values())
        capacity = state.nodes()[node_id].capacity.as_tuple()
        free = tuple(capacity[d] - sum(h[d] for h in holds) for d in range(3))
        assert min(free) >= 0, free
        return free

    def assert_matches_scratch(self, state):
        aggregate = [0, 0, 0]
        capacity = [0, 0, 0]
        for node_id, node in state.nodes().items():
            for include in (True, False):
                assert state.allocatable(node_id, include) == \
                    self.scratch_allocatable(state, node_id, include)
            if node.pool is NodePool.CONTAINER and node.state is NodeState.READY:
                free = self.scratch_allocatable(state, node_id, False)
                aggregate = [a + f for a, f in zip(aggregate, free)]
                capacity = [a + c for a, c in zip(capacity, node.capacity.as_tuple())]
        assert state.aggregate_allocatable() == tuple(aggregate)
        assert state.aggregate_capacity() == tuple(capacity)

    @staticmethod
    def assert_namespaces_match_scratch(state, namespace_of, quota):
        usage = {}
        for holds in (state.bound, state.reserved):
            for node_holds in holds.values():
                for pod_id, request in node_holds.items():
                    ns = namespace_of[pod_id]
                    usage[ns] = [u + r for u, r in
                                 zip(usage.get(ns, (0, 0, 0)), request)]
        for ns in ("default", "capped"):
            assert state.namespace_used(ns) == tuple(usage.get(ns, (0, 0, 0))), ns
        capped = usage.get("capped", (0, 0, 0))
        assert all(u <= q for u, q in zip(capped, quota)), capped

    def test_random_operation_sequences_match_scratch_sums(self):
        rng = random.Random(624)
        nodes = [
            make_node(f"n{i}", cpu=rng.choice([2000, 4000, 8000]),
                      mem=rng.choice([4, 8]) * GIB, gpu=rng.choice([0, 2]))
            for i in range(4)
        ]
        nodes.append(make_node("b0", cpu=8000, mem=8 * GIB, pool="Batch"))
        quota = (6000, 6 * GIB, 1)
        state = state_of(*nodes, quota={"capped": quota})
        namespace_of = {}  # pod id -> namespace, for every pod made
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
                namespace_of[pod.pod_id] = pod.namespace
                node_id = rng.choice(sorted(state.nodes()))
                try:
                    if op == "reserve":
                        state.reserve(pod, node_id)
                        reserved[pod.pod_id] = (pod, node_id)
                    else:
                        state.bind(pod, node_id, at=step)
                        bound.append(pod)
                except (BindConflict, QuotaExceeded):
                    pass
            elif op == "bind_reserved" and reserved:
                pod, node_id = reserved.pop(rng.choice(sorted(reserved)))
                state.bind(pod, node_id, at=step)
                bound.append(pod)
            elif op == "release" and reserved:
                pod, node_id = reserved.pop(rng.choice(sorted(reserved)))
                assert state.release_reservation(pod, node_id)
                assert not state.release_reservation(pod, node_id)
            elif op == "unbind" and bound:
                pod = bound.pop(rng.randrange(len(bound)))
                state.unbind(pod)
                assert not state.release_reservation(pod, pod.bound_node)
            elif op == "release_unknown":
                node_id = rng.choice(sorted(state.nodes()))
                assert not state.release_reservation(make_pod(f"ghost{step}"), node_id)
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
            self.assert_namespaces_match_scratch(state, namespace_of, quota)
            for pod_id, (_, node_id) in reserved.items():
                assert pod_id in state.reserved[node_id]
            most_reserved = max(most_reserved, len(reserved))
            most_bound = max(most_bound, len(bound))
        assert most_reserved >= 3 and most_bound >= 3, (most_reserved, most_bound)
        assert moves >= 100, moves

    def test_capacity_oracle_catches_stale_cached_vectors(self):
        # The per-bind oracle sums the per-pod maps, not the cached vectors:
        # with the node's caches reset to full capacity, bind's own checks
        # pass and only the oracle sees the overfilled node. The second
        # node keeps the cluster aggregate from underflowing first.
        state = state_of(make_node("n1", cpu=4000, mem=4 * GIB), make_node("n2"))
        state.bind(make_pod("p1", 3000, GIB), "n1", at=0)
        capacity = state.nodes()["n1"].capacity.as_tuple()
        state._allocatable["n1"] = capacity
        state._unbound["n1"] = capacity
        with pytest.raises(OvercommitError) as err:
            state.bind(make_pod("p2", 2000, GIB), "n1", at=1)
        # The held sum and the node spec's capacity, both as triples.
        assert str(err.value) == (
            f"node n1 in c1 overcommitted: {(5000, 2 * GIB, 0)} > {(4000, 4 * GIB, 0)}"
        )


class TestPodPhases:
    def test_legal_lifecycle_paths(self):
        pod = make_pod("p")
        for phase in (PodPhase.RUNNING, PodPhase.COMPLETED):
            pod.transition(phase)
        other = make_pod("q")
        other.transition(PodPhase.UNSCHEDULABLE)

    def test_illegal_transitions_raise(self):
        pod = make_pod("p")
        with pytest.raises(PhaseTransitionError):
            pod.transition(PodPhase.COMPLETED)  # must pass through Running
        pod.transition(PodPhase.RUNNING)
        with pytest.raises(PhaseTransitionError):
            pod.transition(PodPhase.PENDING)

    def test_duplicate_node_ids_rejected(self):
        spec = ClusterSpec(cluster_id="c1")
        spec.add_node(make_node("n1"))
        with pytest.raises(ValueError):
            spec.add_node(make_node("n1"))


def test_a_pods_req_is_its_request_triple_built_once():
    # The triple the pod's config record builds is the one object the run
    # submits, logs and holds: no step builds another.
    raw = base_config(
        [{"id": c, "nodes": [node_cfg(f"{c}-n1", gpu=1)]} for c in ("a", "b")],
        pairs=[("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")],
        pods=[pod_cfg("p", "a", cpu=2000, mem="4GiB", gpu=1)],
    )
    config = validate_config(raw)
    triple = config.scenario.pods[0].req
    assert triple == (2000, 4 * GIB, 1) and type(triple) is tuple
    sim = Simulation(config)
    pod = sim.pod_objects["p"]
    assert pod.req is triple
    assert "req=(2000, 4294967296, 1)" in repr(pod) and repr(pod).count("2000") == 1
    submit_req = engine.FIELDS[engine.POD_SUBMIT].index("req")
    seen = set()
    while sim.ctx.queue.due(config.duration_ms):
        event = sim.step()
        if event.kind == engine.POD_SUBMIT:
            assert event.args[submit_req] is triple
            seen.add(event.kind)
        for fx in event.effects:
            op, names = engine.EFFECT_FIELDS[fx[0]]
            if "req" in names:
                assert fx[1 + names.index("req")] is triple, fx
                seen.add(op)
        for state in sim.clusters.values():
            for held in ("reserved", "bound"):
                for pods in getattr(state, held).values():
                    if "p" in pods:
                        assert pods["p"] is triple
                        seen.add(held)
    assert pod.phase is PodPhase.COMPLETED
    assert seen == {engine.POD_SUBMIT, "reserve", "bind", "unbind", "reserved", "bound"}
