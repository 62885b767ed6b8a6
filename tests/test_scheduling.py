import dataclasses
import random

import pytest

from fedsched.cluster import ClusterSpec, ClusterState, NodePool, NodeState, fits
from fedsched import federation, sim as sim_module
from fedsched.config import validate_config
from fedsched.errors import BindError
from fedsched.resources import GIB
from fedsched.scheduling import (
    builtin_pipeline,
    least_allocated_score,
    schedule_one,
    snapshot_of,
)

from conftest import make_node, make_pod, seeded


def cluster_with(nodes, allowlist=None, quota=None):
    spec = ClusterSpec("c1", namespace_allowlist=allowlist, namespace_quota=quota or {})
    for node in nodes:
        spec.add_node(node)
    return ClusterState(spec, set(), set())


def oracle_least_allocated(free_after, capacity):
    # Independent arithmetic: round(100 * mean of free/capacity), zero-cap
    # dimensions excluded.
    fracs = [f / c for f, c in zip(free_after, capacity) if c > 0]
    return round(100 * sum(fracs) / len(fracs)) if fracs else 0


class TestLeastAllocated:
    def test_hand_computed_three_nodes(self):
        # capacity (8000, 16GiB), free after placement (4000, 6GiB):
        # fractions 0.5 and 0.375, mean 0.4375 -> 44.
        score = least_allocated_score((4000, 6 * GIB, 0), (8000, 16 * GIB, 0))
        assert score == 44
        # free (1000, 16GiB) of (10000, 16GiB): (0.1 + 1.0)/2 -> 55.
        assert least_allocated_score((1000, 16 * GIB, 0), (10_000, 16 * GIB, 0)) == 55
        # Full node free -> 100, exhausted node -> 0.
        cap = (4000, GIB, 2)
        assert least_allocated_score(cap, cap) == 100
        assert least_allocated_score((0, 0, 0), cap) == 0

    def test_zero_capacity_gpu_dimension_excluded(self):
        score = least_allocated_score((5000, 5 * GIB, 0), (10_000, 10 * GIB, 0))
        assert score == 50  # not dragged down by the absent GPU axis

    def test_matches_independent_formula_on_random_inputs(self):
        rng = random.Random(23)
        for _ in range(300):
            cap = [rng.randint(0, 100), rng.randint(0, 100), rng.randint(0, 4)]
            free = [rng.randint(0, c) if c else 0 for c in cap]
            got = least_allocated_score(tuple(free), tuple(cap))
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
        pod = make_pod("p", 0, 0)
        passing = [n for n, node in state.nodes().items() if fits(pod, node, state.allocatable(n))]
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
        quota = {"team": (1500, 4 * GIB, 0)}
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
            # Independent oracle: brute force over every node.
            best = None
            for node in nodes:
                free = state.allocatable(node.node_id)
                if not (
                    node.state is NodeState.READY
                    and node.pool is NodePool.CONTAINER
                    and all(r <= f for r, f in zip(pod.req, free))
                ):
                    continue
                free_after = [
                    f - r for f, r in zip(free, pod.req)
                ]
                score = oracle_least_allocated(free_after, node.capacity.as_tuple())
                key = (score, [-ord(c) for c in node.node_id])
                if best is None or key > best[0]:
                    best = (key, node.node_id)
            expected = best[1] if best else None
            chosen = schedule_one(pod, snapshot_of(state), pipeline)
            assert chosen == expected, f"step {i}: {chosen} != {expected}"
            if chosen is not None:
                state.bind(pod, chosen, at=i)


class TestWeightedOracle:
    """schedule_one against a brute-force argmax kept with the test's own
    node model: free resources, pool, state and labels per node."""

    NODE_IDS = ("a", "b", "n1", "n10", "n2", "n9", "x")

    def test_weighted_placements_match_brute_force_argmax(self):
        rng = random.Random(707)
        weights = (0, 0.25, 0.5, 1, 1.5, 2, 3)
        decisions = ties = refused = 0
        for trial in range(80):
            ids = rng.sample(self.NODE_IDS, rng.randint(1, len(self.NODE_IDS)))
            nodes = [
                make_node(node_id, cpu=rng.choice([4000, 8000]), mem=rng.choice([4, 8]) * GIB,
                          gpu=rng.choice([0, 0, 2, 4]), labels=rng.choice([{}, {"zone": "a"}]),
                          pool=rng.choice(["Container", "Container", "Container", "Batch"]))
                for node_id in ids
            ]
            state = cluster_with(nodes)
            model = {
                node.node_id: {
                    "cap": list(node.capacity.as_tuple()),
                    "free": list(node.capacity.as_tuple()),
                    "labels": dict(node.labels),
                    "container": node.pool is NodePool.CONTAINER,
                    "ready": True,
                }
                for node in nodes
            }
            plugins = rng.choice([["LeastAllocated"], ["GpuBinpack"],
                                  ["LeastAllocated", "GpuBinpack"],
                                  ["GpuBinpack", "LeastAllocated"]])
            score_weights = tuple((name, rng.choice(weights)) for name in plugins)
            pipeline = builtin_pipeline(score_weights=score_weights)
            held = []  # (pod, node id, "reserve" | "bind")
            for step in range(12):
                if held and rng.random() < 0.25:
                    pod, node_id, how = held.pop(rng.randrange(len(held)))
                    if how == "reserve":
                        assert state.release_reservation(pod, node_id)
                    else:
                        state.unbind(pod)
                    free = model[node_id]["free"]
                    for d, r in enumerate(pod.req):
                        free[d] += r
                if rng.random() < 0.15:
                    node_id = rng.choice(ids)
                    ready = not model[node_id]["ready"]
                    model[node_id]["ready"] = ready
                    state.set_node(
                        node_id, state=NodeState.READY if ready else NodeState.REPURPOSING
                    )
                pod = make_pod(f"p{trial}-{step}", cpu=rng.choice([0, 1000, 2000, 4000]),
                               mem=rng.choice([0, 1, 2, 4]) * GIB, gpu=rng.choice([0, 0, 1, 2]),
                               selector=rng.choice([{}, {}, {"zone": "a"}]))
                request = pod.req
                best, best_score, tied = None, None, False
                for node_id in sorted(model):
                    m = model[node_id]
                    if not (m["ready"] and m["container"]
                            and all(m["labels"].get(k) == v for k, v in pod.node_selector.items())
                            and all(r <= f for r, f in zip(request, m["free"]))):
                        continue
                    free_after = [f - r for f, r in zip(m["free"], request)]
                    gpu_cap = m["cap"][2]
                    total = 0
                    for name, weight in score_weights:
                        if name == "LeastAllocated":
                            score = oracle_least_allocated(free_after, m["cap"])
                        else:
                            score = (round(100 * (gpu_cap - free_after[2]) / gpu_cap)
                                     if gpu_cap else 0)
                        total += weight * score
                    if best_score is not None and total == best_score:
                        tied = True
                    if best_score is None or total > best_score:
                        best, best_score = node_id, total
                chosen = schedule_one(pod, snapshot_of(state), pipeline)
                assert chosen == best, f"trial {trial} step {step}: {chosen} != {best}"
                if chosen is None:
                    refused += 1
                    continue
                decisions += 1
                ties += tied
                how = rng.choice(["reserve", "bind", "bind"])
                if how == "reserve":
                    state.reserve(pod, chosen)
                else:
                    state.bind(pod, chosen, at=step)
                held.append((pod, chosen, how))
                free = model[chosen]["free"]
                for d, r in enumerate(request):
                    free[d] -= r
        assert decisions >= 400 and ties >= 100 and refused >= 50, (decisions, ties, refused)


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
                ns: (rng.randint(1, 8) * 1000, rng.randint(1, 8) * GIB, rng.randint(0, 2))
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


def plain_choice(pod, state, pipeline):
    """The reference decision: every node in sorted id order, strict
    improvement on the weighted sum, as the scheduler did before the class
    order existed."""
    if state.spec.admission_error(pod, state.ns_usage) is not None:
        return None
    request = pod.req
    best, best_score = None, None
    for node_id in sorted(state.nodes()):
        node = state.nodes()[node_id]
        free = state.allocatable(node_id)
        if not fits(pod, node, free):
            continue
        score = 0
        for fn, weight in pipeline:
            score += weight * fn(request, node.capacity.as_tuple(), free)
        if best_score is None or score > best_score:
            best, best_score = node_id, score
    return best


def rebuilt_order(state):
    """The node order recomputed from the nodes alone: per capacity, the
    stop rule's unit dims * P and one (-K, free, labels, id) entry per
    Ready container node, sorted. Also returns how many classes (equal
    capacity, free triple and labels) have more than one member."""
    entries, classes = {}, {}
    for node_id, node in state.nodes().items():
        capacity = node.capacity.as_tuple()
        per_capacity = entries.setdefault(capacity, [])
        if node.state is NodeState.READY and node.pool is NodePool.CONTAINER:
            free, labels = state.allocatable(node_id), tuple(sorted(node.labels.items()))
            per_capacity.append((free, labels, node_id))
            classes[capacity, free, labels] = classes.get((capacity, free, labels), 0) + 1
    order = {}
    for capacity, per_capacity in entries.items():
        product = 1
        for cap in capacity:
            product *= cap if cap else 1
        key = lambda free: sum(f * (product // c) for f, c in zip(free, capacity) if c)
        order[capacity] = (sum(1 for c in capacity if c) * product, sorted(
            (-key(free), free, labels, node_id) for free, labels, node_id in per_capacity
        ))
    return order, sum(members > 1 for members in classes.values())


class TestClassOrderDifferential:
    """schedule_one through the node order against the plain loop, for
    every pipeline shape, with the node order checked against a rebuild
    after every mutation."""

    PIPELINES = (
        (("LeastAllocated", 1),),
        (("LeastAllocated", 0.5),),
        (("LeastAllocated", 3),),
        (("LeastAllocated", 0),),
        (("LeastAllocated", 1e307),),  # weight * 100 overflows
        (("GpuBinpack", 1),),
        (("LeastAllocated", 1), ("GpuBinpack", 1)),
        (("GpuBinpack", 2), ("LeastAllocated", 1)),
        (),  # no plugin: every node ties
    )

    def check_order(self, state):
        """Assert the node order equals the rebuild and the ceiling
        invariant holds; return the number of classes with more than one
        member."""
        order, shared = rebuilt_order(state)
        got = {key.capacity: (key.unit, list(entries)) for key, entries in state.order}
        assert got == order
        for selector, ceiling in state.ceilings.items():
            for node_id, node in state.nodes().items():
                if (node.state is NodeState.READY and node.pool is NodePool.CONTAINER
                        and selector <= frozenset(node.labels.items())):
                    free = state.allocatable(node_id)
                    assert all(f <= c for f, c in zip(free, ceiling)), (selector, node_id)
        return shared

    def test_indexed_choices_equal_the_plain_loop(self):
        rng = random.Random(1109)
        namespaces = ("prod", "dev", "team")
        decisions = {i: 0 for i in range(len(self.PIPELINES))}
        chosen_count = shared = 0
        for trial in range(160):
            nodes = []
            for i in range(rng.randint(1, 12)):
                if rng.random() < 0.03:
                    cpu, mem, gpu = 0, 0, 0
                else:
                    cpu, mem = rng.choice([4000, 8000]), rng.choice([4, 8]) * GIB
                    gpu = rng.choice([0, 0, 2, 4])
                nodes.append(make_node(
                    f"n{rng.randint(0, 99)}-{i}", cpu=cpu, mem=mem, gpu=gpu,
                    labels=rng.choice([{}, {}, {"zone": "a"}, {"zone": "b", "rack": "r1"}]),
                    pool=rng.choice(["Container", "Container", "Container", "Batch"])))
            quota = {
                ns: (rng.randint(4, 24) * 1000, rng.randint(4, 24) * GIB, rng.randint(0, 4))
                for ns in namespaces if rng.random() < 0.3
            }
            allowlist = rng.choice([None, None, {"prod", "team"}])
            state = cluster_with(nodes, allowlist=allowlist, quota=quota)
            ids = sorted(state.nodes())
            which = rng.randrange(len(self.PIPELINES))
            pipeline = builtin_pipeline(score_weights=self.PIPELINES[which])
            reserved, bound = [], []
            self.check_order(state)
            for step in range(40):
                roll = rng.random()
                if roll < 0.1 and reserved:
                    pod, node_id = reserved.pop(rng.randrange(len(reserved)))
                    assert state.release_reservation(pod, node_id)
                elif roll < 0.2 and reserved:
                    pod, node_id = reserved.pop(rng.randrange(len(reserved)))
                    state.bind(pod, node_id, at=step)  # consumes the reservation
                    bound.append(pod)
                elif roll < 0.35 and bound:
                    state.unbind(bound.pop(rng.randrange(len(bound))))
                elif roll < 0.45:
                    node_id = rng.choice(ids)
                    if rng.random() < 0.5:
                        state.set_node(node_id, pool=rng.choice(list(NodePool)))
                    else:
                        state.set_node(node_id, state=rng.choice(list(NodeState)))
                else:
                    pod = make_pod(f"p{trial}-{step}", cpu=rng.choice([0, 500, 1000, 2000, 4000]),
                                   mem=rng.choice([0, 1, 2, 4]) * GIB, gpu=rng.choice([0, 0, 1, 2]),
                                   ns=rng.choice(namespaces),
                                   selector=rng.choice([{}, {}, {"zone": "a"}, {"rack": "r1"}]))
                    chosen = schedule_one(pod, snapshot_of(state), pipeline)
                    assert chosen == plain_choice(pod, state, pipeline), (trial, step)
                    decisions[which] += 1
                    if chosen is not None:
                        chosen_count += 1
                        if rng.random() < 0.4:
                            state.reserve(pod, chosen)
                            reserved.append((pod, chosen))
                        else:
                            state.bind(pod, chosen, at=step)
                            bound.append(pod)
                shared += self.check_order(state)
        assert min(decisions.values()) >= 200 and chosen_count >= 1200, (decisions, chosen_count)
        assert shared >= 500, shared

    def test_a_decision_tests_each_class_once(self):
        # 64 identical nodes, two of them partly bound alike: two classes.
        # GpuBinpack has no stop rule, so the walk visits every class; the
        # jump past a class's other members leaves one feasibility test, so
        # one read of the node's label set, per class.
        state = cluster_with([make_node(f"n{i:02d}", gpu=4) for i in range(64)])
        state.bind(make_pod("f1", 1000, GIB, 1), "n17", at=0)
        state.bind(make_pod("f2", 1000, GIB, 1), "n40", at=0)
        reads = []

        class CountedLabelSets(dict):
            def __getitem__(self, node_id):
                reads.append(node_id)
                return super().__getitem__(node_id)

        snap = snapshot_of(state)
        counted = dataclasses.replace(snap, label_sets=CountedLabelSets(snap.label_sets))
        pipeline = builtin_pipeline(score_weights=(("GpuBinpack", 1),))
        pod = make_pod("p", 1000, GIB, 1)
        assert schedule_one(pod, counted, pipeline) == "n17"
        assert sorted(reads) == ["n00", "n17"]
        assert plain_choice(pod, state, pipeline) == "n17"


def ceiling_rejects(pod, snap):
    """Whether the pod's ceiling alone makes `schedule_one` return None."""
    ceiling = snap.ceilings.get(pod.selector_key)
    return ceiling is not None and any(r > c for r, c in zip(pod.req, ceiling))


class TestCeilingDifferential:
    """In whole runs, every decision that a ceiling rejects without a walk
    gets None from the plain loop too."""

    def checked_run(self, raw, seed, monkeypatch):
        """Run a config, checking every decision; return (decisions,
        ceiling rejections)."""
        sim = sim_module.Simulation(validate_config(seeded(raw, seed)))
        counts = [0, 0]

        def checked(pod, snap, pipeline):
            counts[0] += 1
            if ceiling_rejects(pod, snap):
                counts[1] += 1
                state = sim.clusters[snap.spec.cluster_id]
                assert plain_choice(pod, state, pipeline) is None, (sim.ctx.now, pod.pod_id)
            return schedule_one(pod, snap, pipeline)

        monkeypatch.setattr(sim_module, "schedule_one", checked)
        monkeypatch.setattr(federation, "schedule_one", checked)
        sim.run()
        return counts

    def test_random_protocol_runs(self, monkeypatch):
        # The liveness configs; in every other one, nodes carry a zone label
        # and about a third of the pods select a zone.
        from test_acceptance import liveness_configs

        rng = random.Random(19)
        decisions = rejections = 0
        for index, (_, raw) in enumerate(liveness_configs()):
            if index % 2:
                for cluster in raw["topology"]["clusters"]:
                    for node in cluster.get("nodes", ()):
                        node["labels"] = {"zone": rng.choice("ab")}
                for pod in raw["scenario"]["pods"]:
                    if rng.random() < 0.3:
                        pod["selector"] = {"zone": rng.choice("abc")}
            made, rejected = self.checked_run(raw, None, monkeypatch)
            decisions += made
            rejections += rejected
        assert rejections >= 1000 and decisions >= 2 * rejections, (decisions, rejections)

    def test_mesh_overload(self, monkeypatch):
        from test_golden_log import CASES

        raw, seed = CASES["mesh-overload"]()
        decisions, rejections = self.checked_run(raw, seed, monkeypatch)
        assert rejections >= 100, (decisions, rejections)
