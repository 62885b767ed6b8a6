"""End-to-end protocol behavior, driven through full simulation runs."""

import random

from fedsched import engine
from fedsched.cluster import PodPhase
from fedsched.config import validate_config
from fedsched.federation import ChaperonState, ProxyState
from fedsched.sim import Simulation
from conftest import (
    base_config, fx_of, make_pod, node_cfg, pod_cfg, pod_row, run_raw, seeded,
)
from test_acceptance import random_protocol_raw
from test_golden_log import CASES
from test_metascale import batch_cluster, job_cfg


def events_of(sim, kind):
    return [e for e in sim.events if e.kind == kind]


def effects_of(sim, op):
    return [
        (e.time, fx)
        for e in sim.events
        for fx in fx_of(e)
        if fx["op"] == op
    ]


def has_effect(event, op, state):
    return any(fx["op"] == op and fx["state"] == state for fx in fx_of(event))


def bind_conflicts(sim):
    """The DelegateBind events whose bind conflicted: each sends its
    chaperon back to PendingSchedule."""
    return [e for e in events_of(sim, engine.DELEGATE_BIND)
            if has_effect(e, "chaperon", "PendingSchedule")]


class TestFanOut:
    def test_three_targets_three_chaperons(self):
        clusters = [{"id": c, "nodes": [node_cfg(f"{c}-n1")]} for c in "stuv"]
        raw = base_config(clusters, pairs=[("s", "t"), ("s", "u"), ("s", "v")],
                          pods=[pod_cfg("p1", "s")])
        sim, report = run_raw(raw)
        creates = events_of(sim, engine.CHAPERON_CREATE)
        assert len(creates) == 3
        assert sorted(e.payload["target"] for e in creates) == ["t", "u", "v"]
        assert pod_row(report, "p1").final_phase == "Completed"

    def test_proxies_of_a_source_share_its_targets_tuple(self):
        # One tuple per source, held by each of its proxies and fan-out
        # effects; the graph's `targets_of` still returns a fresh list.
        clusters = [{"id": c, "nodes": [node_cfg(f"{c}-n1")]} for c in "stu"]
        pods = [pod_cfg(f"{s}{i}", s, submit=i * 1000) for s in "st" for i in range(3)]
        raw = base_config(clusters, pairs=[("s", "t"), ("s", "u"), ("t", "u")], pods=pods)
        sim = Simulation(validate_config(raw))
        held_live = {}  # every proxy, taken while the protocol holds it
        while sim.ctx.queue.due(sim.config.duration_ms):
            sim.step()
            held_live.update(sim.protocol.proxies)
        fanned = [fx for e in sim.events for fx in e.effects if fx[0] == "proxy_targets"]
        for source, targets in (("s", ("t", "u")), ("t", ("u",))):
            proxies = [p for p in held_live.values() if p.source == source]
            held = {id(p.targets) for p in proxies}
            held |= {id(fx[3]) for fx in fanned if fx[1].startswith(source)}
            assert len(proxies) == 3 and len(held) == 1
            assert proxies[0].targets == targets
            assert sim.graph.targets_of(source) is not sim.graph.targets_of(source)

    def test_self_edge_only_schedules_in_own_cluster(self):
        clusters = [{"id": "s", "nodes": [node_cfg("s-n1")]}]
        raw = base_config(clusters, pairs=[("s", "s")], pods=[pod_cfg("p1", "s")])
        sim, report = run_raw(raw)
        creates = events_of(sim, engine.CHAPERON_CREATE)
        assert len(creates) == 1 and creates[0].payload["target"] == "s"
        assert pod_row(report, "p1").bound_cluster == "s"
        assert report.offloads == {("s", "s"): 1}

    def test_non_eligible_pod_never_produces_a_proxy(self):
        clusters = [{"id": "s", "nodes": [node_cfg("s-n1")]},
                    {"id": "t", "nodes": [node_cfg("t-n1")]}]
        raw = base_config(clusters, pairs=[("s", "t"), ("s", "s")],
                          pods=[pod_cfg("p1", "s", federated=False)])
        sim, report = run_raw(raw)
        assert events_of(sim, engine.CHAPERON_CREATE) == []
        assert effects_of(sim, "proxy") == []
        assert pod_row(report, "p1").bound_cluster == "s"

    def test_eligible_pod_with_no_targets_is_unschedulable(self):
        clusters = [{"id": "s", "nodes": [node_cfg("s-n1")]}]
        raw = base_config(clusters, edges=[], pods=[pod_cfg("p1", "s")])
        sim, report = run_raw(raw)
        assert pod_row(report, "p1").final_phase == "Unschedulable"
        assert sim.pod_objects["p1"].phase is PodPhase.UNSCHEDULABLE


class TestCandidateScheduling:
    def test_feasible_target_reserves_the_max_score_node(self):
        # Two nodes in the target; the emptier one (by the documented
        # least-allocated arithmetic) must hold the reservation.
        clusters = [
            {"id": "s", "nodes": [node_cfg("s-n1", cpu=100)]},
            {"id": "t", "nodes": [node_cfg("t-big", cpu=20_000, mem="8GiB"),
                                  node_cfg("t-small", cpu=5_000, mem="8GiB")]},
        ]
        raw = base_config(clusters, pairs=[("s", "t")],
                          pods=[pod_cfg("p1", "s", cpu=1000, mem="1GiB")])
        sim, report = run_raw(raw)
        reserves = effects_of(sim, "reserve")
        assert len(reserves) == 1
        # free-after fractions: big (0.95 + 7/8)/2 = 91, small (0.8 + 7/8)/2 = 84
        assert reserves[0][1]["node"] == "t-big"
        assert pod_row(report, "p1").bound_node == "t-big"

    def test_zero_capacity_target_reports_unschedulable(self):
        clusters = [
            {"id": "s", "nodes": [node_cfg("s-n1", cpu=100)]},
            {"id": "t", "nodes": [node_cfg("t-n1", cpu=100, mem="1MiB")]},
        ]
        raw = base_config(clusters, pairs=[("s", "t")],
                          pods=[pod_cfg("p1", "s", cpu=1000, mem="1GiB")])
        sim, report = run_raw(raw)
        reports = events_of(sim, engine.CANDIDATE_REPORT)
        assert reports and all(e.payload["status"] == "unschedulable" for e in reports)
        assert pod_row(report, "p1").final_phase == "Unschedulable"

    def test_contending_pods_share_one_node_over_time(self):
        # One target node fits one pod at a time; whichever fan-out lands
        # first reserves it, the other waits for the completion and then
        # runs. Both submission orders must behave identically.
        for first, second in (("a", "b"), ("b", "a")):
            clusters = [
                {"id": "s", "nodes": [node_cfg("s-n1", cpu=100)]},
                {"id": "t", "nodes": [node_cfg("t-n1", cpu=1000, mem="2GiB")]},
            ]
            pods = [
                pod_cfg(first, "s", cpu=800, mem="1GiB", submit=0, duration="10s"),
                pod_cfg(second, "s", cpu=800, mem="1GiB", submit=100, duration="10s"),
            ]
            raw = base_config(clusters, pairs=[("s", "t")], pods=pods, duration="5m")
            sim, report = run_raw(raw)
            rows = {p.pod_id: p for p in report.pods}
            assert rows[first].bind_time < rows[second].bind_time
            assert rows[second].bind_time >= rows[first].complete_time
            assert rows[first].final_phase == rows[second].final_phase == "Completed"
            # The loser reported unschedulable before eventually reserving.
            statuses = [
                e.payload["status"]
                for e in events_of(sim, engine.CANDIDATE_REPORT)
                if e.payload["pod"] == second
            ]
            assert statuses[0] == "unschedulable"
            assert statuses[-1] == "reserved"
            # At most one reservation held at any instant.
            held = 0
            for e in sim.events:
                for fx in fx_of(e):
                    if fx["op"] == "reserve":
                        held += 1
                    elif fx["op"] in ("release",):
                        held -= 1
                    elif fx["op"] == "bind":
                        held = max(0, held - 1)
                    assert held <= 1


class TestElection:
    def preload(self, cluster, pod_id, cpu):
        return pod_cfg(pod_id, cluster, cpu=cpu, mem="0", federated=False,
                       submit=0, duration="1h")

    def test_single_reserved_candidate_elected_regardless_of_score(self):
        clusters = [
            {"id": "s", "nodes": [node_cfg("s-n1", cpu=100)]},
            {"id": "t", "nodes": [node_cfg("t-n1", cpu=10_000, mem="1GiB")]},
            {"id": "u", "nodes": [node_cfg("u-n1", cpu=100, mem="1MiB")]},
        ]
        # u is infeasible, t nearly full: t still wins because it is the
        # only reserved candidate.
        pods = [self.preload("t", "fill", 9000),
                pod_cfg("p1", "s", cpu=900, mem="0", submit=1000)]
        raw = base_config(clusters, pairs=[("s", "t"), ("s", "u")], pods=pods)
        sim, report = run_raw(raw)
        assert pod_row(report, "p1").bound_cluster == "t"

    def test_emptier_aggregate_wins(self):
        # Aggregate free fractions 0.2 vs 0.8: the 0.8 target is elected.
        clusters = [
            {"id": "s", "nodes": [node_cfg("s-n1", cpu=100)]},
            {"id": "a", "nodes": [node_cfg("a-n1", cpu=10_000, mem="1GiB")]},
            {"id": "b", "nodes": [node_cfg("b-n1", cpu=10_000, mem="1GiB")]},
        ]
        pods = [
            self.preload("a", "fill-a", 8000),
            self.preload("b", "fill-b", 2000),
            pod_cfg("p1", "s", cpu=0, mem="0", submit=1000),
        ]
        raw = base_config(clusters, pairs=[("s", "a"), ("s", "b")], pods=pods)
        sim, report = run_raw(raw)
        binds = events_of(sim, engine.DELEGATE_BIND)
        assert [e.payload["target"] for e in binds if e.payload["pod"] == "p1"] == ["b"]
        assert pod_row(report, "p1").bound_cluster == "b"

    def test_tie_breaks_on_lexicographic_cluster_id(self):
        clusters = [
            {"id": "s", "nodes": [node_cfg("s-n1", cpu=100)]},
            {"id": "zeta", "nodes": [node_cfg("z-n1", cpu=10_000, mem="1GiB")]},
            {"id": "alpha", "nodes": [node_cfg("a-n1", cpu=10_000, mem="1GiB")]},
        ]
        raw = base_config(clusters, pairs=[("s", "zeta"), ("s", "alpha")],
                          pods=[pod_cfg("p1", "s", cpu=0, mem="0")])
        _, report = run_raw(raw)
        assert pod_row(report, "p1").bound_cluster == "alpha"

    def test_late_report_beyond_timeout_is_excluded(self):
        # The slow target is empty (would win on score) but its edge latency
        # exceeds the election timeout, so the election proceeds without it.
        clusters = [
            {"id": "s", "nodes": [node_cfg("s-n1", cpu=100)]},
            {"id": "fast", "nodes": [node_cfg("f-n1", cpu=10_000, mem="1GiB")]},
            {"id": "slow", "nodes": [node_cfg("sl-n1", cpu=100_000, mem="64GiB")]},
        ]
        raw = base_config(clusters, pods=[
            self.preload("fast", "fill", 5000),
            pod_cfg("p1", "s", cpu=1000, mem="0", submit=1000),
        ])
        raw["topology"]["kind"] = "explicit"
        raw["topology"]["edges"] = [
            {"source": "s", "target": "fast"},
            {"source": "s", "target": "slow", "latency": {"base": "20s", "jitter": "0ms"}},
        ]
        raw["federation"] = {"election_timeout": "5s"}
        sim, report = run_raw(raw, seed=1)
        assert pod_row(report, "p1").bound_cluster == "fast"
        # Election fired at the timeout, not when the slow report landed.
        bind_sends = [e for e in events_of(sim, engine.DELEGATE_BIND)]
        assert bind_sends[0].time < 21_000

    def test_all_unschedulable_retries_then_gives_up(self):
        clusters = [
            {"id": "s", "nodes": [node_cfg("s-n1", cpu=100)]},
            {"id": "t", "nodes": [node_cfg("t-n1", cpu=100, mem="1MiB")]},
        ]
        raw = base_config(clusters, pairs=[("s", "t")],
                          pods=[pod_cfg("p1", "s", cpu=4000, mem="4GiB")],
                          duration="2m")
        sim, report = run_raw(raw)
        assert pod_row(report, "p1").final_phase == "Unschedulable"
        stamp = [t for t, fx in effects_of(sim, "unschedulable") if fx["pod"] == "p1"]
        # timeout at 5s, then backoffs 1+2+4+8+16s: gives up at t=36s.
        assert stamp == [36_000]


class TestFinalize:
    def three_target_raw(self):
        clusters = [
            {"id": "s", "nodes": [node_cfg("s-n1", cpu=100)]},
            {"id": "t1", "nodes": [node_cfg("t1-n1", cpu=4000, mem="4GiB")]},
            {"id": "t2", "nodes": [node_cfg("t2-n1", cpu=8000, mem="8GiB")]},
            {"id": "t3", "nodes": [node_cfg("t3-n1", cpu=4000, mem="4GiB")]},
        ]
        return base_config(
            clusters,
            pairs=[("s", "t1"), ("s", "t2"), ("s", "t3")],
            pods=[pod_cfg("p1", "s", cpu=1000, mem="1GiB", duration="30s")],
            duration="5m",
        )

    def test_elected_target_binds_others_deleted(self):
        sim, report = run_raw(self.three_target_raw())
        # t2 has the emptiest aggregate after placement.
        assert pod_row(report, "p1").bound_cluster == "t2"
        deletes = events_of(sim, engine.CANDIDATE_DELETE)
        assert sorted(e.payload["target"] for e in deletes) == ["t1", "t3"]
        states = {fx["cluster"]: fx["state"] for _, fx in effects_of(sim, "chaperon")}
        assert states == {
            "t1": ChaperonState.DELETED.value,
            "t2": ChaperonState.DELEGATE.value,
            "t3": ChaperonState.DELETED.value,
        }
        assert effects_of(sim, "proxy")[-1][1]["state"] == ProxyState.BOUND.value
        # p1 completed, so the protocol keeps none of its records.
        assert sim.protocol.proxies == {} and sim.protocol.chaperons == {}
        # Deleted chaperons hold no reservations.
        for cluster_id in ("t1", "t3"):
            state = sim.clusters[cluster_id]
            assert all(not holds for holds in state.reserved.values())

    def test_single_target_sends_zero_deletes(self):
        clusters = [
            {"id": "s", "nodes": [node_cfg("s-n1", cpu=100)]},
            {"id": "t", "nodes": [node_cfg("t-n1")]},
        ]
        raw = base_config(clusters, pairs=[("s", "t")], pods=[pod_cfg("p1", "s")])
        sim, _ = run_raw(raw)
        assert events_of(sim, engine.CANDIDATE_DELETE) == []

    def test_bind_conflict_reelects_runner_up(self):
        # Reservations disabled: a local pod grabs the elected node while
        # the delegate-bind message is in flight. The proxy must fall back
        # to the runner-up and still end with exactly one delegate.
        clusters = [
            {"id": "s", "nodes": [node_cfg("s-n1", cpu=100)]},
            {"id": "a", "nodes": [node_cfg("a-n1", cpu=10_000, mem="4GiB")]},
            {"id": "b", "nodes": [node_cfg("b-n1", cpu=5_000, mem="4GiB")]},
        ]
        pods = [
            pod_cfg("p1", "s", cpu=1000, mem="1GiB", submit=0, duration="30s"),
            # Lands between a's candidate report (t=20) and the delegate
            # bind arrival (t=30); fills node a-n1 completely.
            pod_cfg("blocker", "a", cpu=10_000, mem="4GiB", federated=False,
                    submit=25, duration="1h"),
        ]
        raw = base_config(clusters, pairs=[("s", "a"), ("s", "b")], pods=pods,
                          duration="5m")
        raw["federation"] = {"reservations": False}
        sim, report = run_raw(raw)
        assert pod_row(report, "p1").bound_cluster == "b"
        assert pod_row(report, "blocker").bound_cluster == "a"
        delegates = [fx["cluster"] for _, fx in effects_of(sim, "chaperon")
                     if fx["state"] == ChaperonState.DELEGATE.value]
        assert delegates == ["b"]
        assert len(bind_conflicts(sim)) == 1
        # The proxy recognises the conflict report and re-elects.
        rollbacks = [e for e in events_of(sim, engine.CANDIDATE_REPORT)
                     if has_effect(e, "proxy", "CandidatesPending")]
        assert [e.payload["target"] for e in rollbacks] == ["a"]


class TestRetryOrder:
    def test_pending_chaperons_retry_in_creation_order(self):
        # Reservations disabled. p0's chaperon is created first, reserves,
        # and is elected; a local blocker fills the node before the delegate
        # bind lands, so the bind conflicts and p0 goes back to
        # PendingSchedule after p1-p3 already wait there. When the blocker
        # completes, one retry pass must try them in creation order.
        clusters = [
            {"id": "s", "nodes": [node_cfg("s-n1", cpu=100)]},
            {"id": "t", "nodes": [node_cfg("t-n1", cpu=10_000)]},
        ]
        pods = [pod_cfg("p0", "s", submit=0, duration="1m")]
        pods += [pod_cfg(f"p{i}", "s", submit=15 + i, duration="1m") for i in (1, 2, 3)]
        pods.append(pod_cfg("blocker", "t", cpu=10_000, federated=False,
                            submit=25, duration="20s"))
        raw = base_config(clusters, pairs=[("s", "t")], pods=pods, duration="2m")
        raw["federation"] = {"reservations": False}
        sim, report = run_raw(raw)

        created = [fx["pod"] for _, fx in effects_of(sim, "chaperon")
                   if fx["state"] == "PendingSchedule"]
        assert created == ["p0", "p1", "p2", "p3", "p0"]
        assert [e.payload["pod"] for e in bind_conflicts(sim)] == ["p0"]

        freed = next(e for e in events_of(sim, engine.POD_COMPLETE)
                     if e.payload["pod"] == "blocker")
        retried = [fx["pod"] for fx in fx_of(freed)
                   if fx["op"] == "chaperon" and fx["state"] == "CandidateReserved"]
        assert retried == ["p0", "p1", "p2", "p3"]
        assert all(pod_row(report, f"p{i}").bound_cluster == "t" for i in range(4))


class TestBindConflictRule:
    """An ELECTED proxy takes an "unschedulable" report from its elected
    target as a bind conflict, and ignores every other report."""

    def elected(self):
        clusters = [
            {"id": "s", "nodes": [node_cfg("s-n1", cpu=100)]},
            {"id": "a", "nodes": [node_cfg("a-n1", cpu=10_000, mem="4GiB")]},
            {"id": "b", "nodes": [node_cfg("b-n1", cpu=5_000, mem="4GiB")]},
        ]
        raw = base_config(clusters, pairs=[("s", "a"), ("s", "b")],
                          pods=[pod_cfg("p1", "s", cpu=1000, mem="1GiB")])
        sim = Simulation(validate_config(raw))
        proxy = sim.protocol.proxies.get("p1")
        while proxy is None or proxy.state is not ProxyState.ELECTED:
            sim.step()
            proxy = sim.protocol.proxies.get("p1")
        assert proxy.elected_target == "a"
        # Effects recorded from here on, as a step would record them.
        self.effects = []
        sim.ctx.effect = self.effects.append
        return sim, proxy

    def report(self, sim, target, status):
        sim.protocol.on_candidate_report("p1", target, status)
        return self.effects

    def test_unschedulable_from_another_target_is_not_a_conflict(self):
        sim, proxy = self.elected()
        assert self.report(sim, "b", "unschedulable") == []
        assert proxy.state is ProxyState.ELECTED and proxy.elected_target == "a"

    def test_reserved_from_the_elected_target_is_not_a_conflict(self):
        sim, proxy = self.elected()
        assert self.report(sim, "a", "reserved") == []
        assert proxy.state is ProxyState.ELECTED and proxy.elected_target == "a"

    def test_unschedulable_from_the_elected_target_is_a_conflict(self):
        sim, proxy = self.elected()
        effects = self.report(sim, "a", "unschedulable")
        assert effects[0] == ("proxy", "p1", "CandidatesPending")
        # The runner-up still holds its reservation, so it is elected at once.
        assert proxy.state is ProxyState.ELECTED and proxy.elected_target == "b"


class TestMirror:
    def test_mirror_trace_is_delegate_trace_shifted_by_latency(self):
        clusters = [
            {"id": "s", "nodes": [node_cfg("s-n1", cpu=100)]},
            {"id": "t", "nodes": [node_cfg("t-n1")]},
        ]
        raw = base_config(clusters, pairs=[("s", "t")],
                          pods=[pod_cfg("p1", "s", duration="20s")],
                          base_latency="10ms", duration="5m")
        sim, _ = run_raw(raw)
        bind_t = next(t for t, fx in effects_of(sim, "bind") if fx["pod"] == "p1")
        complete_t = next(t for t, fx in effects_of(sim, "unbind") if fx["pod"] == "p1")
        mirrors = [(e.time, e.payload["phase"]) for e in events_of(sim, engine.STATUS_MIRROR)]
        assert mirrors == [
            (bind_t + 10, "Bound"),
            (bind_t + 10, "Running"),
            (complete_t + 10, "Completed"),
        ]
        mirrored = [e.payload["phase"] for e in events_of(sim, engine.STATUS_MIRROR)
                    if e.payload["pod"] == "p1"]
        assert mirrored[-1] == "Completed"

    def test_no_delegate_updates_leaves_proxy_unchanged(self):
        clusters = [
            {"id": "s", "nodes": [node_cfg("s-n1", cpu=100)]},
            {"id": "t", "nodes": [node_cfg("t-n1", cpu=100, mem="1MiB")]},
        ]
        raw = base_config(clusters, pairs=[("s", "t")],
                          pods=[pod_cfg("p1", "s", cpu=5000, mem="4GiB")],
                          duration="2s")  # stop before any retry resolution
        sim, _ = run_raw(raw)
        assert not [e for e in events_of(sim, engine.STATUS_MIRROR) if e.payload["pod"] == "p1"]


class TestReservationFreeMode:
    def test_randomized_runs_keep_exactly_one_delegate(self):
        # With reservations disabled, delegate binds race and conflicts do
        # happen; the protocol must still never run a workload twice.
        import random

        rng = random.Random(321)
        conflicts_seen = 0
        for _ in range(100):
            names = [f"c{i}" for i in range(rng.randint(2, 4))]
            clusters = [
                {"id": n, "nodes": [
                    node_cfg(f"{n}-n{k}", cpu=rng.choice([4000, 8000]))
                    for k in range(rng.randint(1, 4))
                ]}
                for n in names
            ]
            pairs = [(s, t) for s in names for t in names
                     if s == t or rng.random() < 0.5]
            pods = [
                pod_cfg(f"p{i}", rng.choice(names), cpu=rng.choice([2000, 4000]),
                        mem="1GiB", submit=rng.randint(0, 2000),
                        duration=rng.randint(10_000, 60_000))
                for i in range(rng.randint(5, 25))
            ]
            raw = base_config(clusters, pairs=pairs, pods=pods,
                              duration="150s", jitter="5ms",
                              seed=rng.randint(0, 2**32))
            raw["federation"] = {"reservations": False}
            sim, report = run_raw(raw)
            binds = {}
            for _, fx in effects_of(sim, "bind"):
                binds[fx["pod"]] = binds.get(fx["pod"], 0) + 1
            conflicts_seen += len(bind_conflicts(sim))
            assert all(n == 1 for n in binds.values())
            states, delegates = {}, {}
            for _, fx in effects_of(sim, "proxy"):
                states[fx["pod"]] = fx["state"]
            for _, fx in effects_of(sim, "chaperon"):
                if fx["state"] == ChaperonState.DELEGATE.value:
                    delegates[fx["pod"]] = delegates.get(fx["pod"], 0) + 1
            assert len(states) == sum(e.payload["federated"]
                                      for e in events_of(sim, engine.POD_SUBMIT))
            for pod_id, state in states.items():
                assert state in (ProxyState.BOUND.value, ProxyState.UNSCHEDULABLE.value)
                assert delegates.get(pod_id, 0) == (1 if state == ProxyState.BOUND.value else 0)
        assert conflicts_seen > 0, "the batch never exercised a bind conflict"


class TestInvariants:
    def test_every_chaperon_holds_its_proxy_pod(self):
        # A chaperon schedules the proxy's own PodSpec, not a copy of it.
        # Each chaperon is checked after every step while the protocol holds it.
        raw, seed = CASES["mesh-overload"]()
        sim = Simulation(validate_config(seeded(raw, seed)))
        protocol, seen, proxies = sim.protocol, set(), set()
        while sim.ctx.queue.due(sim.config.duration_ms):
            sim.step()
            for (pod_id, target), chaperon in protocol.chaperons.items():
                assert chaperon.proxy is protocol.proxies[pod_id]
                assert chaperon.proxy.pod is sim.pod_objects[pod_id]
                seen.add((pod_id, target))
            proxies.update(protocol.proxies)
        assert len(seen) > len(proxies)

    def test_proxy_consumes_no_source_capacity(self):
        clusters = [
            {"id": "s", "nodes": [node_cfg("s-n1", cpu=4000, mem="4GiB")]},
            {"id": "t", "nodes": [node_cfg("t-n1")]},
        ]
        raw = base_config(clusters, pairs=[("s", "t")],
                          pods=[pod_cfg("p1", "s", duration="30s")])
        sim, _ = run_raw(raw)
        for t, fx in effects_of(sim, "bind") + effects_of(sim, "reserve"):
            assert fx["cluster"] != "s"
        assert sim.clusters["s"].allocatable("s-n1") == \
            sim.clusters["s"].nodes()["s-n1"].capacity.as_tuple()

    def test_policy_respected_delegate_never_binds_in_disallowing_cluster(self):
        clusters = [
            {"id": "s", "nodes": [node_cfg("s-n1", cpu=100)]},
            {"id": "open", "nodes": [node_cfg("o-n1")]},
            {"id": "closed", "nodes": [node_cfg("c-n1", cpu=50_000, mem="64GiB")],
             "namespace_allowlist": ["other"]},
        ]
        pods = [pod_cfg(f"p{i}", "s", ns="science", submit=i * 2000, duration="10s")
                for i in range(5)]
        raw = base_config(clusters, pairs=[("s", "open"), ("s", "closed")],
                          pods=pods, duration="10m")
        sim, report = run_raw(raw)
        for row in report.pods:
            assert row.bound_cluster == "open"
        for t, fx in effects_of(sim, "bind"):
            assert fx["cluster"] != "closed"

    def test_quota_respected_during_candidate_reservation(self):
        quota = {"science": {"cpu": 1000, "memory": "1GiB", "gpu": 0}}
        clusters = [
            {"id": "s", "nodes": [node_cfg("s-n1", cpu=100)]},
            {"id": "t", "nodes": [node_cfg("t-n1", cpu=50_000, mem="64GiB")],
             "namespace_quota": quota},
        ]
        pods = [pod_cfg("p1", "s", cpu=1000, mem="1GiB", ns="science", duration="1h"),
                pod_cfg("p2", "s", cpu=1000, mem="1GiB", ns="science", submit=5000)]
        raw = base_config(clusters, pairs=[("s", "t")], pods=pods, duration="2m")
        sim, report = run_raw(raw)
        assert pod_row(report, "p1").bound_cluster == "t"
        assert pod_row(report, "p2").final_phase == "Unschedulable"

    def test_virtual_node_staleness_is_bounded_by_refresh(self):
        # A target reports whenever its aggregates change, so after every
        # step each virtual node shows them unless a report is in flight.
        rng = random.Random(20260808)
        configs = [random_protocol_raw(rng) for _ in range(100)]
        configs.append(container_to_batch_raw())
        for index, raw in enumerate(configs):
            sim = Simulation(validate_config(raw))
            while sim.ctx.queue.due(sim.config.duration_ms):
                event = sim.step()
                assert unreported_pairs(sim) == [], (index, event.time, event.kind)

    def test_proxy_reserved_count_follows_the_logged_reports(self):
        # Each proxy's `reserved_count` is the number of targets whose latest
        # logged CandidateReport is "reserved", after every step; half of the
        # runs disable reservations, so bind conflicts turn reports back.
        rng = random.Random(20261019)
        turned_back = 0
        for index in range(40):
            raw = random_protocol_raw(rng)
            raw["federation"] = {"reservations": index % 2 == 0}
            sim = Simulation(validate_config(raw))
            latest = {}
            while sim.ctx.queue.due(sim.config.duration_ms):
                event = sim.step()
                if event.kind == engine.CANDIDATE_REPORT:
                    payload = event.payload
                    statuses = latest.setdefault(payload["pod"], {})
                    if statuses.get(payload["target"]) == "reserved" != payload["status"]:
                        turned_back += 1
                    statuses[payload["target"]] = payload["status"]
                for pod_id, proxy in sim.protocol.proxies.items():
                    statuses = latest.get(pod_id, {})
                    assert proxy.reports == statuses, (index, event.time, pod_id)
                    assert proxy.reserved_count == sum(
                        status == "reserved" for status in statuses.values()
                    ), (index, event.time, pod_id)
        assert turned_back > 0, "no reserved target ever reported unschedulable"

    def test_container_to_batch_move_reaches_every_source_within_one_latency(self):
        raw = container_to_batch_raw()
        sim = Simulation(validate_config(raw))
        full = sim.clusters["c"].aggregate_capacity()
        while not any(fx["op"] == "pool_move" for fx in fx_of(sim.step())):
            pass
        moved_at = sim.ctx.now
        reduced = sim.clusters["c"].aggregate_capacity()
        assert reduced[0] < full[0]
        slowest = max(e.latency.base_ms + e.latency.jitter_ms for e in sim.graph.edges.values())
        while sim.ctx.queue.due(moved_at + slowest):
            sim.step()
        for source in ("s", "u"):
            assert sim.protocol.virtual_nodes[(source, "c")].capacity == reduced

    def test_reports_follow_moves_and_skip_undone_ones(self):
        # A target is compared only after its aggregates moved, and against
        # the last report: a bind undone by an unbind before the step ends
        # sends nothing, and a bind that stays sends one report per source.
        clusters = [{"id": c, "nodes": [node_cfg(f"{c}-n1")]} for c in "stu"]
        raw = base_config(clusters, edges=[("s", "t"), ("u", "t"), ("t", "s")])
        sim = Simulation(validate_config(raw))

        def reports():
            return sorted((e.payload["source"], e.payload["target"])
                          for _, _, e in sim.ctx.queue._heap if e.kind == engine.AGGREGATE_REPORT)

        target = sim.clusters["t"]
        undone = make_pod("p1")
        target.bind(undone, "t-n1", at=0)
        target.unbind(undone)
        sim.protocol.report_changes()
        assert reports() == []
        target.bind(make_pod("p2"), "t-n1", at=0)
        sim.clusters["u"].bind(make_pod("p3", cpu=500), "u-n1", at=0)  # u has no sources
        sim.protocol.report_changes()
        assert reports() == [("s", "t"), ("u", "t")]
        sim.protocol.report_changes()
        assert reports() == [("s", "t"), ("u", "t")]


def container_to_batch_raw():
    """Two sources federate into `c`, whose metascaler moves one of its two
    idle container nodes to the batch pool at the first tick (65 s) for a
    job that needs three batch nodes."""
    clusters = [
        batch_cluster(n_batch=2, n_container=2),
        {"id": "s", "nodes": [node_cfg("s-n1")]},
        {"id": "u", "nodes": [node_cfg("u-n1")]},
    ]
    raw = base_config(clusters, edges=[("s", "c"), ("u", "c")], duration="5m",
                      jitter="5ms")
    raw["scenario"]["batch_jobs"] = [job_cfg("j1", 3, duration="2m")]
    raw["metascale"] = {"enabled": True, "tick": "65s"}
    return raw


def unreported_pairs(sim):
    """(source, target) pairs whose virtual node differs from the target's
    aggregates while no AggregateReport for the pair is queued."""
    in_flight = {
        (event.payload["source"], event.payload["target"])
        for _, _, event in sim.ctx.queue._heap
        if event.kind == engine.AGGREGATE_REPORT
    }
    return [
        pair
        for pair, vnode in sorted(sim.protocol.virtual_nodes.items())
        if (vnode.capacity, vnode.allocatable) != (
            sim.clusters[vnode.target].aggregate_capacity(),
            sim.clusters[vnode.target].aggregate_allocatable(),
        )
        and pair not in in_flight
    ]
