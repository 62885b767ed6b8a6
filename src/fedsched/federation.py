"""Cross-cluster scheduling protocol: proxies, chaperons, delegate election.

Lifecycle of one federated pod:

  1. fan-out: the source replaces the pod with a proxy (which never consumes
     node resources) and sends a chaperon-creation message to every target
     it has an edge to, including itself when a self-edge exists.
  2. candidate scheduling: each target runs its own scheduler over its real
     nodes. A feasible candidate reserves its chosen node and
     reports "reserved"; an infeasible one reports "unschedulable" and is
     retried whenever the target's state changes.
  3. election: once at least one reserved report is in and either every
     target has reported or the election timeout elapsed, the source picks
     the reserved target whose aggregate (virtual-node) score is highest and
     sends it a delegate-bind message. The proxy knows nothing about target
     internals beyond candidate reports and those aggregates.
  4. finalize: the delegate binds on its reserved node and confirms; the
     proxy then becomes Bound and deletion messages go to every other
     chaperon, releasing their reservations on delivery. A bind conflict
     (possible only with reservations disabled) sends the proxy back to
     re-elect among the surviving candidates. The proxy knows it as an
     "unschedulable" report from its elected target, which sends nothing
     between its "reserved" report and the delegate bind.

Election retries back off exponentially; a proxy that exhausts them turns
Unschedulable and cleans up all of its chaperons.

The protocol holds only live records. A chaperon is dropped in the step
that settles it, turning it Deleted or Delegate. A proxy is dropped once
it is finished, Unschedulable or Bound with its Completed status mirror
delivered, and every one of its chaperons has settled; until then a
ChaperonCreate of it can still be in flight. A chaperon points at its
proxy, never the other way, so the records form no reference cycle.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from . import engine
from .cluster import PodPhase, PodSpec
from .errors import BindError
from .resources import Triple
from .scheduling import least_allocated_score, schedule_one, snapshot_of

log = logging.getLogger("fedsched.federation")

ELECTION_LEAST_ALLOCATED = "least_allocated"
ELECTION_PREFER_LOCAL = "prefer_local"

REPORT_RESERVED = "reserved"
REPORT_UNSCHEDULABLE = "unschedulable"


class ProxyState(Enum):
    CANDIDATES_PENDING = "CandidatesPending"
    ELECTED = "Elected"
    BOUND = "Bound"
    UNSCHEDULABLE = "Unschedulable"


class ChaperonState(Enum):
    PENDING_SCHEDULE = "PendingSchedule"
    CANDIDATE_RESERVED = "CandidateReserved"
    DELEGATE = "Delegate"
    DELETED = "Deleted"


@dataclass
class FederationParams:
    """The `federation` config section; `config.FEDERATION` holds the defaults."""

    election_timeout_ms: int
    retry_backoff_ms: int
    max_retries: int
    reservations: bool
    election_policy: str


@dataclass(slots=True)
class VirtualNode:
    """A target cluster as seen from inside a source cluster.

    `capacity` and `allocatable` are the target's (cpu, memory, gpu)
    aggregates as of its last change: the target reports whenever they
    change, so they lag the target by at most one edge latency while a
    report is in flight. They are the very tuples the last report carried.
    `last_update` is when the last report arrived. One object per (source,
    target) edge lives for the run; each report updates it in place.
    """

    target: str
    capacity: Tuple[int, int, int]
    allocatable: Tuple[int, int, int]
    last_update: int = 0

    def staleness(self, now: int) -> int:
        return now - self.last_update


@dataclass(slots=True)
class ProxyPod:
    pod: PodSpec
    source: str
    targets: Tuple[str, ...]  # shared by every proxy of the source
    fanout_time: int
    state: ProxyState = ProxyState.CANDIDATES_PENDING
    elected_target: Optional[str] = None
    reports: Dict[str, str] = field(default_factory=dict)  # target -> latest report status
    reserved_count: int = 0  # targets whose latest report is "reserved"
    retries: int = 0
    pending_timer: Optional[int] = None
    # Targets whose chaperon has not settled. It starts at every target,
    # since a ChaperonCreate can still be in flight when the proxy gives up.
    unsettled: int = 0
    # Unschedulable, or Bound with its Completed status mirror delivered.
    finished: bool = False


@dataclass(slots=True)
class PodChaperon:
    proxy: ProxyPod  # a chaperon schedules its proxy's own pod
    target: str
    state: ChaperonState = ChaperonState.PENDING_SCHEDULE
    reserved_node: Optional[str] = None
    last_reported: Optional[str] = None


class FederationProtocol:
    """State machines for every federated pod, driven by the event loop.

    `ctx` is the run's `sim.Context`. The protocol reads its `now`,
    `clusters`, `pipelines`, `graph` and `moved` (the targets to report),
    sends a message through its `channels` and `queue`, and calls its
    `at()` for timers, `effect()` for log records and `bound_pod()` once a
    delegate binds. `params` is the run's `federation` config section.
    """

    def __init__(self, ctx, params: FederationParams):
        self.ctx = ctx
        self.params = params
        self.proxies: Dict[str, ProxyPod] = {}
        # Per source, its targets in id order, the one tuple its proxies
        # and their fan-out effects hold.
        self._targets: Dict[str, Tuple[str, ...]] = {}
        # The chaperons not yet settled, by (pod, target), and per target in
        # creation order.
        self.chaperons: Dict[Tuple[str, str], PodChaperon] = {}
        self._unsettled: Dict[str, Dict[str, PodChaperon]] = {}
        self.virtual_nodes: Dict[Tuple[str, str], VirtualNode] = {}
        # Per target with sources, the (capacity, allocatable) last reported.
        self._reported: Dict[str, Tuple[Triple, Triple]] = {}
        self._timer_ids = 0

    # -- setup -------------------------------------------------------------

    def initialize_virtual_nodes(self) -> None:
        # Federation setup exchanges initial state, so sources start with
        # accurate aggregates instead of a cold cache.
        for (source, target) in self.ctx.graph.edges:
            state = self.ctx.clusters[target]
            figures = (state.aggregate_capacity(), state.aggregate_allocatable())
            self._reported[target] = figures
            self.virtual_nodes[(source, target)] = VirtualNode(target, *figures)

    # -- fan-out -----------------------------------------------------------

    def submit(self, pod: PodSpec, source: str) -> bool:
        """Start the protocol for a federation-eligible pod.

        Returns False when the pod is not eligible (the caller schedules it
        locally). A pod with no targets at all cannot run anywhere under the
        directed-graph semantics and goes straight to Unschedulable.
        """
        if not pod.federation_eligible:
            return False
        targets = self._targets.get(source)
        if targets is None:
            targets = self._targets[source] = tuple(self.ctx.graph.targets_of(source))
        proxy = ProxyPod(
            pod=pod, source=source, targets=targets, fanout_time=self.ctx.now,
            unsettled=len(targets),
        )
        self.proxies[pod.pod_id] = proxy
        if not targets:
            self._finish_unschedulable(proxy, reason="no_targets")
            return True
        self.ctx.effect(("proxy_targets", pod.pod_id, proxy.state._value_, targets))
        for target in targets:
            self._send_pod_message(
                proxy, target, "fwd", engine.CHAPERON_CREATE, (pod.pod_id, target)
            )
        self._arm_timer(proxy, self.ctx.now + self.params.election_timeout_ms)
        return True

    def _send_pod_message(self, proxy: ProxyPod, target: str, direction: str, kind: str, args: tuple) -> None:
        ctx, source = self.ctx, proxy.source
        when = ctx.channels.delivery_time(
            ctx.now, ctx.graph.edges[(source, target)],
            ("pod", proxy.pod.pod_id, source, target, direction),
        )
        ctx.queue.push(when, kind, args)

    def _arm_timer(self, proxy: ProxyPod, when: int) -> None:
        self._timer_ids += 1
        proxy.pending_timer = self._timer_ids
        self.ctx.at(when, engine.ELECTION_TIMEOUT, (proxy.pod.pod_id, self._timer_ids))

    # -- target side -------------------------------------------------------

    def on_chaperon_create(self, pod_id: str, target: str) -> None:
        chaperon = PodChaperon(proxy=self.proxies[pod_id], target=target)
        self.chaperons[(pod_id, target)] = chaperon
        self._unsettled.setdefault(target, {})[pod_id] = chaperon
        self.ctx.effect(("chaperon", pod_id, target, chaperon.state._value_))
        self.try_candidate_schedule(chaperon)

    def try_candidate_schedule(self, chaperon: PodChaperon) -> None:
        """Run the target's own scheduler for a pending chaperon.

        Feasible: reserve the chosen node and report. Infeasible: report
        unschedulable once, then stay silent until the status changes.
        """
        if chaperon.state is not ChaperonState.PENDING_SCHEDULE:
            return
        pod, target = chaperon.proxy.pod, chaperon.target
        cluster = self.ctx.clusters[target]
        node = schedule_one(pod, snapshot_of(cluster), self.ctx.pipelines[target])
        if node is not None:
            if self.params.reservations:
                cluster.reserve(pod, node)
                self.ctx.effect(("reserve", pod.pod_id, target, node, pod.req))
            chaperon.state = ChaperonState.CANDIDATE_RESERVED
            chaperon.reserved_node = node
            self.ctx.effect(("chaperon", pod.pod_id, target, chaperon.state._value_))
            self._report(chaperon, REPORT_RESERVED)
        elif chaperon.last_reported != REPORT_UNSCHEDULABLE:
            self._report(chaperon, REPORT_UNSCHEDULABLE)

    def pending_in(self, target: str) -> List[PodChaperon]:
        """Chaperons waiting in PendingSchedule in `target`, in creation order."""
        return [
            chaperon for chaperon in self._unsettled.get(target, {}).values()
            if chaperon.state is ChaperonState.PENDING_SCHEDULE
        ]

    def retry_pending(self, cluster_id: str) -> None:
        """Re-run candidate scheduling after the cluster's state changed."""
        for chaperon in self.pending_in(cluster_id):
            self.try_candidate_schedule(chaperon)

    def _report(self, chaperon: PodChaperon, status: str) -> None:
        chaperon.last_reported = status
        proxy = chaperon.proxy
        self._send_pod_message(
            proxy, chaperon.target, "rev", engine.CANDIDATE_REPORT,
            (proxy.pod.pod_id, chaperon.target, status),
        )

    def _settle(self, chaperon: PodChaperon) -> None:
        """Drop a chaperon that turned Deleted or Delegate, once its step
        recorded its effects, and then its proxy if that is done."""
        proxy, target = chaperon.proxy, chaperon.target
        del self.chaperons[(proxy.pod.pod_id, target)]
        del self._unsettled[target][proxy.pod.pod_id]
        proxy.unsettled -= 1
        self._drop_if_done(proxy)

    def _drop_if_done(self, proxy: ProxyPod) -> None:
        # No message names a finished proxy whose chaperons have all settled,
        # but its targets' CandidateReports, which would log nothing.
        if proxy.finished and not proxy.unsettled:
            del self.proxies[proxy.pod.pod_id]

    # -- source side: reports and election ----------------------------------

    def on_candidate_report(self, pod_id: str, target: str, status: str) -> None:
        proxy = self.proxies.get(pod_id)
        if proxy is None:
            return
        proxy.reserved_count += (status == REPORT_RESERVED) - (
            proxy.reports.get(target) == REPORT_RESERVED
        )
        proxy.reports[target] = status
        if proxy.state is ProxyState.CANDIDATES_PENDING:
            self._maybe_elect(proxy)
        elif (
            status == REPORT_UNSCHEDULABLE
            and proxy.state is ProxyState.ELECTED
            and target == proxy.elected_target
        ):
            self._on_bind_conflict(proxy)

    def _on_bind_conflict(self, proxy: ProxyPod) -> None:
        proxy.state = ProxyState.CANDIDATES_PENDING
        proxy.elected_target = None
        self.ctx.effect(("proxy", proxy.pod.pod_id, proxy.state._value_))
        if not self._maybe_elect(proxy):
            self._retry_or_give_up(proxy)

    def _reserved_targets(self, proxy: ProxyPod) -> List[str]:
        return sorted(
            t for t, status in proxy.reports.items() if status == REPORT_RESERVED
        )

    def _maybe_elect(self, proxy: ProxyPod) -> bool:
        """Elect if at least one target reserved and either every target
        has reported or the election timeout has elapsed.

        Both tests are O(1), on `proxy.reserved_count` and the number of
        reports; `proxy.reports` is scanned and sorted only for an election.
        """
        if not proxy.reserved_count or not (
            len(proxy.reports) == len(proxy.targets)
            or self.ctx.now >= proxy.fanout_time + self.params.election_timeout_ms
        ):
            return False
        self._elect(proxy, self._reserved_targets(proxy))
        return True

    def _aggregate_score(self, proxy: ProxyPod, target: str) -> int:
        vnode = self.virtual_nodes[(proxy.source, target)]
        cpu, memory, gpu = vnode.allocatable
        want_cpu, want_memory, want_gpu = proxy.pod.req
        free_after = (max(0, cpu - want_cpu), max(0, memory - want_memory), max(0, gpu - want_gpu))
        return least_allocated_score(free_after, vnode.capacity)

    def _elect(self, proxy: ProxyPod, reserved: List[str]) -> None:
        """Pick the delegate target among reserved candidates.

        Default policy scores virtual-node aggregates with the same
        least-allocated formula the node scheduler uses; prefer_local takes
        the self-edge whenever it is feasible, which is what makes a burst
        topology overflow only on local insufficiency.
        """
        if self.params.election_policy == ELECTION_PREFER_LOCAL and proxy.source in reserved:
            chosen = proxy.source
        else:
            chosen = None
            best = None
            for target in reserved:  # sorted: strict > keeps lexicographic ties
                score = self._aggregate_score(proxy, target)
                if best is None or score > best:
                    chosen, best = target, score
        proxy.state = ProxyState.ELECTED
        proxy.elected_target = chosen
        proxy.pending_timer = None
        log.debug("t=%d elected %s for pod %s among %s",
                  self.ctx.now, chosen, proxy.pod.pod_id, reserved)
        self.ctx.effect(("proxy_elected", proxy.pod.pod_id, proxy.state._value_, chosen))
        self._send_pod_message(
            proxy, chosen, "fwd", engine.DELEGATE_BIND, (proxy.pod.pod_id, chosen)
        )

    def on_election_timeout(self, pod_id: str, timer: int) -> None:
        proxy = self.proxies.get(pod_id)
        if proxy is None or proxy.pending_timer != timer:
            return
        if proxy.state is not ProxyState.CANDIDATES_PENDING:
            return
        if not self._maybe_elect(proxy):
            self._retry_or_give_up(proxy)

    def _retry_or_give_up(self, proxy: ProxyPod) -> None:
        proxy.retries += 1
        if proxy.retries > self.params.max_retries:
            self._finish_unschedulable(proxy, reason="max_retries")
            return
        backoff = self.params.retry_backoff_ms * (2 ** (proxy.retries - 1))
        self._arm_timer(proxy, self.ctx.now + backoff)

    def _finish_unschedulable(self, proxy: ProxyPod, reason: str) -> None:
        proxy.state = ProxyState.UNSCHEDULABLE
        proxy.pending_timer = None
        proxy.pod.transition(PodPhase.UNSCHEDULABLE)
        self.ctx.effect(("proxy_reason", proxy.pod.pod_id, proxy.state._value_, reason))
        self.ctx.effect(("unschedulable", proxy.pod.pod_id))
        self._delete_chaperons(proxy, except_target=None)
        proxy.finished = True
        self._drop_if_done(proxy)

    def _delete_chaperons(self, proxy: ProxyPod, except_target: Optional[str]) -> None:
        for target in proxy.targets:
            if target == except_target:
                continue
            self._send_pod_message(
                proxy, target, "fwd", engine.CANDIDATE_DELETE, (proxy.pod.pod_id, target)
            )

    # -- delegate bind and cleanup ------------------------------------------

    def on_delegate_bind(self, pod_id: str, target: str) -> None:
        proxy = self.proxies[pod_id]
        chaperon = self.chaperons[(pod_id, target)]
        cluster = self.ctx.clusters[target]
        node = chaperon.reserved_node
        try:
            cluster.bind(proxy.pod, node, at=self.ctx.now)
        except BindError:
            log.debug("t=%d delegate bind conflict for pod %s in %s",
                      self.ctx.now, pod_id, target)
            chaperon.state = ChaperonState.PENDING_SCHEDULE
            chaperon.reserved_node = None
            self.ctx.effect(("chaperon", pod_id, target, chaperon.state._value_))
            self._report(chaperon, REPORT_UNSCHEDULABLE)
            self.try_candidate_schedule(chaperon)
            return
        chaperon.state = ChaperonState.DELEGATE
        self.ctx.effect(("chaperon", pod_id, target, chaperon.state._value_))
        self.ctx.bound_pod(proxy.pod, target, node, federated=True, source=proxy.source)
        for phase in ("Bound", "Running"):
            self._send_pod_message(
                proxy, target, "rev", engine.STATUS_MIRROR, (pod_id, target, phase)
            )
        self._settle(chaperon)

    def on_status_mirror(self, pod_id: str, target: str, phase: str) -> None:
        proxy = self.proxies[pod_id]
        if (
            phase == "Bound"
            and proxy.state is ProxyState.ELECTED
            and proxy.elected_target == target
        ):
            proxy.state = ProxyState.BOUND
            self.ctx.effect(("proxy", pod_id, proxy.state._value_))
            self._delete_chaperons(proxy, except_target=target)
        elif phase == "Completed":
            proxy.finished = True
            self._drop_if_done(proxy)

    def on_candidate_delete(self, pod_id: str, target: str) -> None:
        chaperon = self.chaperons[(pod_id, target)]
        chaperon.state = ChaperonState.DELETED
        node = chaperon.reserved_node
        if node is not None and self.params.reservations:
            if self.ctx.clusters[target].release_reservation(chaperon.proxy.pod, node):
                self.ctx.effect(("release", pod_id, target, node))
        self.ctx.effect(("chaperon", pod_id, target, chaperon.state._value_))
        self._settle(chaperon)

    def mirror_completion(self, pod: PodSpec, target: str, phase: str) -> None:
        """Push a delegate's terminal phase back to its source proxy."""
        proxy = self.proxies.get(pod.pod_id)
        if proxy is None:
            return
        self._send_pod_message(
            proxy, target, "rev", engine.STATUS_MIRROR, (pod.pod_id, target, phase)
        )

    # -- virtual-node aggregates ---------------------------------------------

    def report_changes(self) -> None:
        """Report each target whose aggregates differ from its last report.

        The one place that decides when a source hears from a target; the
        loop calls it at the end of every step that left `ctx.moved`
        non-empty, after every change the step made. The targets in
        `ctx.moved` that have sources are compared, in sorted order, and
        the set is cleared; a move that a later one undid within the step
        sends nothing.
        """
        moved = self.ctx.moved
        for target in sorted(moved):
            last = self._reported.get(target)
            if last is None:
                continue
            state = self.ctx.clusters[target]
            if (state.aggregate_capacity(), state.aggregate_allocatable()) != last:
                self.broadcast_aggregates(target)
        moved.clear()

    def broadcast_aggregates(self, target: str) -> None:
        """Send target's aggregate capacity/allocatable to all its sources."""
        ctx = self.ctx
        state = ctx.clusters[target]
        capacity = state.aggregate_capacity()
        allocatable = state.aggregate_allocatable()
        self._reported[target] = (capacity, allocatable)
        edges = ctx.graph.edges
        for source in ctx.graph.sources_of(target):
            when = ctx.channels.delivery_time(
                ctx.now, edges[(source, target)], ("vnode", target, source)
            )
            ctx.queue.push(
                when, engine.AGGREGATE_REPORT, (source, target, capacity, allocatable)
            )

    def on_aggregate_report(self, source: str, target: str, capacity: Triple,
                            allocatable: Triple) -> None:
        vnode = self.virtual_nodes[(source, target)]
        vnode.capacity = capacity
        vnode.allocatable = allocatable
        vnode.last_update = self.ctx.now

    # The event kinds the protocol handles, each with its handler, which
    # the loop calls with the event's args, the kind's `engine.FIELDS` in
    # order (`sim.Simulation` binds them).
    HANDLERS = {
        engine.CHAPERON_CREATE: on_chaperon_create,
        engine.CANDIDATE_REPORT: on_candidate_report,
        engine.ELECTION_TIMEOUT: on_election_timeout,
        engine.DELEGATE_BIND: on_delegate_bind,
        engine.CANDIDATE_DELETE: on_candidate_delete,
        engine.STATUS_MIRROR: on_status_mirror,
        engine.AGGREGATE_REPORT: on_aggregate_report,
    }
