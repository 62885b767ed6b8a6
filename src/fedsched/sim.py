"""Simulation driver: builds the world from a RunConfig and runs the loop.

Everything mutates inside the single-threaded event loop. Handlers talk to
each other only through enqueued events (timers) and latency-delayed
messages, never by calling across clusters synchronously; the one synchronous
path is the per-cluster scheduling retry (`kick`) that runs after an event
frees resources in that cluster.

Collector contract: `run` pauses Python's cyclic garbage collector for the
event loop and its `build_report`, because every event stays alive until
the writers run, so each collection would walk the whole history and free
nothing. When the run ends, even by an exception, `run` moves every live
object into the oldest generation (unless the caller has frozen objects)
and restores the collector to the state it found. For the pause to leak
nothing, a finished `Simulation` must be freed by reference counting
alone: the protocol, the metascalers and the scenario reach it only through
a weak proxy once the run is over.
"""

from __future__ import annotations

import gc
import logging
import weakref
from typing import Dict, List, Optional, Set

from . import engine
from .cluster import ClusterState, PodPhase, PodSpec
from .config import RunConfig
from .engine import Event, EventQueue, LatencyChannels, RngStreams
from .errors import CausalityError, ConfigError
from .federation import FederationProtocol
from .graph import FederationEdge
from .metascale import BatchJob, MetaScaler
from .metrics import MetricsReport, build_report, static_info_of
from .scenario import WildfireScenario, generate_trace
from .scheduling import Pipeline, builtin_pipeline, schedule_one, snapshot_of

log = logging.getLogger("fedsched")


class Simulation:
    def __init__(self, config: RunConfig):
        self.config = config
        self.now = 0
        self.queue = EventQueue()
        self.rngs = RngStreams(config.seed)
        self.channels = LatencyChannels(self.rngs)
        self.events: List[Event] = []
        self._current: Optional[Event] = None
        self._freed: Set[str] = set()

        self.graph = config.graph
        self.clusters: Dict[str, ClusterState] = {}
        self.pipelines: Dict[str, Pipeline] = {}
        for cluster_cfg in config.clusters:
            self.clusters[cluster_cfg.cluster_id] = ClusterState(cluster_cfg.build_spec())
            self.pipelines[cluster_cfg.cluster_id] = builtin_pipeline(cluster_cfg.score_weights)

        self.federation_params = config.federation
        self.protocol = FederationProtocol(self)
        self.protocol.initialize_virtual_nodes()

        self.metascalers: Dict[str, MetaScaler] = {}
        if config.metascale.enabled:
            for cluster_id in self.clusters:
                self.metascalers[cluster_id] = MetaScaler(self, cluster_id, config.metascale)

        self.pod_objects: Dict[str, PodSpec] = {}
        self.pending_local: Dict[str, List[PodSpec]] = {c: [] for c in self.clusters}

        self.scenario: Optional[WildfireScenario] = None
        if config.scenario.wildfire_enabled:
            self.scenario = WildfireScenario(self, config.scenario)
        self._schedule_initial()

    # -- setup ---------------------------------------------------------------

    def _schedule_initial(self) -> None:
        cfg = self.config
        for entry in cfg.scenario.pods:
            pod = entry.make()
            self._register_pod(pod)
            self.queue.push(
                entry.submit_time, engine.POD_SUBMIT, self._submit_payload(pod, entry.cluster)
            )
        # Fresh job objects per run: the scaler mutates them.
        self._batch_jobs = {
            job.job_id: BatchJob(
                job_id=job.job_id, cluster=job.cluster, node_count=job.node_count,
                duration=job.duration, submit_time=job.submit_time,
            )
            for job in cfg.scenario.batch_jobs
        }
        for job in self._batch_jobs.values():
            self.queue.push(
                job.submit_time, engine.BATCH_JOB_SUBMIT,
                {"job": job.job_id, "cluster": job.cluster},
            )
        trace = list(cfg.scenario.trace)
        if not trace and cfg.scenario.wildfire_enabled:
            trace = generate_trace(
                cameras=cfg.scenario.cameras,
                rate_per_hour=cfg.scenario.rate_per_hour,
                duration_ms=cfg.duration_ms,
                rng=self.rngs.stream("trace"),
                high_probability=cfg.scenario.high_probability,
                high_range=cfg.scenario.high_range,
                low_range=cfg.scenario.low_range,
            )
        for event in trace:
            self.queue.push(
                event.time, engine.SENSOR_MESSAGE,
                {"camera": event.camera_id, "probability": event.smoke_probability},
            )
        for cluster_id in sorted(self.metascalers):
            self.queue.push(
                self.config.metascale.tick_ms, engine.REBALANCE_TICK, {"cluster": cluster_id}
            )

    def _register_pod(self, pod: PodSpec) -> None:
        if pod.pod_id in self.pod_objects:
            raise ConfigError(f"duplicate pod id {pod.pod_id!r}")
        self.pod_objects[pod.pod_id] = pod

    def _submit_payload(self, pod: PodSpec, cluster: str) -> dict:
        return {
            "pod": pod.pod_id,
            "cluster": cluster,
            "ns": pod.namespace,
            "federated": pod.federation_eligible,
            "role": pod.role,
            "req": pod.request.as_list(),
        }

    # -- facade used by protocol / metascale / scenario ------------------------

    def at(self, time: int, kind: str, payload: dict) -> None:
        if time < self.now:
            raise CausalityError(
                f"cannot enqueue {kind} at t={time} before now={self.now}"
            )
        self.queue.push(time, kind, payload)

    def send(self, edge: FederationEdge, channel: tuple, kind: str, payload: dict) -> None:
        when = self.channels.delivery_time(self.now, edge, channel)
        self.queue.push(when, kind, payload)

    def effect(self, **fields) -> None:
        if self._current is not None:
            self._current.effects.append(fields)

    def mark_freed(self, cluster_id: str) -> None:
        self._freed.add(cluster_id)

    def pending_requests(self, cluster_id: str) -> List[PodSpec]:
        """Unmet container demand a cluster can see: its pending local pods
        plus chaperons currently waiting in it."""
        pods = list(self.pending_local[cluster_id])
        pods.extend(chaperon.pod for chaperon in self.protocol.pending_in(cluster_id))
        return pods

    def submit_pod(self, pod: PodSpec, cluster: str) -> None:
        self._register_pod(pod)
        self.at(self.now, engine.POD_SUBMIT, self._submit_payload(pod, cluster))

    def bound_pod(self, pod: PodSpec, cluster: str, node: str, federated: bool, source: str) -> None:
        """Shared post-bind path: record, start running, schedule completion."""
        self.effect(
            op="bind", pod=pod.pod_id, cluster=cluster, node=node, ns=pod.namespace,
            req=pod.request.as_list(), federated=federated, src=source,
            role=pod.role,
        )
        pod.transition(PodPhase.RUNNING)
        self.effect(op="phase", pod=pod.pod_id, phase=PodPhase.RUNNING.value)
        self.at(
            self.now + pod.duration, engine.POD_COMPLETE,
            {"pod": pod.pod_id, "cluster": cluster},
        )

    # -- loop ------------------------------------------------------------------

    def step(self) -> Event:
        event = self.queue.pop()
        assert event.time >= self.now, "event queue violated time order"
        self.now = event.time
        self._current = event
        handler = self._HANDLERS[event.kind]
        handler(self, event.payload)
        self._current = None
        while self._freed:
            cluster_id = min(self._freed)
            self._freed.discard(cluster_id)
            self._current = event
            self._kick(cluster_id)
            self._current = None
        self.protocol.report_changes()
        self.events.append(event)
        return event

    def run(self) -> MetricsReport:
        """Process every event due by `duration_ms` and build the report.

        The cyclic collector is paused throughout and left as the caller
        had it. On the way out, the run's objects are moved into the oldest
        generation, so that the first collection after the run does not
        walk them all, and the back-references of the protocol, metascalers
        and scenario become one weak proxy, so that dropping the last
        reference to a finished simulation frees it without the collector.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            processed = 0
            while len(self.queue) and self.queue.peek_time() <= self.config.duration_ms:
                self.step()
                processed += 1
            log.info("run complete: %d events in %d ms simulated", processed, self.now)
            return build_report(self.events, static_info_of(self.config))
        finally:
            ctx = weakref.proxy(self)
            self.protocol.ctx = ctx
            for scaler in self.metascalers.values():
                scaler.ctx = ctx
            if self.scenario is not None:
                self.scenario.ctx = ctx
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            if collecting:
                gc.enable()

    # -- scheduling paths --------------------------------------------------------

    def _try_schedule_local(self, pod: PodSpec, cluster_id: str) -> bool:
        state = self.clusters[cluster_id]
        node = schedule_one(pod, snapshot_of(state), self.pipelines[cluster_id])
        if node is None:
            return False
        state.bind(pod, node, at=self.now)
        self.bound_pod(pod, cluster_id, node, federated=False, source=cluster_id)
        return True

    def _kick(self, cluster_id: str) -> None:
        # Local workload first, then candidate retries for waiting chaperons.
        still_pending = []
        for pod in self.pending_local[cluster_id]:
            if not self._try_schedule_local(pod, cluster_id):
                still_pending.append(pod)
        self.pending_local[cluster_id] = still_pending
        # Chaperons wait only in clusters some edge targets.
        if self.graph.in_degree(cluster_id):
            self.protocol.retry_pending(cluster_id)

    # -- handlers ------------------------------------------------------------------

    def _on_pod_submit(self, payload: dict) -> None:
        pod = self.pod_objects[payload["pod"]]
        cluster_id = payload["cluster"]
        if self.protocol.submit(pod, cluster_id):
            return
        if not self._try_schedule_local(pod, cluster_id):
            self.pending_local[cluster_id].append(pod)

    def _on_pod_complete(self, payload: dict) -> None:
        pod = self.pod_objects[payload["pod"]]
        cluster_id = payload["cluster"]
        state = self.clusters[cluster_id]
        state.unbind(pod)
        pod.transition(PodPhase.COMPLETED)
        self.effect(
            op="unbind", pod=pod.pod_id, cluster=cluster_id, node=pod.bound_node,
            req=pod.request.as_list(),
        )
        self.effect(op="phase", pod=pod.pod_id, phase=PodPhase.COMPLETED.value)
        if self.scenario is not None:
            self.scenario.on_pod_complete(pod)
        self.protocol.mirror_completion(pod, cluster_id, PodPhase.COMPLETED.value)
        self.mark_freed(cluster_id)

    def _on_batch_job_submit(self, payload: dict) -> None:
        self.metascalers[payload["cluster"]].submit(self._batch_jobs[payload["job"]])

    def _on_job_complete(self, payload: dict) -> None:
        self.metascalers[payload["cluster"]].on_job_complete(self._batch_jobs[payload["job"]])

    def _on_rebalance(self, payload: dict) -> None:
        cluster_id = payload["cluster"]
        self.metascalers[cluster_id].on_tick()
        nxt = self.now + self.config.metascale.tick_ms
        if nxt <= self.config.duration_ms:
            self.at(nxt, engine.REBALANCE_TICK, {"cluster": cluster_id})

    def _on_node_ready(self, payload: dict) -> None:
        self.metascalers[payload["cluster"]].on_node_ready(payload["node"])

    def _on_sensor(self, payload: dict) -> None:
        self.scenario.on_sensor(payload)

    def _on_trigger(self, payload: dict) -> None:
        self.scenario.on_trigger(payload)

    _HANDLERS = {
        engine.POD_SUBMIT: _on_pod_submit,
        engine.POD_COMPLETE: _on_pod_complete,
        engine.BATCH_JOB_SUBMIT: _on_batch_job_submit,
        engine.JOB_COMPLETE: _on_job_complete,
        engine.REBALANCE_TICK: _on_rebalance,
        engine.NODE_READY: _on_node_ready,
        engine.SENSOR_MESSAGE: _on_sensor,
        engine.TRIGGER_FIRED: _on_trigger,
        engine.CHAPERON_CREATE: lambda self, p: self.protocol.on_chaperon_create(p),
        engine.CANDIDATE_REPORT: lambda self, p: self.protocol.on_candidate_report(p),
        engine.ELECTION_TIMEOUT: lambda self, p: self.protocol.on_election_timeout(p),
        engine.DELEGATE_BIND: lambda self, p: self.protocol.on_delegate_bind(p),
        engine.CANDIDATE_DELETE: lambda self, p: self.protocol.on_candidate_delete(p),
        engine.STATUS_MIRROR: lambda self, p: self.protocol.on_status_mirror(p),
        engine.AGGREGATE_REPORT: lambda self, p: self.protocol.on_aggregate_report(p),
    }

