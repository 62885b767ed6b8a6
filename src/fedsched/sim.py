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
nothing, a `Simulation` must be freed by reference counting alone, whether
it was run or only stepped: the protocol, the metascalers and the scenario
hold a `Context`, which holds no layer and no `Simulation`, and of the
run's effect buffer only its `append`, set once. The buffer holds nothing
but the effect tuples of the step in progress, so no reference cycle runs
through them.
"""

from __future__ import annotations

import gc
import logging
from dataclasses import dataclass
from types import MethodType
from typing import Callable, Dict, List, Optional, Set

from . import engine
from .cluster import ClusterState, PodPhase, PodSpec
from .config import RunConfig
from .engine import Event, EventQueue, LatencyChannels, RngStreams
from .errors import CausalityError, ConfigError
from .federation import FederationProtocol
from .graph import FederationGraph
from .metascale import BatchJob, MetaScaler
from .metrics import MetricsReport, build_report, static_info_of
from .scenario import WildfireScenario, generate_trace, sensor_args
from .scheduling import Pipeline, builtin_pipeline, schedule_one, snapshot_of

log = logging.getLogger("fedsched")


@dataclass(slots=True)
class Context:
    """What the layers share with the loop: the clock, timers and messages,
    the clusters with their pipelines, the graph, the log effects of the
    event being stepped, and the step's change records.

    A layer sends a message by asking `channels.delivery_time` when it
    arrives and pushing it on `queue` then; `at` sets a timer. Either takes
    the event's args, a tuple of the values of its kind's `engine.FIELDS`
    in order, which the loop passes to the kind's handler as its
    parameters; no payload dict is built. It records a log effect by
    calling `effect` with one tuple, `(shape, v1, ...)`, the values of the
    fields `engine.EFFECT_FIELDS[shape]` names, in order: `effect` is the
    `append` of the run's effect buffer, set once when the `Simulation` is
    built, so recording runs no Python frame. `step` moves what the buffer
    holds onto the stepped event.

    It holds no layer and no `Simulation`. A layer reaches another only
    through the `Simulation`'s handlers, which pass data between them.
    """

    queue: EventQueue
    channels: LatencyChannels
    clusters: Dict[str, ClusterState]
    pipelines: Dict[str, Pipeline]
    graph: FederationGraph
    freed: Set[str]  # clusters to kick before the step ends; see `ClusterState`
    moved: Set[str]  # clusters `report_changes` compares; see `ClusterState`
    # The run's effect buffer's `append`; see the class docstring.
    effect: Callable[[tuple], None]
    now: int = 0

    def at(self, time: int, kind: str, args: tuple) -> None:
        if time < self.now:
            raise CausalityError(
                f"cannot enqueue {kind} at t={time} before now={self.now}"
            )
        self.queue.push(time, kind, args)

    def bound_pod(self, pod: PodSpec, cluster: str, node: str, federated: bool, source: str) -> None:
        """Shared post-bind path: record the bind, which is the pod starting
        to run, and schedule its completion."""
        self.effect(("bind", pod.pod_id, cluster, node, pod.req, federated, source))
        self.at(self.now + pod.duration, engine.POD_COMPLETE, (pod.pod_id, cluster))


class Simulation:
    def __init__(self, config: RunConfig):
        self.config = config
        self.rngs = RngStreams(config.seed)
        self.events: List[Event] = []
        # What the step in progress has recorded; `step` empties it.
        self._effects: List[tuple] = []

        self.graph = config.graph
        self.clusters: Dict[str, ClusterState] = {}
        pipelines: Dict[str, Pipeline] = {}
        freed, moved = set(), set()
        specs = [cluster_cfg.build_spec() for cluster_cfg in config.clusters]
        # What the report needs of the nodes, read before any pool move.
        self.static = static_info_of(specs)
        for spec, cluster_cfg in zip(specs, config.clusters):
            self.clusters[spec.cluster_id] = ClusterState(spec, freed, moved)
            pipelines[spec.cluster_id] = builtin_pipeline(cluster_cfg.score_weights)
        self.ctx = Context(
            EventQueue(), LatencyChannels(self.rngs), self.clusters, pipelines, self.graph,
            freed, moved, self._effects.append,
        )

        self.protocol = FederationProtocol(self.ctx, config.federation)
        self.protocol.initialize_virtual_nodes()
        # The protocol's handlers, bound to it once. The Simulation's own
        # stay unbound in `_HANDLERS`: bound to `self` here, they would make
        # a reference cycle (module docstring).
        self._protocol_handlers = {
            kind: MethodType(handler, self.protocol)
            for kind, handler in FederationProtocol.HANDLERS.items()
        }

        self.metascalers: Dict[str, MetaScaler] = {}
        if config.metascale.enabled:
            for cluster_id in self.clusters:
                self.metascalers[cluster_id] = MetaScaler(self.ctx, cluster_id, config.metascale)

        self.pod_objects: Dict[str, PodSpec] = {}
        self.pending_local: Dict[str, List[PodSpec]] = {c: [] for c in self.clusters}

        self.scenario: Optional[WildfireScenario] = None
        if config.scenario.wildfire_enabled:
            self.scenario = WildfireScenario(self.ctx, config.scenario)
        self._schedule_initial()

    # -- setup ---------------------------------------------------------------

    def _schedule_initial(self) -> None:
        cfg = self.config
        push = self.ctx.queue.push
        for entry in cfg.scenario.pods:
            self._submit(entry.make(), entry.cluster, entry.submit_time)
        # Fresh job objects per run: the scaler mutates them.
        self._batch_jobs = {
            job.job_id: BatchJob(
                job_id=job.job_id, cluster=job.cluster, node_count=job.node_count,
                duration=job.duration, submit_time=job.submit_time,
            )
            for job in cfg.scenario.batch_jobs
        }
        for job in self._batch_jobs.values():
            push(job.submit_time, engine.BATCH_JOB_SUBMIT, (job.job_id, job.cluster))
        trace = cfg.scenario.trace
        if not trace and cfg.scenario.trace_file is None and cfg.scenario.wildfire_enabled:
            trace = generate_trace(
                cameras=cfg.scenario.cameras,
                rate_per_hour=cfg.scenario.rate_per_hour,
                duration_ms=cfg.duration_ms,
                rng=self.rngs.stream("trace"),
                high_probability=cfg.scenario.high_probability,
                high_range=cfg.scenario.high_range,
                low_range=cfg.scenario.low_range,
            )
        # The trace is sorted by time and needs nothing registered, so its
        # rows enter the queue as the clock reaches them.
        self.ctx.queue.stream(engine.SENSOR_MESSAGE, trace, sensor_args)
        for cluster_id in sorted(self.metascalers):
            push(cfg.metascale.tick_ms, engine.REBALANCE_TICK, (cluster_id,))

    def _submit(self, pod: PodSpec, cluster: str, time: int) -> None:
        if pod.pod_id in self.pod_objects:
            raise ConfigError(f"duplicate pod id {pod.pod_id!r}")
        self.pod_objects[pod.pod_id] = pod
        self.ctx.queue.push(time, engine.POD_SUBMIT, (
            pod.pod_id, cluster, pod.namespace, pod.federation_eligible, pod.role,
            pod.req,
        ))

    def pending_requests(self, cluster_id: str) -> List[PodSpec]:
        """Unmet container demand a cluster can see: its pending local pods
        plus chaperons currently waiting in it."""
        pods = list(self.pending_local[cluster_id])
        pods.extend(chaperon.proxy.pod for chaperon in self.protocol.pending_in(cluster_id))
        return pods

    # -- loop ------------------------------------------------------------------

    def step(self) -> Event:
        ctx = self.ctx
        event = ctx.queue.pop()
        assert event.time >= ctx.now, "event queue violated time order"
        ctx.now = event.time
        effects = self._effects
        try:
            handler = self._protocol_handlers.get(event.kind)
            if handler is None:
                self._HANDLERS[event.kind](self, *event.args)
            else:
                handler(*event.args)
            freed = ctx.freed
            while freed:
                cluster_id = min(freed)
                freed.discard(cluster_id)
                self._kick(cluster_id)
            if ctx.moved:
                self.protocol.report_changes()
        except BaseException:
            # What a raising step recorded goes with it, not to the next event.
            effects.clear()
            raise
        if effects:
            event.effects = tuple(effects)
            effects.clear()
        self.events.append(event)
        return event

    def run(self) -> MetricsReport:
        """Process every event due by `duration_ms` and build the report.

        The cyclic collector is paused throughout and left as the caller
        had it. On the way out, the run's objects are moved into the oldest
        generation, so that the first collection after the run does not
        walk them all. No reference cycle runs through a simulation, run or
        only stepped, so dropping the last reference to it frees it without
        the collector.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            queue, until = self.ctx.queue, self.config.duration_ms
            while queue.due(until):
                self.step()
            log.info("run complete: %d events in %d ms simulated", len(self.events), self.ctx.now)
            return build_report(self.events, self.static)
        finally:
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            if collecting:
                gc.enable()

    # -- scheduling paths --------------------------------------------------------

    def _try_schedule_local(self, pod: PodSpec, cluster_id: str) -> bool:
        state = self.clusters[cluster_id]
        node = schedule_one(pod, snapshot_of(state), self.ctx.pipelines[cluster_id])
        if node is None:
            return False
        state.bind(pod, node, at=self.ctx.now)
        self.ctx.bound_pod(pod, cluster_id, node, federated=False, source=cluster_id)
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

    # Each handler takes its kind's `engine.FIELDS` as parameters, in order.

    def _on_pod_submit(self, pod_id: str, cluster_id: str, ns, federated, role, req) -> None:
        # The namespace, eligibility, role and request are the report's: the
        # pod object carries them for the run.
        pod = self.pod_objects[pod_id]
        if self.protocol.submit(pod, cluster_id):
            return
        if not self._try_schedule_local(pod, cluster_id):
            self.pending_local[cluster_id].append(pod)

    def _on_pod_complete(self, pod_id: str, cluster_id: str) -> None:
        pod = self.pod_objects[pod_id]
        state = self.clusters[cluster_id]
        state.unbind(pod)
        pod.transition(PodPhase.COMPLETED)
        self.ctx.effect(("unbind", pod.pod_id, cluster_id, pod.bound_node, pod.req))
        if self.scenario is not None:
            self.scenario.on_pod_complete(pod)
        self.protocol.mirror_completion(pod, cluster_id, PodPhase.COMPLETED._value_)

    def _on_batch_job_submit(self, job_id: str, cluster_id: str) -> None:
        self.metascalers[cluster_id].submit(self._batch_jobs[job_id])

    def _on_job_complete(self, job_id: str, cluster_id: str) -> None:
        self.metascalers[cluster_id].on_job_complete(self._batch_jobs[job_id])

    def _on_rebalance(self, cluster_id: str) -> None:
        self.metascalers[cluster_id].on_tick(self.pending_requests(cluster_id))
        nxt = self.ctx.now + self.config.metascale.tick_ms
        if nxt <= self.config.duration_ms:
            self.ctx.at(nxt, engine.REBALANCE_TICK, (cluster_id,))

    def _on_node_ready(self, cluster_id: str, node_id: str) -> None:
        self.metascalers[cluster_id].on_node_ready(node_id)

    def _on_sensor(self, camera: str, probability: float) -> None:
        self.scenario.on_sensor(camera, probability)

    def _on_trigger(self, camera: str) -> None:
        for pod in self.scenario.on_trigger(camera):
            self._submit(pod, self.config.scenario.submit_cluster, self.ctx.now)

    _HANDLERS = {
        engine.POD_SUBMIT: _on_pod_submit,
        engine.POD_COMPLETE: _on_pod_complete,
        engine.BATCH_JOB_SUBMIT: _on_batch_job_submit,
        engine.JOB_COMPLETE: _on_job_complete,
        engine.REBALANCE_TICK: _on_rebalance,
        engine.NODE_READY: _on_node_ready,
        engine.SENSOR_MESSAGE: _on_sensor,
        engine.TRIGGER_FIRED: _on_trigger,
    }

