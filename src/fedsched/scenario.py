"""Closed-loop wildfire workload: camera messages in, pod submissions out.

Edge cameras are modeled as an event source only; the inference plugins run
permanently outside the simulated pools. Each smoke message whose confidence
clears the threshold fires the trigger, which submits one GPU retraining pod
and an ensemble of CPU/large-memory fire-simulation pods. Retraining
completions bump the shared model registry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from . import engine
from .cluster import PodSpec
from .resources import Triple

# Every pod the trigger submits has an id starting with this, so a
# configured pod may not (`config` rejects one when wildfire is enabled).
POD_ID_PREFIX = "wf-"


@dataclass(slots=True)
class CameraEvent:
    camera_id: str
    time: int
    smoke_probability: float


def sensor_args(event: CameraEvent) -> tuple:
    """The `SensorMessage` args of one trace row."""
    return (event.camera_id, event.smoke_probability)


@dataclass(frozen=True)
class PodTemplate:
    req: Triple
    node_selector: Dict[str, str]
    duration: int

    def make(self, pod_id: str, namespace: str, role: str) -> PodSpec:
        return PodSpec(
            pod_id=pod_id,
            namespace=namespace,
            req=self.req,
            node_selector=self.node_selector,
            federation_eligible=True,
            duration=self.duration,
            role=role,
        )


class ModelRegistry:
    """Monotone model version shared by every cluster (the object store)."""

    def __init__(self):
        # Version 1 is the pre-trained model available before any retraining.
        self.current_version = 1

    def bump(self) -> int:
        self.current_version += 1
        return self.current_version


class WildfireScenario:
    """Lambda-trigger rule engine wired into the event loop.

    It reads the trigger keys (`config.TRIGGER_KEYS`) of `config`, the
    run's `ScenarioConfig`, which validation has filled in for a wildfire
    scenario.
    """

    def __init__(self, ctx, config):
        self.ctx = ctx
        self.config = config
        self.registry = ModelRegistry()
        self._last_fire: Dict[str, int] = {}
        self._trigger_count = 0

    def on_sensor(self, camera: str, probability: float) -> None:
        # The trace was validated when it was parsed. A probability exactly
        # at the threshold fires.
        if probability < self.config.threshold:
            return
        last = self._last_fire.get(camera)
        cooldown = self.config.camera_cooldown_ms
        if last is not None and cooldown > 0 and self.ctx.now - last < cooldown:
            return
        self._last_fire[camera] = self.ctx.now
        self.ctx.at(self.ctx.now, engine.TRIGGER_FIRED, (camera,))

    def on_trigger(self, camera: str) -> List[PodSpec]:
        """Turn one qualifying smoke message into retrain + ensemble pods,
        returned in submission order for `config.submit_cluster`."""
        self._trigger_count += 1
        prefix = f"{POD_ID_PREFIX}{self._trigger_count:04d}"
        config = self.config
        pods = [config.retrain.make(f"{prefix}-retrain", config.namespace, "retrain")]
        pods.extend(
            config.ensemble_member.make(f"{prefix}-sim-{k}", config.namespace, "ensemble")
            for k in range(1, config.ensemble_size + 1)
        )
        self.ctx.effect(("trigger", camera, [pod.pod_id for pod in pods]))
        return pods

    def on_pod_complete(self, pod: PodSpec) -> None:
        if pod.role == "retrain":
            version = self.registry.bump()
            self.ctx.effect(("registry", version))


def generate_trace(
    cameras: int,
    rate_per_hour: float,
    duration_ms: int,
    rng: random.Random,
    high_probability: float = 0.05,
    high_range: Tuple[float, float] = (0.9, 1.0),
    low_range: Tuple[float, float] = (0.0, 0.5),
) -> List[CameraEvent]:
    """Poisson arrivals per camera; probabilities from a two-mode mixture."""
    events: List[CameraEvent] = []
    if rate_per_hour <= 0 or duration_ms <= 0:
        return events
    rate_per_ms = rate_per_hour / 3_600_000.0
    for index in range(1, cameras + 1):
        camera_id = f"cam-{index}"
        t = 0.0
        while True:
            t += rng.expovariate(rate_per_ms)
            if t > duration_ms:
                break
            if rng.random() < high_probability:
                p = rng.uniform(*high_range)
            else:
                p = rng.uniform(*low_range)
            events.append(CameraEvent(camera_id, int(t), min(1.0, max(0.0, p))))
    events.sort(key=lambda e: (e.time, e.camera_id))
    return events


def load_trace(path: str, parse_row) -> List[CameraEvent]:
    """Read 'camera_id, time, probability' lines; '#' starts a comment.

    Each line becomes a `[camera_id, time, probability]` row, the last a
    float, that `parse_row(row, location)` turns into a `CameraEvent` or
    rejects at `location`, here `<path>:<line>`; a line that is no such
    row raises ValueError starting with `<path>:<line>`.
    """
    events: List[CameraEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                raise ValueError(f"{where}: expected 'camera_id, time, probability'")
            try:
                probability = float(parts[2])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            events.append(parse_row([parts[0], parts[1], probability], where))
    return events
