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
from typing import Dict, List, Optional, Tuple

from . import engine
from .cluster import PodSpec
from .resources import ResourceVector


@dataclass(frozen=True)
class CameraEvent:
    camera_id: str
    time: int
    smoke_probability: float

    def __post_init__(self):
        if not 0.0 <= self.smoke_probability <= 1.0:
            raise ValueError(f"smoke probability out of [0,1]: {self.smoke_probability}")


@dataclass(frozen=True)
class PodTemplate:
    request: ResourceVector
    node_selector: Dict[str, str]
    duration: int

    def make(self, pod_id: str, namespace: str, submit_time: int) -> PodSpec:
        return PodSpec(
            pod_id=pod_id,
            namespace=namespace,
            request=self.request,
            node_selector=dict(self.node_selector),
            federation_eligible=True,
            submit_time=submit_time,
            duration=self.duration,
        )


@dataclass
class TriggerRule:
    confidence_threshold: float = 0.9
    retrain_template: Optional[PodTemplate] = None
    ensemble_template: Optional[PodTemplate] = None
    ensemble_size: int = 8
    camera_cooldown_ms: int = 0

    def fires(self, event: CameraEvent) -> bool:
        # Boundary rule: a probability exactly at the threshold fires.
        return event.smoke_probability >= self.confidence_threshold


class ModelRegistry:
    """Monotone model versions shared by every cluster (the object store)."""

    def __init__(self):
        # Version 1 is the pre-trained model available before any retraining.
        self.versions: List[Tuple[int, int]] = [(1, 0)]

    @property
    def current_version(self) -> int:
        return self.versions[-1][0]

    def bump(self, at: int) -> int:
        version = self.current_version + 1
        self.versions.append((version, at))
        return version

    def version_at(self, time: int) -> int:
        latest = 0
        for version, created in self.versions:
            if created <= time:
                latest = version
        return latest


class WildfireScenario:
    """Lambda-trigger rule engine wired into the event loop."""

    def __init__(self, ctx, rule: TriggerRule, namespace: str, submit_cluster: str):
        self.ctx = ctx
        self.rule = rule
        self.namespace = namespace
        self.submit_cluster = submit_cluster
        self.registry = ModelRegistry()
        self.roles: Dict[str, str] = {}
        self._last_fire: Dict[str, int] = {}
        self._trigger_count = 0

    def on_sensor(self, payload: dict) -> None:
        event = CameraEvent(payload["camera"], self.ctx.now, payload["probability"])
        if not self.rule.fires(event):
            return
        last = self._last_fire.get(event.camera_id)
        if last is not None and self.rule.camera_cooldown_ms > 0:
            if self.ctx.now - last < self.rule.camera_cooldown_ms:
                return
        self._last_fire[event.camera_id] = self.ctx.now
        self.ctx.at(
            self.ctx.now, engine.TRIGGER_FIRED,
            {"camera": event.camera_id, "probability": event.smoke_probability},
        )

    def on_trigger(self, payload: dict) -> None:
        """Turn one qualifying smoke message into retrain + ensemble pods."""
        self._trigger_count += 1
        n = self._trigger_count
        retrain = self.rule.retrain_template.make(
            f"wf-{n:04d}-retrain", self.namespace, self.ctx.now
        )
        members = [
            self.rule.ensemble_template.make(
                f"wf-{n:04d}-sim-{k}", self.namespace, self.ctx.now
            )
            for k in range(1, self.rule.ensemble_size + 1)
        ]
        self.roles[retrain.pod_id] = "retrain"
        for member in members:
            self.roles[member.pod_id] = "ensemble"
        self.ctx.effect(
            op="trigger",
            camera=payload["camera"],
            pods=[retrain.pod_id] + [m.pod_id for m in members],
        )
        self.ctx.submit_pod(retrain, self.submit_cluster, role="retrain")
        for member in members:
            self.ctx.submit_pod(member, self.submit_cluster, role="ensemble")

    def on_pod_complete(self, pod_id: str) -> None:
        if self.roles.get(pod_id) == "retrain":
            version = self.registry.bump(self.ctx.now)
            self.ctx.effect(op="registry", version=version)


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


def load_trace(path: str, parse_time) -> List[CameraEvent]:
    """Read 'camera_id, time, probability' lines; '#' starts a comment.

    `parse_time(value, location)` turns a time field into milliseconds and
    raises an error located at `location`, here `<path>:<line>`; every other
    malformed row raises ValueError starting with `<path>:<line>`.
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
            time = parse_time(parts[1], where)
            try:
                events.append(CameraEvent(parts[0], time, float(parts[2])))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    events.sort(key=lambda e: (e.time, e.camera_id))
    return events
