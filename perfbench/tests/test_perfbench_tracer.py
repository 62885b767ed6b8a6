"""Self times come out of nested spans, less the benchmark's own probe time."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import tracer  # noqa: E402


def _span(t, name, start, end, parent, step=-1):
    t.span_name.append(t._name_id(name))
    t.span_start.append(start)
    t.span_end.append(end)
    t.span_parent.append(parent)
    t.span_step.append(step)


def test_self_time_excludes_children_and_probe_samples():
    t = tracer.Tracer()
    t.step_kinds.append("PodComplete")
    _span(t, "sim.step", 0.0, 10.0, -1, step=0)
    _span(t, "federation.retry_pending", 2.0, 5.0, 0, step=0)
    t.exclude([(3.0, 3.5), (6.0, 7.0), (20.0, 21.0)])
    selfs = t.self_times()
    assert selfs["federation.retry_pending"] == pytest.approx(2.5)
    assert selfs["sim.step.PodComplete"] == pytest.approx(6.0)
    assert t.step_durations_us() == [pytest.approx(8.5e6)]


def test_installed_tracer_restores_every_patched_name():
    from fedsched import scheduling, sim

    originals = (sim.schedule_one, scheduling.snapshot_of, sim.Simulation.step)
    t = tracer.Tracer()
    t.install()
    try:
        assert sim.schedule_one is not originals[0]
        assert sim.snapshot_of is not originals[1]
    finally:
        t.uninstall()
    assert (sim.schedule_one, scheduling.snapshot_of, sim.Simulation.step) == originals
