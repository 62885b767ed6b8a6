"""A run holds its live records, not its finished ones.

The protocol keeps a chaperon until the step that settles it, turning it
Deleted or Delegate, and a proxy until it is finished (Unschedulable, or
Bound with its Completed status mirror delivered) and each of its targets'
chaperons has settled. Each golden config and 20 random protocol configs,
half of them reservation-free, are stepped to the end, and the records the
protocol holds then must be those the log says are live:
- a proxy is held exactly when the log shows it unfinished, or one of its
  targets without a settled chaperon;
- a chaperon is held exactly when its last logged state is PendingSchedule
  or CandidateReserved, and it holds that state.
A CandidateReport that finds no proxy must come after that pod's terminal
proxy effect (Bound or Unschedulable). The record classes are slotted, so
none of their instances carries a `__dict__`.
"""

import random

import pytest

from fedsched import engine
from fedsched.cluster import PodPhase
from fedsched.config import PodEntry, validate_config
from fedsched.federation import (
    ChaperonState, PodChaperon, ProxyPod, ProxyState, VirtualNode,
)
from fedsched.metascale import BatchJob
from fedsched.metrics import PodRow, SeriesRow, TriggerLatency
from fedsched.sim import Simulation

from conftest import fx_of, make_node, make_pod, seeded
from test_acceptance import random_protocol_raw
from test_golden_log import CASES

TERMINAL = (ProxyState.BOUND.value, ProxyState.UNSCHEDULABLE.value)
SETTLED = (ChaperonState.DELETED.value, ChaperonState.DELEGATE.value)


def run_checking_reports(raw, seed=None):
    """Step `raw` to the end, checking each CandidateReport that finds no
    proxy, and return the Simulation and the number of such reports."""
    sim = Simulation(validate_config(seeded(raw, seed)))
    queue, proxies = sim.ctx.queue, sim.protocol.proxies
    terminal, orphans = set(), 0
    while queue.due(sim.config.duration_ms):
        upcoming = queue._heap[0][2]
        if upcoming.kind == engine.CANDIDATE_REPORT and upcoming.args[0] not in proxies:
            assert upcoming.args[0] in terminal, (upcoming.time, upcoming.args)
            orphans += 1
        for fx in fx_of(sim.step()):
            if fx["op"] == "proxy" and fx["state"] in TERMINAL:
                terminal.add(fx["pod"])
    return sim, orphans


def live_by_log(events):
    """The proxies and chaperons, with their states, that the log says the
    protocol still needs."""
    targets, finished, chaperons = {}, set(), {}
    for event in events:
        if event.kind == engine.STATUS_MIRROR:
            pod_id, _, phase = event.args
            if phase == PodPhase.COMPLETED.value:
                finished.add(pod_id)
        for fx in fx_of(event):
            op = fx["op"]
            if op == "proxy":
                targets.setdefault(fx["pod"], fx.get("targets", ()))
                if fx["state"] == ProxyState.UNSCHEDULABLE.value:
                    finished.add(fx["pod"])
            elif op == "chaperon":
                chaperons[(fx["pod"], fx["cluster"])] = fx["state"]
    proxies = {
        pod_id for pod_id, held in targets.items()
        if pod_id not in finished
        or any(chaperons.get((pod_id, target)) not in SETTLED for target in held)
    }
    return proxies, {key: state for key, state in chaperons.items() if state not in SETTLED}


def check_live_records(sim):
    proxies, chaperons = live_by_log(sim.events)
    assert set(sim.protocol.proxies) == proxies
    assert {
        key: chaperon.state.value for key, chaperon in sim.protocol.chaperons.items()
    } == chaperons
    for target, waiting in sim.protocol._unsettled.items():
        assert {(pod_id, target) for pod_id in waiting} == {
            key for key in chaperons if key[1] == target
        }


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case_holds_only_live_records(name):
    raw, seed = CASES[name]()
    sim, _ = run_checking_reports(raw, seed)
    check_live_records(sim)


def test_random_configs_hold_only_live_records():
    # Every other config is reservation-free. Every third one gives up after
    # one short election timeout, so deletes race the targets' reports.
    rng = random.Random(20261020)
    dropped = orphans = 0
    for index in range(20):
        raw = random_protocol_raw(rng)
        raw["federation"] = {"reservations": index % 2 == 0}
        if index % 3 == 0:
            raw["federation"].update(max_retries=0, election_timeout="5ms")
        sim, found = run_checking_reports(raw)
        check_live_records(sim)
        orphans += found
        submitted = sum(e.payload["federated"] for e in sim.events
                        if e.kind == engine.POD_SUBMIT)
        dropped += submitted - len(sim.protocol.proxies)
    assert dropped > 0, "no run dropped a proxy"
    assert orphans > 0, "no CandidateReport ever found its proxy dropped"


def record_instances():
    pod = make_pod("p1", federated=True)
    proxy = ProxyPod(pod=pod, source="s", targets=("t",), fanout_time=0)
    return {
        "PodSpec": pod,
        "NodeSpec": make_node("n1"),
        "PodEntry": PodEntry("p1", "c1", "default", 0, 1, (1, 1, 0), {}, False),
        "ProxyPod": proxy,
        "PodChaperon": PodChaperon(proxy=proxy, target="t"),
        "VirtualNode": VirtualNode("t", (1, 1, 0), (1, 1, 0)),
        "BatchJob": BatchJob("j1", "c1", 1, 1, 0),
        "PodRow": PodRow("p1", "default", "workload", "c1", False, 0, (1, 1, 0)),
        "SeriesRow": SeriesRow(0, "c1", (0, 0, 0), (1, 1, 0), 0),
        "TriggerLatency": TriggerLatency("p1", 0, None),
    }


@pytest.mark.parametrize("name", sorted(record_instances()))
def test_record_class_is_slotted(name):
    record = record_instances()[name]
    assert type(record).__name__ == name
    assert not hasattr(record, "__dict__")
