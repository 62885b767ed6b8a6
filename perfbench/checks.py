"""Per-run correctness check, replayed from the event log.

The check walks the log's effects independently of the simulator's own
accounting and compares the result with the simulation's final state and
with the report. Any violation makes the run count as failed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

TERMINAL_PROXY_STATES = ("Bound", "Unschedulable")
FINAL_PHASES = {"Pending", "Bound", "Running", "Completed", "Failed", "Unschedulable"}
MAX_REPORTED = 20


def violations(records, sim, report) -> List[str]:
    """Every invariant broken by one run, as readable lines (empty if none).

    `records` are event-log records (dicts with t, kind, payload, fx), `sim`
    is the finished Simulation and `report` its MetricsReport. Checked:
      - no node is over capacity, counting bound plus reserved requests,
        after any effect;
      - each bound pod has exactly one bind, and a federated pod has one
        Delegate chaperon exactly when it was bound;
      - no reservation outlives its proxy turning Bound or Unschedulable
        by more than the slowest edge's latency;
      - every submitted pod appears once in the report;
      - the replayed bound and reserved sets equal the simulation's own.
    """
    found: List[str] = []
    capacity = {
        (cid, nid): node.capacity.as_tuple()
        for cid, state in sim.clusters.items()
        for nid, node in state.nodes().items()
    }
    usage: Dict[Tuple[str, str], List[int]] = {key: [0, 0, 0] for key in capacity}
    reserved: Dict[Tuple[str, str], Tuple[str, tuple]] = {}
    bound: Dict[Tuple[str, str], str] = {}
    binds: Dict[str, int] = {}
    delegates: Dict[str, int] = {}
    federated: Dict[str, bool] = {}
    terminal_at: Dict[str, int] = {}
    submitted: List[str] = []

    def add(t, cluster, node, req, sign):
        used = usage[(cluster, node)]
        for d in range(3):
            used[d] += sign * req[d]
        cap = capacity[(cluster, node)]
        if any(u > c for u, c in zip(used, cap)) or any(u < 0 for u in used):
            found.append(f"t={t} node {cluster}/{node} holds {tuple(used)} of {cap}")

    for rec in records:
        t = rec["t"]
        if rec["kind"] == "PodSubmit":
            submitted.append(rec["payload"]["pod"])
            federated[rec["payload"]["pod"]] = rec["payload"]["federated"]
        for fx in rec["fx"]:
            op = fx["op"]
            if op == "reserve":
                key = (fx["cluster"], fx["pod"])
                if key in reserved:
                    found.append(f"t={t} pod {fx['pod']} reserved twice in {fx['cluster']}")
                reserved[key] = (fx["node"], tuple(fx["req"]))
                add(t, fx["cluster"], fx["node"], fx["req"], +1)
            elif op == "release":
                key = (fx["cluster"], fx["pod"])
                if key not in reserved:
                    found.append(f"t={t} pod {fx['pod']} released without a reservation")
                    continue
                node, req = reserved.pop(key)
                add(t, fx["cluster"], node, req, -1)
            elif op == "bind":
                key = (fx["cluster"], fx["pod"])
                binds[fx["pod"]] = binds.get(fx["pod"], 0) + 1
                hold = reserved.get(key)
                if hold is not None and hold[0] == fx["node"]:
                    # The bind consumes the reservation; usage is unchanged.
                    reserved.pop(key)
                else:
                    add(t, fx["cluster"], fx["node"], fx["req"], +1)
                bound[key] = fx["node"]
            elif op == "unbind":
                add(t, fx["cluster"], fx["node"], fx["req"], -1)
                bound.pop((fx["cluster"], fx["pod"]), None)
            elif op == "chaperon" and fx["state"] == "Delegate":
                delegates[fx["pod"]] = delegates.get(fx["pod"], 0) + 1
            elif op == "proxy" and fx["state"] in TERMINAL_PROXY_STATES:
                terminal_at.setdefault(fx["pod"], t)

    for pod_id, count in binds.items():
        if count != 1:
            found.append(f"pod {pod_id} bound {count} times")
    for pod_id, is_federated in federated.items():
        want = binds.get(pod_id, 0) if is_federated else 0
        if delegates.get(pod_id, 0) != want:
            found.append(f"pod {pod_id} has {delegates.get(pod_id, 0)} delegates, expected {want}")

    slowest = max(
        (e.latency.base_ms + e.latency.jitter_ms for e in sim.graph.edges.values()), default=0
    )
    for (cluster, pod_id), (node, _) in sorted(reserved.items()):
        ended = terminal_at.get(pod_id)
        if ended is not None and ended + slowest <= sim.config.duration_ms:
            found.append(f"reservation of {pod_id} on {cluster}/{node} left after t={ended}")

    live_reserved = {
        (cid, pod_id)
        for cid, state in sim.clusters.items()
        for holds in state.reserved.values()
        for pod_id in holds
    }
    if live_reserved != set(reserved):
        found.append(f"replayed reservations differ from the simulation's: "
                     f"{sorted(live_reserved ^ set(reserved))[:5]}")
    live_bound = {
        (cid, pod_id)
        for cid, state in sim.clusters.items()
        for pods in state.bound.values()
        for pod_id in pods
    }
    if live_bound != set(bound):
        found.append(f"replayed binds differ from the simulation's: "
                     f"{sorted(live_bound ^ set(bound))[:5]}")

    rows = [row.pod_id for row in report.pods]
    if len(set(submitted)) != len(submitted):
        found.append("a pod was submitted twice")
    if sorted(rows) != sorted(submitted) or len(rows) != len(sim.pod_objects):
        found.append(
            f"report has {len(rows)} pods for {len(submitted)} submitted "
            f"and {len(sim.pod_objects)} registered"
        )
    odd = [row.pod_id for row in report.pods if row.final_phase not in FINAL_PHASES]
    if odd:
        found.append(f"pods with unknown final phase: {odd[:5]}")
    return found[:MAX_REPORTED]
