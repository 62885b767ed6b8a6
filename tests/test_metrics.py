"""Metrics derivation, log round-tripping, and replay consistency."""

import json

import pytest

from fedsched import engine, metrics
from fedsched.engine import Event
from fedsched.errors import OvercommitError
from fedsched.metrics import (
    StaticInfo,
    build_report,
    read_event_log,
    record_of,
    serialize_event,
    static_info_of,
    write_event_log,
)
from conftest import base_config, node_cfg, pod_cfg, pod_row, run_raw
from test_golden_log import CASES

# The declared pod phase transition graph, re-stated here as the oracle.
LEGAL = {
    "Pending": {"Bound", "Unschedulable"},
    "Bound": {"Running"},
    "Running": {"Completed"},
}


def busy_raw(seed=5):
    clusters = [
        {"id": "a", "nodes": [node_cfg("a-n1", cpu=6000), node_cfg("a-n2", cpu=6000)]},
        {"id": "b", "nodes": [node_cfg("b-n1", cpu=6000)]},
    ]
    pods = [
        pod_cfg(f"f{i}", "a", cpu=2000, mem="2GiB", submit=i * 3000, duration="40s")
        for i in range(6)
    ] + [
        pod_cfg(f"l{i}", "b", cpu=1000, mem="1GiB", federated=False,
                submit=i * 2000, duration="30s")
        for i in range(3)
    ] + [
        pod_cfg("too-big", "a", cpu=50_000, mem="1GiB", submit=1000)
    ]
    return base_config(
        clusters, pairs=[("a", "a"), ("a", "b"), ("b", "a")],
        pods=pods, duration="10m", jitter="3ms", seed=seed,
    )


def metascale_raw():
    nodes = [node_cfg("m-b1", cpu=8000, pool="Batch"),
             node_cfg("m-b2", cpu=8000, pool="Batch"),
             node_cfg("m-c1", cpu=8000)]
    pods = [pod_cfg(f"p{i}", "m", cpu=8000, mem="1GiB", federated=False,
                    submit=0, duration="4m") for i in range(3)]
    raw = base_config([{"id": "m", "nodes": nodes}], edges=[], pods=pods,
                      duration="15m")
    raw["metascale"] = {"enabled": True}
    return raw


def test_report_recomputable_from_exported_log(tmp_path):
    for index, raw in enumerate((busy_raw(), metascale_raw())):
        sim, live = run_raw(raw)
        path = tmp_path / f"events-{index}.jsonl"
        write_event_log(str(path), sim.events)
        parsed = read_event_log(str(path))
        recomputed = build_report(parsed, static_info_of(sim.config))
        assert recomputed == live


def test_report_takes_any_iterable_of_records_or_of_events(tmp_path):
    # The input is read once: an empty input, a generator and a list of the
    # same items yield equal reports.
    sim, live = run_raw(metascale_raw())
    static = static_info_of(sim.config)
    path = tmp_path / "events.jsonl"
    write_event_log(str(path), sim.events)
    from_generator = build_report(read_event_log(str(path)), static)
    assert from_generator == build_report(list(read_event_log(str(path))), static) == live
    assert build_report(iter(sim.events), static) == live
    empty = build_report(iter(()), static)
    assert empty == build_report([], static)
    assert (empty.pods, empty.series, empty.event_count, empty.end_time) == ([], [], 0, 0)


def test_serialized_field_order_is_stable():
    sim, _ = run_raw(busy_raw())
    line = serialize_event(sim.events[0])
    assert line.startswith('{"t":')
    assert list(json.loads(line).keys()) == ["t", "seq", "kind", "payload", "fx"]


def non_ascii_raw():
    # Ids that `ensure_ascii` must escape, in payloads and effects alike; the
    # aggregate reports between the two clusters carry no effects.
    clusters = [
        {"id": "zürich", "nodes": [node_cfg("zürich-ñ1", cpu=4000), node_cfg("zürich-ñ2", cpu=4000)]},
        {"id": "東京", "nodes": [node_cfg("東京-n1", cpu=4000)]},
    ]
    pods = [
        pod_cfg(f"pöd-{i}", "zürich" if i % 2 else "東京", cpu=2000, submit=i * 1000,
                federated=i % 3 != 0)
        for i in range(9)
    ]
    return base_config(clusters, pairs=[("zürich", "東京"), ("東京", "zürich")], pods=pods,
                       duration="10m", jitter="2ms")


DIFFERENTIAL = {
    "bundled": CASES["bundled"],
    "oscillating-metascale": CASES["oscillating-metascale"],
    "mesh-overload": CASES["mesh-overload"],
    "non-ascii": lambda: (non_ascii_raw(), 3),
}


@pytest.mark.parametrize("encoder", ["c-encoder", "fallback"])
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_serialized_lines_equal_json_dumps(name, encoder, tmp_path, monkeypatch):
    # Every line, written from a live Event or from a record read back from
    # the log, is what `json.dumps` with compact separators gives its record.
    if encoder == "fallback":
        monkeypatch.setattr(metrics, "_encode", metrics._make_encode(None))
    raw, seed = DIFFERENTIAL[name]()
    sim, _ = run_raw(raw, seed)
    path = tmp_path / "events.jsonl"
    write_event_log(str(path), sim.events)
    lines = path.read_text(encoding="utf-8").splitlines()
    records = list(read_event_log(str(path)))
    assert len(lines) == len(records) == len(sim.events)
    if name == "non-ascii":
        assert any(not event.effects for event in sim.events)
        assert any("\\u00fc" in line for line in lines)
    for event, record, line in zip(sim.events, records, lines):
        expected = json.dumps(record_of(event), separators=(",", ":"))
        assert serialize_event(event) == expected == line
        assert serialize_event(record) == json.dumps(record, separators=(",", ":")) == line


@pytest.mark.parametrize("encoder", ["c-encoder", "fallback"])
def test_event_with_no_effects_encodes_only_its_payload(encoder, monkeypatch):
    # Empty effects are written as `"fx":[]` by hand: the encoder sees the
    # payload alone, and the line is still what `json.dumps` gives.
    encode = metrics._encode if encoder == "c-encoder" else metrics._make_encode(None)
    encoded = []

    def counting(value):
        encoded.append(value)
        return encode(value)

    monkeypatch.setattr(metrics, "_encode", counting)
    args = ("pöd-1", "zürich", "default", True, "workload", (1000, 2**30, 0))
    quiet = Event(7, 3, engine.POD_SUBMIT, args)
    line = serialize_event(quiet)
    assert line == json.dumps(record_of(quiet), separators=(",", ":"))
    assert line.endswith(',"fx":[]}') and encoded == [quiet.payload]
    busy = Event(7, 4, engine.POD_SUBMIT, args, ({"op": "phase", "pod": "pöd-1"},))
    assert serialize_event(busy) == json.dumps(record_of(busy), separators=(",", ":"))
    assert encoded[1:] == [busy.payload, busy.effects]


@pytest.mark.parametrize("encoder", ["c-encoder", "fallback"])
def test_event_of_unknown_kind_is_encoded_whole(encoder, tmp_path, monkeypatch):
    # Only a live Event gets the hand-written head, and only the engine's
    # own kinds, which `engine.FIELDS` names, are ever live. A record of any
    # other kind, read back from a log, is encoded whole.
    if encoder == "fallback":
        monkeypatch.setattr(metrics, "_encode", metrics._make_encode(None))
    line = json.dumps({"t": 5, "seq": 9, "kind": 'Odd "kind" ü', "payload": {"x": 0.5},
                       "fx": []}, separators=(",", ":"))
    path = tmp_path / "events.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    (record,) = read_event_log(str(path))
    assert serialize_event(record) == json.dumps(record, separators=(",", ":")) == line


def test_every_pod_appears_exactly_once(tmp_path):
    import csv

    from fedsched.metrics import write_pods_csv

    sim, report = run_raw(busy_raw())
    ids = [p.pod_id for p in report.pods]
    assert len(ids) == len(set(ids)) == 10
    path = tmp_path / "pods.csv"
    write_pods_csv(str(path), report)
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert sorted(r["pod_id"] for r in rows) == sorted(ids)


def test_unschedulable_pod_reported_as_such(tmp_path):
    _, report = run_raw(busy_raw())
    assert pod_row(report, "too-big").final_phase == "Unschedulable"
    assert pod_row(report, "too-big").bind_time is None


def test_pod_phase_histories_follow_transition_graph():
    sim, _ = run_raw(busy_raw())
    phase = {}
    for event in sim.events:
        if event.kind == "PodSubmit":
            phase[event.payload["pod"]] = "Pending"
        for fx in event.effects:
            if fx["op"] == "bind":
                assert "Bound" in LEGAL[phase[fx["pod"]]]
                phase[fx["pod"]] = "Bound"
            elif fx["op"] == "phase":
                assert fx["phase"] in LEGAL[phase[fx["pod"]]]
                phase[fx["pod"]] = fx["phase"]
            elif fx["op"] == "unschedulable":
                assert "Unschedulable" in LEGAL[phase[fx["pod"]]]
                phase[fx["pod"]] = "Unschedulable"


def test_series_usage_never_exceeds_capacity():
    _, report = run_raw(busy_raw())
    assert report.series
    for row in report.series:
        assert all(used <= cap for used, cap in zip(row.used, row.capacity))


@pytest.mark.parametrize("dim", range(3))
def test_unbind_beyond_usage_is_an_overcommit(dim):
    # Hand-written log: the unbind gives back one unit more than the bind
    # took in one dimension, which only a broken log can do.
    static = StaticInfo(node_capacity={"c": {"n1": [8000, 8192, 2]}},
                        node_pool={"c": {"n1": "Container"}})
    req = [1000, 1024, 1]
    back = list(req)
    back[dim] += 1
    records = [
        {"t": 0, "seq": 0, "kind": "PodSubmit",
         "payload": {"pod": "p", "cluster": "c", "ns": "default", "federated": False,
                     "req": req},
         "fx": [{"op": "bind", "pod": "p", "cluster": "c", "node": "n1", "req": req,
                 "src": "c"}]},
        {"t": 5, "seq": 1, "kind": "PodComplete", "payload": {"pod": "p", "cluster": "c"},
         "fx": [{"op": "unbind", "pod": "p", "cluster": "c", "node": "n1", "req": back}]},
    ]
    build_report(records[:1], static)
    with pytest.raises(OvercommitError):
        build_report(records, static)


def test_final_state_matches_log_replay():
    sim, _ = run_raw(busy_raw())
    replayed = {}
    for event in sim.events:
        for fx in event.effects:
            if fx["op"] == "bind":
                replayed.setdefault((fx["cluster"], fx["node"]), {})[fx["pod"]] = fx["req"]
            elif fx["op"] == "unbind":
                replayed[(fx["cluster"], fx["node"])].pop(fx["pod"])
    for cluster_id, state in sim.clusters.items():
        for node_id, holds in state.bound.items():
            expected = replayed.get((cluster_id, node_id), {})
            assert {p: r.as_list() for p, r in holds.items()} == expected


def test_offload_counts_match_delegate_binds():
    sim, report = run_raw(busy_raw())
    delegate_binds = sum(
        1 for e in sim.events for fx in e.effects if fx["op"] == "offload"
    )
    assert sum(report.offloads.values()) == delegate_binds
    bound_federated = sum(
        1 for p in report.pods if p.federated and p.bind_time is not None
    )
    assert delegate_binds == bound_federated


def test_summary_counts_are_consistent():
    _, report = run_raw(busy_raw())
    summary = report.summary()
    assert summary["pods_total"] == 10
    assert (
        summary["pods_bound"]
        == summary["pods_completed"] + sum(
            1 for p in report.pods if p.final_phase in ("Bound", "Running")
        )
    )
    assert summary["pods_unschedulable"] == 1
