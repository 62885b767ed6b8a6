"""The report writers against the csv and json modules.

`write_pods_csv` and `write_series_csv` format each row as one f-string
and hand a row to `csv.writer` only when it needs quoting; the reference
writers below are the plain `csv.writer` loops they replaced, and every
byte must equal theirs. `write_event_log` writes each Event's line from
compiled writers; each line must be `json.dumps` of the Event's record,
and read back to the Event that wrote it.
"""

from __future__ import annotations

import csv
import json

import pytest

from fedsched import metrics
from fedsched.metrics import (
    MetricsReport,
    PodRow,
    SeriesRow,
    read_event_log,
    record_of,
    write_event_log,
    write_pods_csv,
    write_series_csv,
    write_summary_json,
)

from conftest import run_raw
from test_golden_log import CASES


def reference_pods_csv(path, report):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "pod_id", "namespace", "role", "source_cluster", "federated",
                "submit_ms", "bind_ms", "time_to_bind_ms", "bound_cluster",
                "bound_node", "complete_ms", "final_phase",
                "cpu_millicores", "memory_bytes", "gpu_count",
            ]
        )
        for row in report.pods:
            writer.writerow(pod_fields(row))


def pod_fields(row):
    return [
        row.pod_id, row.namespace, row.role, row.source_cluster,
        int(row.federated), row.submit_time,
        "" if row.bind_time is None else row.bind_time,
        "" if row.time_to_bind is None else row.time_to_bind,
        row.bound_cluster or "", row.bound_node or "",
        "" if row.complete_time is None else row.complete_time,
        row.final_phase, *row.req,
    ]


def reference_series_csv(path, report):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "time_ms", "cluster", "cpu_used", "memory_used", "gpu_used",
                "cpu_capacity", "memory_capacity", "gpu_capacity", "pending",
            ]
        )
        for row in report.series:
            writer.writerow(series_fields(row))


def series_fields(row):
    return [row.time, row.cluster, *row.used, *row.capacity, row.pending]


def reference_summary_json(path, report):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.summary(), handle, indent=2, sort_keys=True)
        handle.write("\n")


PAIRS = {
    "pods.csv": (write_pods_csv, reference_pods_csv),
    "timeseries.csv": (write_series_csv, reference_series_csv),
    "summary.json": (write_summary_json, reference_summary_json),
}


@pytest.fixture(scope="module")
def golden_runs():
    """(sim, report) of each tests/test_golden_log.py case, run once."""
    return {name: run_raw(*build()) for name, build in CASES.items()}


def written(tmp_path, write, report, name):
    path = tmp_path / name
    write(str(path), report)
    return path.read_bytes()


@pytest.fixture
def csv_rows(monkeypatch):
    """The rows handed to any `csv.writer` while the test runs."""
    rows = []
    make = csv.writer

    class Counting:
        def __init__(self, handle):
            self.writer = make(handle)

        def writerow(self, row):
            rows.append(list(row))
            return self.writer.writerow(row)

    monkeypatch.setattr(csv, "writer", Counting)
    return rows


def check_writers(tmp_path, report, csv_rows):
    """Write `report` with each writer and its reference, assert equal
    bytes, and return the rows the writers, not the references, handed to
    `csv.writer`."""
    for filename, (write, _) in PAIRS.items():
        written(tmp_path, write, report, f"new-{filename}")
    handed = list(csv_rows)
    for filename, (_, reference) in PAIRS.items():
        want = written(tmp_path, reference, report, f"ref-{filename}")
        assert (tmp_path / f"new-{filename}").read_bytes() == want, filename
    return handed


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cases_write_the_reference_bytes_without_csv_writer(name, golden_runs,
                                                                   tmp_path, csv_rows):
    _, report = golden_runs[name]
    assert check_writers(tmp_path, report, csv_rows) == []


# Strings the csv module quotes, or that a careless plainness test would
# misjudge, for every string field a row holds.
ODD = [",", '"', "a,b", 'say "hi"', "\r", "\n", "\r\n", "x\ry", "x\ny", " lead", "trail ",
       "  ", "ü東京", "pöd-ñ", "", "None", "NoneSuch", "a\tb", "'"]


def pod(name, **fields):
    """A pod row named `name`, with `fields` set over its defaults."""
    row = PodRow(pod_id=name, namespace="default", role="workload", source_cluster="a",
                 federated=True, submit_time=100, req=(1000, 1 << 30, 0), bind_time=160,
                 bound_cluster="b", bound_node="b-n1", complete_time=900,
                 final_phase="Completed")
    for key, value in fields.items():
        setattr(row, key, value)
    return row


def odd_report():
    """Plain rows, rows with one odd string in each string field, rows with
    None where a report may hold it, and enough rows to fill more than one
    of the writers' chunks."""
    pods = [pod(f"p{i:04d}") for i in range(2 * metrics._CHUNK + 7)]
    series = [SeriesRow(t, "a", (t, 2 * t, 0), (8000, 1 << 34, 2), t % 3)
              for t in range(2 * metrics._CHUNK + 7)]
    string_fields = ("pod_id", "namespace", "role", "source_cluster", "bound_cluster",
                     "bound_node", "final_phase")
    for text in ODD:
        for key in string_fields:
            pods.insert(3 * len(pods) // 4, pod(f"q{len(pods)}", **{key: text}))
        series.insert(len(series) // 3, SeriesRow(7, text, (1, 2, 3), (4, 5, 6), 0))
    pods += [
        pod("pending", bind_time=None, bound_cluster=None, bound_node=None,
            complete_time=None, final_phase="Pending", federated=False),
        pod("none-fields", namespace=None, role=None, final_phase=None),
    ]
    return MetricsReport(pods=pods, series=series)


def needs_csv(fields):
    """Whether a row's fields fail the writers' plainness test."""
    return any(value is None or any(c in str(value) for c in ',"\r\n') or "None" in str(value)
               for value in fields)


def test_odd_strings_are_quoted_as_the_csv_module_quotes_them(tmp_path, csv_rows):
    report = odd_report()
    handed = check_writers(tmp_path, report, csv_rows)
    fields = {"pods.csv": [pod_fields(row) for row in report.pods],
              "timeseries.csv": [series_fields(row) for row in report.series]}
    # Exactly the rows that fail the plainness test reached the csv module,
    # plain rows in the same chunk did not, and each row read back whole: a
    # quoted field that held a `,`, `"` or line break is one field.
    assert handed == [row for rows in fields.values() for row in rows if needs_csv(row)]
    assert len(handed) > len(ODD)
    for filename, rows in fields.items():
        with open(tmp_path / f"new-{filename}", encoding="utf-8", newline="") as handle:
            read = list(csv.reader(handle))[1:]
        assert read == [["" if v is None else str(v) for v in row] for row in rows], filename


def test_plain_chunks_reach_no_csv_writer(tmp_path, csv_rows):
    report = odd_report()
    report.pods = [row for row in report.pods if not needs_csv(pod_fields(row))]
    report.series = [row for row in report.series if not needs_csv(series_fields(row))]
    assert len(report.pods) > 2 * metrics._CHUNK
    assert check_writers(tmp_path, report, csv_rows) == []


def fields(event):
    return event.time, event.seq, event.kind, event.args, event.effects


@pytest.mark.parametrize("name", sorted(CASES))
def test_event_log_reads_back_to_the_run_and_writes_the_same_bytes(name, golden_runs, tmp_path):
    # Each line is its Event's record as `json.dumps` writes it, reads back
    # to an Event that holds the same values, tuples where the run's holds
    # tuples, and the Events read back write the same file again.
    sim, _ = golden_runs[name]
    path = tmp_path / "events.jsonl"
    write_event_log(str(path), sim.events)
    text = path.read_text(encoding="utf-8")
    assert text == "".join(
        f'{json.dumps(record_of(event), separators=(",", ":"))}\n' for event in sim.events
    )
    back = list(read_event_log(str(path)))
    assert [fields(event) for event in back] == [fields(event) for event in sim.events]
    again = tmp_path / "again.jsonl"
    write_event_log(str(again), back)
    assert again.read_bytes() == path.read_bytes()
