"""Golden gate for the report writers: pinned SHA-256 digests of
`pods.csv`, `timeseries.csv` and `summary.json`.

`tests/test_golden_log.py` pins the event log; these pin what
`build_report` derives from it and the three writers put on disk, for the
bundled wildfire run, a metascale run that moves a node between pools, and
a meshed run past capacity. A change meant to keep behaviour must leave every digest
alone.
"""

from __future__ import annotations

import hashlib

import pytest

from fedsched.config import validate_config
from fedsched.metrics import write_pods_csv, write_series_csv, write_summary_json
from fedsched.sim import Simulation

from conftest import seeded
from test_golden_log import CASES

WRITERS = {
    "pods.csv": write_pods_csv,
    "timeseries.csv": write_series_csv,
    "summary.json": write_summary_json,
}

GOLDEN = {
    ("bundled", "pods.csv"): "d2bb671e2f933bc57de5c8114e9fff859dbde825399957558227a67cdf5b3832",
    ("bundled", "timeseries.csv"): "faa19f27bc85173635bd3fb1ce4ed98bc3ed9687bff4ce996104f9259618de43",
    ("bundled", "summary.json"): "6dc37bbcd17b97aa0286c0965dd03b681f7640a8068ba4fed5ba46a0981f0dd8",
    ("oscillating-metascale", "pods.csv"): "c0dd211a1db9024bd28447c29d76552312bb6d1a54f13f23bb293b1d77906f8c",
    ("oscillating-metascale", "timeseries.csv"): "9186ea66a3e33cc9b775924ba0c058ae645247921ac2bf0ee5df85c5ac31bf5a",
    ("oscillating-metascale", "summary.json"): "aec82ff4aaf89d4dad804ffa5d922bac74862b4850b998a4581da5d8062087b4",
    ("mesh-overload", "pods.csv"): "870526a95a4e5384d539e903926c9bd22e877e9f5c0e7357550ff1feb2f4ae11",
    ("mesh-overload", "timeseries.csv"): "e6612d4dd2e1ee41d9e95828aa931c4565c57918a799a86664ce18d8135ad4c5",
    ("mesh-overload", "summary.json"): "b1c355dfd2af821f79ab694223e475a37ddf48ead039d749fc9ad0fd468922cd",
}


@pytest.mark.parametrize("name", sorted({case for case, _ in GOLDEN}))
def test_writer_digests_are_pinned(name, tmp_path):
    raw, seed = CASES[name]()
    report = Simulation(validate_config(seeded(raw, seed))).run()
    for filename, write in WRITERS.items():
        path = tmp_path / filename
        write(str(path), report)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN[(name, filename)], filename
