"""Golden gate for the report writers: pinned SHA-256 digests of
`pods.csv`, `timeseries.csv` and `summary.json`.

`tests/test_golden_log.py` pins the event log; these pin what
`build_report` derives from it and the three writers put on disk, for the
bundled wildfire run, a metascale run that moves a node between pools, and
a meshed run past capacity. A change meant to keep behaviour must leave every digest
alone.
"""

from __future__ import annotations

import copy
import hashlib

import pytest

from fedsched.config import validate_config
from fedsched.metrics import write_pods_csv, write_series_csv, write_summary_json
from fedsched.sim import Simulation

from test_golden_log import CASES

WRITERS = {
    "pods.csv": write_pods_csv,
    "timeseries.csv": write_series_csv,
    "summary.json": write_summary_json,
}

GOLDEN = {
    ("bundled", "pods.csv"): "97379f3043dfd670e9c7753875cbcd58b714d92f4f940f38f5e5203e73b54759",
    ("bundled", "timeseries.csv"): "aec7e7832a35a3d661729d7914a37b25b853b1b56ce2cb973b28d9a85e8d7825",
    ("bundled", "summary.json"): "4c1fdb8cf7180488b0d44ecf8342ba6a28d137eea3c2fba06266751aee372184",
    ("oscillating-metascale", "pods.csv"): "c0dd211a1db9024bd28447c29d76552312bb6d1a54f13f23bb293b1d77906f8c",
    ("oscillating-metascale", "timeseries.csv"): "9186ea66a3e33cc9b775924ba0c058ae645247921ac2bf0ee5df85c5ac31bf5a",
    ("oscillating-metascale", "summary.json"): "aec82ff4aaf89d4dad804ffa5d922bac74862b4850b998a4581da5d8062087b4",
    ("mesh-overload", "pods.csv"): "1572e0add271942e18e68e3425247b6b50a4e4406746226b3bac49db641208b3",
    ("mesh-overload", "timeseries.csv"): "391f711f8db119efbb08f9f8c639f36e84745ee5f62c75cbdafa09390636f088",
    ("mesh-overload", "summary.json"): "76082c2b8920c48811dd8560b4bc98a5f2764886a6a87dec85194f85eb3afb07",
}


@pytest.mark.parametrize("name", sorted({case for case, _ in GOLDEN}))
def test_writer_digests_are_pinned(name, tmp_path):
    raw, seed = CASES[name]()
    report = Simulation(validate_config(copy.deepcopy(raw), base_seed=seed)).run()
    for filename, write in WRITERS.items():
        path = tmp_path / filename
        write(str(path), report)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN[(name, filename)], filename
