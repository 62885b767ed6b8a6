"""Tail percentiles need at least ten samples beyond them."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import stats  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert stats.percentile(values, 95) == 190
    assert stats.percentile(values, 50) == 100
    assert stats.percentile(reversed(values), 95) == 190


@pytest.mark.parametrize("q, smallest", [(50, 20), (95, 200), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, smallest):
    stats.percentile(range(smallest), q)
    with pytest.raises(ValueError, match="needs 10"):
        stats.percentile(range(smallest - 1), q)


def test_quartiles_match_statistics_quantiles():
    assert stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
