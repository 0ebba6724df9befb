"""Statistics helper: medians, quartiles and supported percentiles.

Run with ``python -m pytest perfbench``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def test_median_and_quartiles():
    values = [5, 1, 4, 2, 3]
    assert stats.median(values) == 3
    assert stats.quartiles(values) == (1.5, 3, 4.5)
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_highest_percentile_keeps_ten_beyond():
    assert stats.highest_percentile(140) == 92
    assert stats.highest_percentile(100) == 90
    assert stats.highest_percentile(24) == 58
    assert stats.highest_percentile(20) == 50
    assert stats.highest_percentile(19) is None
    assert stats.highest_percentile(0) is None


def test_percentile_refuses_thin_tails():
    values = list(range(100))
    assert stats.percentile(values, 90) == pytest.approx(89.1)
    assert stats.percentile(values, 50) == pytest.approx(49.5)
    with pytest.raises(ValueError):
        stats.percentile(values[:99], 90)


def test_describe_prints_sample_count():
    line = stats.describe([float(v) for v in range(1, 25)], "ms")
    assert line.startswith("12.5 ms")
    assert "p58" in line
    assert line.endswith("n=24)")
    assert "p" not in stats.describe([1.0, 2.0], "s").split("q3")[1]
