"""Per-file breath statistics and their CSV round trip."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breathline.annotations import BreathIntervalSet
from breathline.breath_stats import BreathStats, compute_stats, save_stats_csv
from breathline.errors import InputError


def test_reference_example():
    # two breaths in a minute: 500 + 600 ms long, 3500 ms apart
    ivals = BreathIntervalSet([(1000.0, 1500.0), (5000.0, 5600.0)], 60000.0)
    stats = compute_stats(ivals, 60000.0)
    assert stats.avg_breaths_per_minute == 2.0
    assert stats.avg_breath_duration_ms == 550.0
    assert stats.avg_spacing_ms == 3500.0


def test_no_breaths_is_all_zero():
    stats = compute_stats(BreathIntervalSet([], 30000.0), 30000.0)
    np.testing.assert_array_equal(stats.as_array(), [0.0, 0.0, 0.0])


def test_single_breath_spacing_zero():
    stats = compute_stats(BreathIntervalSet([(100.0, 400.0)], 30000.0), 30000.0)
    assert stats.avg_spacing_ms == 0.0
    assert stats.avg_breath_duration_ms == 300.0
    assert stats.avg_breaths_per_minute == 2.0


def test_nonpositive_duration_rejected():
    ivals = BreathIntervalSet([], 1000.0)
    with pytest.raises(InputError):
        compute_stats(ivals, 0.0)
    with pytest.raises(InputError):
        compute_stats(ivals, -5.0)


def test_stats_validation():
    with pytest.raises(InputError):
        BreathStats(-1.0, 0.0, 0.0)
    with pytest.raises(InputError):
        BreathStats(1.0, float("nan"), 0.0)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=50000.0), st.floats(min_value=10.0, max_value=800.0)),
        min_size=1,
        max_size=8,
    ),
    st.floats(min_value=1.5, max_value=4.0),
)
@settings(max_examples=100, deadline=None)
def test_time_dilation(raw, factor):
    # build disjoint intervals, then dilate time by `factor`:
    # rate divides by factor, durations and spacings multiply by it
    ivals, cursor = [], 0.0
    for offset, width in raw:
        start = cursor + offset + 1.0
        ivals.append((start, start + width))
        cursor = start + width
    total = cursor + 1000.0
    base = compute_stats(BreathIntervalSet(ivals, total), total)
    scaled_ivals = [(s * factor, e * factor) for s, e in ivals]
    scaled = compute_stats(BreathIntervalSet(scaled_ivals, total * factor), total * factor)
    assert scaled.avg_breaths_per_minute == pytest.approx(base.avg_breaths_per_minute / factor)
    assert scaled.avg_breath_duration_ms == pytest.approx(base.avg_breath_duration_ms * factor)
    assert scaled.avg_spacing_ms == pytest.approx(base.avg_spacing_ms * factor)


def test_csv_roundtrip(tmp_path):
    rows = [
        ("a", "real", BreathStats(9.5, 312.25, 5100.0)),
        ("b", "fake", BreathStats(0.0, 0.0, 0.0)),
    ]
    path = tmp_path / "stats.csv"
    save_stats_csv(path, rows)
    with open(path, newline="") as f:
        header, *loaded = list(csv.reader(f))
    assert header == ["id", "label", "bpm", "avg_duration_ms", "avg_spacing_ms"]
    assert loaded == [["a", "real", "9.5", "312.25", "5100"], ["b", "fake", "0", "0", "0"]]
