"""Interval sets, TSV label tracks, and frame/step label derivation."""

import numpy as np
import pytest

from breathline.annotations import (
    BreathIntervalSet,
    frames_from_intervals,
    load_annotations,
    save_annotations,
    steps_from_frames,
)
from breathline.errors import ValidationError


def test_intervals_sort_and_merge():
    ivals = BreathIntervalSet([(1000.0, 1300.0), (200.0, 500.0), (1300.0, 1600.0)], 2000.0)
    assert ivals.intervals == [(200.0, 500.0), (1000.0, 1600.0)]
    assert len(ivals) == 2
    np.testing.assert_allclose(ivals.durations_ms(), [300.0, 600.0])
    np.testing.assert_allclose(ivals.gaps_ms(), [500.0])


def test_interval_validation():
    with pytest.raises(ValidationError, match="overlaps"):
        BreathIntervalSet([(100.0, 400.0), (300.0, 500.0)], 1000.0)
    with pytest.raises(ValidationError, match="reversed"):
        BreathIntervalSet([(400.0, 400.0)], 1000.0)
    with pytest.raises(ValidationError, match="outside"):
        BreathIntervalSet([(900.0, 1100.0)], 1000.0)
    with pytest.raises(ValidationError):
        BreathIntervalSet([], 0.0)


def test_tsv_roundtrip(tmp_path):
    ivals = BreathIntervalSet([(250.0, 500.0), (1000.0, 1437.5)], 60000.0)
    path = tmp_path / "labels.tsv"
    save_annotations(path, ivals)
    loaded = load_annotations(path, 60000.0)
    # written at microsecond precision in seconds
    np.testing.assert_allclose(loaded.intervals, ivals.intervals, atol=1e-3)


def test_load_filters_non_breath_rows(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("0.5\t0.8\tbreath\n1.0\t2.0\tspeech\n3.0\t3.2\tBREATH\n4.0\t4.5\n\n")
    ivals = load_annotations(path, 10000.0)
    # case-insensitive 'breath'; a missing third column defaults to breath
    np.testing.assert_allclose(ivals.intervals, [(500.0, 800.0), (3000.0, 3200.0), (4000.0, 4500.0)])


def test_load_errors_name_lines(tmp_path):
    path = tmp_path / "rev.tsv"
    path.write_text("0.5\t0.8\tbreath\n2.0\t1.0\tbreath\n")
    with pytest.raises(ValidationError, match="line\\(s\\) 2"):
        load_annotations(path, 10000.0)

    path = tmp_path / "overlap.tsv"
    path.write_text("0.5\t1.0\tbreath\n0.8\t1.5\tbreath\n")
    with pytest.raises(ValidationError, match="1 and 2"):
        load_annotations(path, 10000.0)

    path = tmp_path / "nan.tsv"
    path.write_text("abc\t1.0\tbreath\n")
    with pytest.raises(ValidationError, match=":1:"):
        load_annotations(path, 10000.0)

    path = tmp_path / "short.tsv"
    path.write_text("0.5\n")
    with pytest.raises(ValidationError, match=":1:"):
        load_annotations(path, 10000.0)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    assert load_annotations(path, 1000.0).intervals == []


def test_frame_labels_strict_majority_boundary():
    # exactly half the 20 ms window covered is still negative
    half = frames_from_intervals(BreathIntervalSet([(0.0, 10.0)], 100.0), 20.0, 2.5, 8)
    assert not half[0]
    over = frames_from_intervals(BreathIntervalSet([(0.0, 11.0)], 100.0), 20.0, 2.5, 8)
    assert over[0]


def test_frame_labels_match_direct_overlap_rule():
    ivals = BreathIntervalSet([(100.0, 300.0)], 500.0)
    got = frames_from_intervals(ivals, 20.0, 2.5, 200)
    # frame t covers [2.5t, 2.5t+20); overlap with (100, 300) exceeds 10 ms
    # exactly for t in [37, 115]
    expected = np.zeros(200, dtype=bool)
    expected[37:116] = True
    np.testing.assert_array_equal(got, expected)


def test_frame_labels_agree_with_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        starts = np.sort(rng.uniform(0.0, 900.0, size=3))
        ivals = []
        cursor = 0.0
        for s in starts:
            s = max(s, cursor + 1.0)
            e = s + rng.uniform(5.0, 80.0)
            ivals.append((s, e))
            cursor = e
        iset = BreathIntervalSet(ivals, 1200.0)
        num_frames = 400
        got = frames_from_intervals(iset, 20.0, 2.5, num_frames)
        want = np.zeros(num_frames, dtype=bool)
        for t in range(num_frames):
            lo, hi = 2.5 * t, 2.5 * t + 20.0
            cover = sum(max(0.0, min(e, hi) - max(s, lo)) for s, e in iset)
            want[t] = cover > 10.0
        np.testing.assert_array_equal(got, want)


def test_more_intervals_never_clear_frames():
    base = BreathIntervalSet([(100.0, 200.0)], 1000.0)
    extended = BreathIntervalSet([(100.0, 200.0), (500.0, 650.0)], 1000.0)
    a = frames_from_intervals(base, 20.0, 2.5, 400)
    b = frames_from_intervals(extended, 20.0, 2.5, 400)
    assert np.all(b[a])  # every frame positive under `base` stays positive


def test_steps_strict_majority():
    frames = np.zeros(20, dtype=bool)
    frames[:10] = True  # exactly half
    assert not steps_from_frames(frames, 20)[0]
    frames[10] = True  # 11 of 20
    assert steps_from_frames(frames, 20)[0]


def test_steps_partial_final_block():
    frames = np.zeros(45, dtype=bool)
    frames[40:43] = True  # 3 of the final 5 frames
    steps = steps_from_frames(frames, 20)
    assert steps.shape == (3,)
    np.testing.assert_array_equal(steps, [False, False, True])
