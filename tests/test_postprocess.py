"""Probability sequences to intervals, and end-to-end breath detection."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breathline.audio_io import AudioBuffer
from breathline.errors import ConfigError
from breathline.nn import BreathDetectorModel, ModelConfig
from breathline.postprocess import DetectionConfig, detect_breaths, slices_to_intervals
from breathline.synth import SynthesisConfig, synthesize_one


def test_three_step_run_is_kept():
    ivals = slices_to_intervals(np.array([0.9, 0.9, 0.9]))
    assert ivals.intervals == [(0.0, 150.0)]
    assert ivals.total_duration_ms == 150.0


def test_two_step_run_is_removed():
    ivals = slices_to_intervals(np.array([0.9, 0.9, 0.1, 0.1]))
    assert ivals.intervals == []


def test_below_threshold_is_empty():
    assert slices_to_intervals(np.full(10, 0.4)).intervals == []
    # threshold 0.5 is inclusive
    assert slices_to_intervals(np.full(3, 0.5)).intervals == [(0.0, 150.0)]


def test_interior_run_alignment():
    probs = np.array([0.1, 0.8, 0.9, 0.7, 0.2, 0.6, 0.6, 0.6, 0.6, 0.1])
    ivals = slices_to_intervals(probs)
    assert ivals.intervals == [(50.0, 200.0), (250.0, 450.0)]


def test_custom_step_and_minimum():
    cfg = DetectionConfig(step_ms=100.0, min_breath_ms=200.0)
    assert slices_to_intervals(np.array([0.9, 0.9, 0.0]), cfg).intervals == [(0.0, 200.0)]
    assert slices_to_intervals(np.array([0.9, 0.0, 0.9]), cfg).intervals == []


def test_config_validation():
    with pytest.raises(ConfigError):
        DetectionConfig(binarize_threshold=0.0)
    with pytest.raises(ConfigError):
        DetectionConfig(binarize_threshold=1.0)
    with pytest.raises(ConfigError):
        DetectionConfig(step_ms=0.0)
    with pytest.raises(ConfigError):
        DetectionConfig(min_breath_ms=-1.0)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=80))
@settings(max_examples=200, deadline=None)
def test_interval_invariants(probs):
    ivals = slices_to_intervals(np.array(probs))
    n = len(probs)
    prev_end = -1.0
    for s, e in ivals:
        assert s % 50.0 == 0.0 and e % 50.0 == 0.0
        assert e - s >= 150.0
        assert 0.0 <= s < e <= n * 50.0
        assert s > prev_end  # sorted and disjoint
        prev_end = e


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=60),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=200, deadline=None)
def test_higher_threshold_never_adds_breath_time(probs, t1, t2):
    lo, hi = sorted((t1, t2))
    arr = np.array(probs)
    low = slices_to_intervals(arr, DetectionConfig(binarize_threshold=lo))
    high = slices_to_intervals(arr, DetectionConfig(binarize_threshold=hi))
    assert high.durations_ms().sum() <= low.durations_ms().sum() + 1e-9
    # every surviving high-threshold interval sits inside a low-threshold one
    for s, e in high:
        assert any(s >= s2 and e <= e2 for s2, e2 in low)


def test_detect_breaths_recovers_bursts(detector):
    model, _ = detector
    buf, truth = synthesize_one(SynthesisConfig(duration_ms=60000.0, breaths_per_minute=10.0, rng_seed=77))
    got = detect_breaths(model, buf)
    assert 6 <= len(got) <= 14
    for s, e in truth:
        best = 0.0
        for s2, e2 in got:
            inter = max(0.0, min(e, e2) - max(s, s2))
            union = (e - s) + (e2 - s2) - inter
            best = max(best, inter / union)
        assert best > 0.3
    # intervals never extend past the audio
    assert all(e <= buf.duration_ms for _, e in got)


def test_detect_breaths_on_breathless_audio(detector):
    model, _ = detector
    buf, _ = synthesize_one(SynthesisConfig(duration_ms=60000.0, breaths_per_minute=0.0, rng_seed=78))
    got = detect_breaths(model, buf)
    assert len(got) <= 3
    assert got.durations_ms().sum() <= 1000.0


def test_detect_breaths_needs_the_detectors_step(detector):
    model, _ = detector
    buf, _ = synthesize_one(SynthesisConfig(duration_ms=2000.0, rng_seed=79))
    with pytest.raises(ConfigError, match="step"):
        detect_breaths(model, buf, DetectionConfig(step_ms=100.0))


@pytest.mark.parametrize("fields", [
    {"min_breath_ms": float("nan")}, {"min_breath_ms": float("inf")},
    {"step_ms": float("nan")}, {"step_ms": float("inf")},
])
def test_non_finite_durations_rejected(fields):
    with pytest.raises(ConfigError, match="finite"):
        DetectionConfig(**fields)


def test_detection_memory_does_not_grow_with_the_recording():
    """Detection holds one unit's features, batch and activations at a
    time, whatever the recording's length: between 2 and 8 minutes only
    the step probabilities grow (8 bytes per 50 ms, 58 KiB), where the
    whole-file float32 feature matrix grew by 37 MB. Measured 0.1 MiB."""
    model = BreathDetectorModel(ModelConfig())
    x = np.random.default_rng(9).uniform(-0.5, 0.5, 8 * 60 * 16000)
    detect_breaths(model, AudioBuffer(x[:16000], 16000))  # the cached window and filterbank
    peaks = []
    for minutes in (2, 8):
        buffer = AudioBuffer(x[: minutes * 60 * 16000], 16000)
        tracemalloc.start()
        try:
            detect_breaths(model, buffer)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20
