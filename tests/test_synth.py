"""Synthetic corpus generator: determinism, ground truth, and levels."""

import tracemalloc

import numpy as np
import pytest

from breathline.errors import ConfigError
from breathline.synth import SynthesisConfig, synthesize_corpus, synthesize_one


def test_same_seed_is_identical():
    cfg = SynthesisConfig(duration_ms=12000.0, rng_seed=7)
    buf1, ivals1 = synthesize_one(cfg)
    buf2, ivals2 = synthesize_one(cfg)
    np.testing.assert_array_equal(buf1.samples, buf2.samples)
    assert ivals1.intervals == ivals2.intervals


def test_breath_count_matches_rate():
    cfg = SynthesisConfig(duration_ms=60000.0, breaths_per_minute=9.0, rng_seed=1)
    _, ivals = synthesize_one(cfg)
    assert len(ivals.intervals) == 9
    # half a minute at 10/min rounds to 5
    cfg = SynthesisConfig(duration_ms=30000.0, breaths_per_minute=10.0, rng_seed=1)
    _, ivals = synthesize_one(cfg)
    assert len(ivals.intervals) == 5


def test_interval_durations_in_configured_range():
    cfg = SynthesisConfig(duration_ms=40000.0, breath_duration_ms=(250.0, 450.0), rng_seed=3)
    _, ivals = synthesize_one(cfg)
    sample_ms = 1000.0 / cfg.sample_rate
    for dur in ivals.durations_ms():
        assert 250.0 - sample_ms <= dur <= 450.0 + sample_ms


def test_fake_style_has_no_intervals():
    cfg = SynthesisConfig(duration_ms=10000.0, breaths_per_minute=0.0, rng_seed=2)
    assert cfg.label == "fake"
    buf, ivals = synthesize_one(cfg)
    assert ivals.intervals == []
    assert buf.num_samples == 160000


def test_burst_energy_concentrates_in_band():
    cfg = SynthesisConfig(duration_ms=30000.0, rng_seed=5, breath_band_hz=(300.0, 2000.0))
    buf, ivals = synthesize_one(cfg)
    sr = cfg.sample_rate
    for start_ms, end_ms in ivals.intervals:
        span = buf.samples[int(round(start_ms * sr / 1000.0)) : int(round(end_ms * sr / 1000.0))]
        spectrum = np.abs(np.fft.rfft(span)) ** 2
        freqs = np.fft.rfftfreq(len(span), d=1.0 / sr)
        in_band = spectrum[(freqs >= 300.0) & (freqs <= 2000.0)].sum()
        assert in_band / spectrum.sum() > 0.9


def test_peak_is_normalized():
    cfg = SynthesisConfig(duration_ms=5000.0, speech_band_level_db=-3.0, rng_seed=4)
    buf, _ = synthesize_one(cfg)
    assert float(np.max(np.abs(buf.samples))) <= 0.99 + 1e-12


def test_infeasible_config_raises():
    # 100 events of up to 450+2*200 ms cannot fit in 10 s
    cfg = SynthesisConfig(duration_ms=10000.0, breaths_per_minute=600.0, rng_seed=0)
    with pytest.raises(ConfigError, match="infeasible"):
        synthesize_one(cfg)


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthesisConfig(duration_ms=0.0)
    with pytest.raises(ConfigError):
        SynthesisConfig(breaths_per_minute=-1.0)
    with pytest.raises(ConfigError):
        SynthesisConfig(breath_duration_ms=(400.0, 300.0))
    with pytest.raises(ConfigError):
        SynthesisConfig(breath_band_hz=(300.0, 9000.0))  # above Nyquist at 16 kHz


def test_corpus_manifest_describes_files():
    configs = [
        SynthesisConfig(duration_ms=8000.0, rng_seed=0, name="r0", speaker_id="spk0", outlet="show1"),
        SynthesisConfig(duration_ms=8000.0, breaths_per_minute=0.0, rng_seed=1),
    ]
    buffers, interval_sets, entries = synthesize_corpus(configs)
    assert [e.id for e in entries] == ["r0", "synth-0001"]
    assert [e.label for e in entries] == ["real", "fake"]
    assert entries[0].source == "r0.wav" and entries[0].annotation_path == "r0.tsv"
    assert entries[0].speaker_id == "spk0" and entries[0].outlet == "show1"
    assert entries[1].outlet == "synthetic"
    for buf, entry in zip(buffers, entries):
        assert entry.duration_ms == buf.duration_ms
    assert interval_sets[1].intervals == []


def test_long_file_memory_is_two_sample_arrays():
    """5 min at 16 kHz: the envelope and the samples are the only
    full-length arrays alive at once; the bursts are kept at their own
    length, not as a third full-length array, and no full-length
    temporaries are made for the sum or the peak."""
    cfg = SynthesisConfig(duration_ms=5 * 60_000.0, rng_seed=5)
    n = 5 * 60 * cfg.sample_rate
    tracemalloc.start()
    try:
        buf, _ = synthesize_one(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert buf.samples.size == n
    assert peak <= 2 * n * 8 + 8 * 2**20
