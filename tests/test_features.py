"""Feature extraction: mel bands, ZCR, RMSE, and framing."""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_mel_db, naive_rmse_db, naive_zcr

from breathline import features
from breathline.audio_io import AudioBuffer
from breathline.errors import ConfigError
from breathline.features import (
    BLOCK_FRAMES,
    FeatureConfig,
    extract_features,
    hz_to_mel,
    mel_spectrogram_db,
    mel_to_hz,
    zcr,
    rmse_db,
)

SR = 16000


def _frames(signal, window=320, hop=40):
    count = (len(signal)) // hop
    out = np.zeros((count, window))
    padded = np.concatenate([signal, np.zeros(window)])
    for t in range(count):
        out[t] = padded[t * hop : t * hop + window]
    return out


def test_mel_scale_anchor_points():
    assert hz_to_mel(0.0) == 0.0
    np.testing.assert_allclose(hz_to_mel(1000.0), 15.0, rtol=1e-12)
    np.testing.assert_allclose(mel_to_hz(15.0), 1000.0, rtol=1e-12)
    np.testing.assert_allclose(hz_to_mel(200.0), 3.0, rtol=1e-12)  # linear below 1 kHz
    np.testing.assert_allclose(hz_to_mel(400.0), 6.0, rtol=1e-12)
    grid = np.linspace(10.0, 7900.0, 60)
    np.testing.assert_allclose([mel_to_hz(hz_to_mel(h)) for h in grid], grid, rtol=1e-10)


def test_zcr_hand_frames():
    frames = np.array(
        [
            [1.0, -1.0, 1.0, -1.0],
            [1.0, 1.0, 1.0, 1.0],
            [0.0, -1.0, 1.0, 1.0],  # sign(0) counts as positive
        ]
    )
    np.testing.assert_allclose(zcr(frames), [1.0, 0.0, 2.0 / 3.0])


def test_zcr_sine_matches_oracle():
    sine = np.sin(2 * np.pi * 100.0 * np.arange(SR) / SR)
    frames = _frames(sine)
    got = zcr(frames)
    np.testing.assert_allclose(got, naive_zcr(frames), atol=1e-12)
    # the sampled wave hits exact zeros, and sign(0) is positive: the
    # initial full window sees 3 sign changes over 319 pairs
    np.testing.assert_allclose(got[0], 3.0 / 319.0, rtol=1e-6)


def test_rmse_values():
    sine = np.sin(2 * np.pi * 100.0 * np.arange(320) / SR)[None, :]  # 2 full cycles
    np.testing.assert_allclose(rmse_db(sine), 20.0 * np.log10(2.0**-0.5), atol=1e-6)
    np.testing.assert_allclose(rmse_db(np.zeros((1, 320))), -100.0)
    # amplitudes below the 1e-5 floor clamp to -100 dB
    np.testing.assert_allclose(rmse_db(np.full((1, 320), 1e-8)), -100.0)
    rng = np.random.default_rng(0)
    frames = rng.normal(0, 0.1, (30, 320))
    np.testing.assert_allclose(rmse_db(frames), naive_rmse_db(frames), atol=1e-10)


def test_zero_signal_feature_floor():
    fm = extract_features(AudioBuffer(np.zeros(SR), SR))
    assert fm.data.shape == (400, 130)
    np.testing.assert_allclose(fm.data[:, :128], -100.0)
    np.testing.assert_allclose(fm.data[:, 128], 0.0)
    np.testing.assert_allclose(fm.data[:, 129], -100.0)


def test_mel_columns_match_oracle():
    rng = np.random.default_rng(1)
    buffer = AudioBuffer(np.clip(rng.normal(0, 0.08, SR // 2), -1, 1), SR)
    fm = extract_features(buffer)
    frames = _frames(buffer.samples)
    want = naive_mel_db(frames, 128, SR)
    rel = np.abs(fm.data[:, :128] - want) / np.maximum(1.0, np.abs(want))
    assert float(rel.max()) < 1e-6


def test_tone_peaks_in_nearest_band():
    mels = np.linspace(hz_to_mel(0.0), hz_to_mel(SR / 2.0), 130)
    centers = np.array([mel_to_hz(m) for m in mels])[1:-1]
    nearest = int(np.argmin(np.abs(centers - 440.0)))
    tone = 0.5 * np.sin(2 * np.pi * 440.0 * np.arange(SR) / SR)
    fm = extract_features(AudioBuffer(tone, SR))
    argmax_bands = np.argmax(fm.data[:, :128], axis=1)
    # interior frames (no zero padding) all peak at the band nearest 440 Hz
    assert np.all(argmax_bands[:-8] == nearest)


def test_band_noise_energy_stays_in_band():
    rng = np.random.default_rng(2)
    noise = rng.standard_normal(SR)
    spectrum = np.fft.rfft(noise)
    freqs = np.fft.rfftfreq(SR, d=1.0 / SR)
    spectrum[(freqs < 300.0) | (freqs > 2000.0)] = 0.0
    signal = np.fft.irfft(spectrum, n=SR)
    signal *= 0.3 / np.max(np.abs(signal))
    fm = extract_features(AudioBuffer(signal, SR))
    mels = np.linspace(hz_to_mel(0.0), hz_to_mel(SR / 2.0), 130)
    centers = np.array([mel_to_hz(m) for m in mels])[1:-1]
    power = 10.0 ** (fm.data[:-8, :128] / 10.0)
    in_band = power[:, (centers >= 250.0) & (centers <= 2200.0)].sum()
    assert in_band / power.sum() > 0.9


def test_frame_count_rule():
    five_ms_hop = FeatureConfig(window_ms=20.0, hop_ms=5.0)
    assert extract_features(AudioBuffer(np.zeros(5 * SR), SR), five_ms_hop).num_frames == 1000
    assert extract_features(AudioBuffer(np.zeros(2 * SR), SR)).num_frames == 800
    rng = np.random.default_rng(3)
    for n in rng.integers(1600, 40000, size=6):
        fm = extract_features(AudioBuffer(np.zeros(int(n)), SR))
        assert fm.num_frames == int(n) // 40


def test_shift_by_whole_hops_translates_frames():
    rng = np.random.default_rng(4)
    x = np.clip(rng.normal(0, 0.1, SR), -1, 1)
    k = 7
    shifted = np.concatenate([np.zeros(k * 40), x])
    fm_x = extract_features(AudioBuffer(x, SR))
    fm_s = extract_features(AudioBuffer(shifted, SR))
    full = (len(x) - 320) // 40 + 1  # windows that never touch padding
    np.testing.assert_array_equal(fm_s.data[k : k + full], fm_x.data[:full])


def test_gain_scaling_shifts_db_columns():
    rng = np.random.default_rng(5)
    x = np.clip(rng.normal(0, 0.005, SR), -0.08, 0.08)
    quiet = extract_features(AudioBuffer(x, SR))
    loud = extract_features(AudioBuffer(10.0 * x, SR))
    np.testing.assert_allclose(loud.data[:, 129] - quiet.data[:, 129], 20.0, atol=1e-5)
    above_floor = quiet.data[:, :128] > -90.0
    diff = (loud.data[:, :128] - quiet.data[:, :128])[above_floor]
    np.testing.assert_allclose(diff, 20.0, atol=1e-5)
    np.testing.assert_array_equal(loud.data[:, 128], quiet.data[:, 128])


def test_fractional_hop_rejected():
    with pytest.raises(ConfigError, match="whole number of samples"):
        extract_features(AudioBuffer(np.zeros(44100), 44100))


@pytest.mark.parametrize("fields", [
    {"window_ms": float("nan")}, {"hop_ms": float("nan")},
    {"window_ms": float("inf")}, {"window_ms": float("inf"), "hop_ms": float("inf")},
])
def test_non_finite_window_or_hop_rejected(fields):
    with pytest.raises(ConfigError, match="finite"):
        FeatureConfig(**fields)


HOP, WINDOW = 40, 320  # samples at 16 kHz for the default 2.5 ms hop and 20 ms window
# frame counts around the block edges; each gets a random tail of under one hop
EDGE_FRAMES = [0, 1, BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1, 2 * BLOCK_FRAMES, 3 * BLOCK_FRAMES + 7]


@given(
    length=st.one_of(
        st.integers(0, WINDOW - 1),  # shorter than one window
        st.sampled_from(EDGE_FRAMES).flatmap(lambda f: st.integers(f * HOP, f * HOP + HOP - 1)),
        st.integers(0, 4 * BLOCK_FRAMES * HOP),
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_blockwise_features_equal_whole_frame_composition(length, seed):
    x = np.clip(np.random.default_rng(seed).normal(0, 0.1, length), -1, 1)
    got = extract_features(AudioBuffer(x, SR)).data
    frames = _frames(x, WINDOW, HOP)  # the tail frames are zero-padded
    want = np.column_stack([mel_spectrogram_db(frames, 128, SR), zcr(frames), rmse_db(frames)]).astype(np.float32)
    assert got.shape == want.shape == (length // HOP, 130)
    assert got.tobytes() == want.tobytes()


def test_window_and_filterbank_are_cached_read_only():
    bank = features._cached_filterbank(128, 512, SR)
    assert features._cached_filterbank(128, 512, SR) is bank
    np.testing.assert_array_equal(bank, features.mel_filterbank(128, 512, SR))
    with pytest.raises(ValueError):
        bank[0, 0] = 1.0
    with pytest.raises(ValueError):
        features._hann(WINDOW)[0] = 1.0
    bands = features._filter_bands(128, 512, SR)
    assert features._filter_bands(128, 512, SR) is bands
    with pytest.raises(ValueError):
        bands[0][2][0, 0] = 1.0


# (n_mels, fft_size, sample_rate); (256, 512, 16000) has 24 filters with no
# nonzero weight, and (512, 256, 16000) whole groups of them (zero-width bands)
BAND_CONFIGS = [(128, 512, 16000), (256, 512, 16000), (40, 256, 8000), (128, 1024, 22050), (1, 512, 16000), (512, 256, 16000)]


@pytest.mark.parametrize("n_mels,fft_size,sample_rate", BAND_CONFIGS)
def test_filter_bands_are_the_filterbank(n_mels, fft_size, sample_rate):
    bank = features.mel_filterbank(n_mels, fft_size, sample_rate)
    rebuilt = np.zeros_like(bank)
    covered = np.zeros(n_mels, dtype=int)
    for mels, bins, weights in features._filter_bands(n_mels, fft_size, sample_rate):
        assert weights.shape == (bins.stop - bins.start, mels.stop - mels.start)
        rebuilt[mels, bins] += weights.T  # a weight counted twice would double
        covered[mels] += 1
    assert np.all(covered == 1)
    assert rebuilt.tobytes() == bank.tobytes()  # and a dropped one would be missing

    window = fft_size * 5 // 8  # its next power of two is fft_size
    frames = np.random.default_rng(n_mels).normal(0, 0.1, (37, window))
    power = np.abs(np.fft.rfft(frames * features._hann(window), n=fft_size, axis=1)) ** 2
    want = 10.0 * np.log10(np.maximum(power @ bank.T, features.POWER_EPS))
    got = mel_spectrogram_db(frames, n_mels, sample_rate)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    empty = ~bank.any(axis=1)
    assert np.all(got[:, empty] == -100.0)


def test_extraction_calls_the_named_kernels(monkeypatch):
    """extract_features looks up mel_spectrogram_db, zcr and rmse_db by
    their module names once per block, so a wrapper put on those names
    (a profiler's or a tracer's) sees all of the kernels' time."""
    calls = []  # list.append is atomic, and the shares call from two threads
    for name in ("mel_spectrogram_db", "zcr", "rmse_db"):

        def counted(*args, _name=name, _fn=getattr(features, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(features, name, counted)
    monkeypatch.setattr(features, "usable_cpus", lambda: 2)
    extract_features(AudioBuffer(np.zeros(3 * BLOCK_FRAMES * HOP + 5), SR))
    assert sorted(calls) == ["mel_spectrogram_db"] * 3 + ["rmse_db"] * 3 + ["zcr"] * 3


def test_extraction_on_two_threads_equals_sequential():
    signals = [np.clip(np.random.default_rng(seed).normal(0, 0.1, 3 * SR + 17 * seed), -1, 1) for seed in (7, 8)]
    want = [extract_features(AudioBuffer(x, SR)).data.tobytes() for x in signals]
    got = [None, None]

    def run(i):
        for _ in range(3):
            data = extract_features(AudioBuffer(signals[i], SR)).data.tobytes()
            got[i] = data if got[i] in (None, data) else b"differs"

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert got == want


def _extraction_peak_above_output(x) -> float:
    """tracemalloc peak of extract_features(x) minus its float32 output,
    in MiB, with the cached window and filterbank built first."""
    extract_features(AudioBuffer(x[:SR], SR))
    tracemalloc.start()
    try:
        fm = extract_features(AudioBuffer(x, SR))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - fm.data.nbytes) / 2**20


def test_extraction_memory_is_output_plus_a_block(monkeypatch):
    """5 min of audio on one share: besides the float32 output, extraction
    holds one share's buffers, 1.75 MiB (256 rows of 512 padded window
    columns, 257 power bins and 128 mel bands), one block's 1 MiB complex
    spectrum, and the ZCR and RMSE temporaries of one block. Measured
    output + 2.8 MiB; the bound is that plus 2 MiB. The whole frames are
    views of the samples, so there is no whole-file spectrum (about 100 MB
    per audio-minute) and no zero-padded copy of the signal (about 7.7 MB
    per audio-minute)."""
    monkeypatch.setattr(features, "usable_cpus", lambda: 1)
    x = np.random.default_rng(6).normal(0, 0.1, 5 * 60 * SR)
    assert _extraction_peak_above_output(x) <= 2.8 + 2.0


def test_extraction_memory_at_two_shares_is_output_plus_two_shares(monkeypatch):
    """The same 5 minutes on two shares: each share holds the working set
    measured above, 2.8 MiB (its own 1.75 MiB of padded, power and mel
    buffers, one block's 1 MiB complex spectrum, and one block's ZCR and
    RMSE temporaries), so the bound is output + 2 x 2.8 MiB + 2 MiB.
    Nothing grows with the recording's length or with the share count
    beyond one working set per share."""
    monkeypatch.setattr(features, "usable_cpus", lambda: 2)
    x = np.random.default_rng(6).normal(0, 0.1, 5 * 60 * SR)
    assert _extraction_peak_above_output(x) <= 2 * 2.8 + 2.0


# frame counts for the share tests; each gets a tail of under one hop
SHARE_FRAMES = [0, 1, 255, 256, 257, 513]


@pytest.mark.parametrize("cpus", [1, 2, 3])  # 3 shares on a 2-CPU host: more threads than cores
def test_features_are_the_same_bytes_at_any_share_count(cpus, monkeypatch):
    rng = np.random.default_rng(11)
    signals = [np.clip(rng.normal(0, 0.1, n * HOP + 13), -1, 1) for n in SHARE_FRAMES]
    signals.append(np.clip(rng.normal(0, 0.1, 5 * 60 * SR), -1, 1))
    monkeypatch.setattr(features, "usable_cpus", lambda: 1)
    want = [extract_features(AudioBuffer(x, SR)).data.tobytes() for x in signals]
    monkeypatch.setattr(features, "usable_cpus", lambda: cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so shares interleave finely
    try:
        got = [extract_features(AudioBuffer(x, SR)).data.tobytes() for x in signals]
    finally:
        sys.setswitchinterval(interval)
    assert got == want


class _CountedThread(threading.Thread):
    started = []

    def start(self):
        _CountedThread.started.append(self)
        super().start()


@pytest.mark.parametrize("cpus,blocks,helpers", [(1, 3, 0), (2, 3, 1), (3, 3, 2), (4, 2, 1), (2, 1, 0), (2, 0, 0)])
def test_one_helper_thread_per_share_after_the_first(cpus, blocks, helpers, monkeypatch):
    """One usable CPU, or one block, starts no thread; otherwise one
    helper per share after the first, and never more shares than blocks."""
    monkeypatch.setattr(features, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(features.threading, "Thread", _CountedThread)
    monkeypatch.setattr(_CountedThread, "started", [])
    before = threading.active_count()
    extract_features(AudioBuffer(np.zeros(blocks * BLOCK_FRAMES * HOP), SR))
    assert len(_CountedThread.started) == helpers
    assert not any(thread.is_alive() for thread in _CountedThread.started)
    assert threading.active_count() == before


def test_cold_caches_build_the_filterbank_once(monkeypatch):
    """The calling thread builds every share's scratch before a helper
    starts, so the cached filterbank is built once per config, not once
    per racing share."""
    built, real = [], features.mel_filterbank

    def counted(*args):
        built.append(args)
        time.sleep(0.05)  # a slow build, as under a tracer: a racing share would build its own
        return real(*args)

    monkeypatch.setattr(features, "mel_filterbank", counted)
    monkeypatch.setattr(features, "usable_cpus", lambda: 3)
    for cache in (features._hann, features._cached_filterbank, features._filter_bands):
        cache.cache_clear()
    try:
        extract_features(AudioBuffer(np.zeros(3 * BLOCK_FRAMES * HOP), SR))
        extract_features(AudioBuffer(np.zeros(3 * BLOCK_FRAMES * HOP), SR))
    finally:
        for cache in (features._hann, features._cached_filterbank, features._filter_bands):
            cache.cache_clear()  # drop what was built under the counting name
    assert built == [(128, 512, SR)]


@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_a_failing_share_raises_and_leaves_no_thread(failing, monkeypatch):
    """A share that raises, on a helper or on the calling thread, comes out
    of extract_features once every helper has been joined."""
    real_zcr = features.zcr
    caller = threading.current_thread()

    def zcr(frames):
        if (threading.current_thread() is caller) == (failing == "caller"):
            raise RuntimeError(f"zcr failed on the {failing}")
        return real_zcr(frames)

    monkeypatch.setattr(features, "zcr", zcr)
    monkeypatch.setattr(features, "usable_cpus", lambda: 2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"on the {failing}"):
        extract_features(AudioBuffer(np.zeros(4 * BLOCK_FRAMES * HOP), SR))
    assert threading.active_count() == before


def test_a_few_frames_give_the_rows_of_a_large_block():
    """The mel kernel multiplies at least 2 rows, so an r-frame call gives
    the float64 rows of the same frames in a 300-frame call bit for bit
    (with one row OpenBLAS's gemv rounds differently), and a 257-frame
    recording, whose tail block is one frame, equals its whole-frame
    composition."""
    rng = np.random.default_rng(12)
    frames = rng.normal(0, 0.1, (300, WINDOW))
    whole = mel_spectrogram_db(frames, 128, SR)
    for r in range(1, 16):
        assert mel_spectrogram_db(frames[:r], 128, SR).tobytes() == whole[:r].tobytes()
        assert mel_spectrogram_db(frames[-r:], 128, SR).tobytes() == whole[-r:].tobytes()
    x = np.clip(rng.normal(0, 0.1, 257 * HOP + 21), -1, 1)
    framed = _frames(x, WINDOW, HOP)
    want = np.column_stack([mel_spectrogram_db(framed, 128, SR), zcr(framed), rmse_db(framed)]).astype(np.float32)
    assert extract_features(AudioBuffer(x, SR)).data.tobytes() == want.tobytes()
