"""Framewise acoustic features: mel spectrogram (dB), ZCR, and RMSE (dB).

Frames are taken every `hop_ms` over the whole signal; frame t covers
samples [t*hop, t*hop + window) and the tail is zero-padded, so the
frame count depends only on duration and hop (`floor(n / hop)`). All
math runs in float64; the stored rows are float32.

`fill_feature_rows` computes any span of frames in blocks of
`BLOCK_FRAMES`, calling `mel_spectrogram_db`, `zcr` and `rmse_db` by
name, with one `_MelScratch`: about 1.8 MiB at the defaults, plus the
1 MiB complex spectrum the FFT returns per block. Each block's samples
come from `read(lo, hi)` of its audio: a slice of an `AudioBuffer`, or
just those samples read from an open WAV file (`audio_io.WavSource`), so
neither detection nor training reads a 16 kHz file whole. Detection runs
it on one piece of a `predict_file` batch's frames at a time
(`postprocess.DetectionJob`). `extract_features`, for training and the
frame experiments, fills a whole-file matrix in contiguous shares of
blocks, one per usable CPU: the caller runs share 0 and starts one helper
thread per other share (none with one usable CPU).

A frame's features are the same bytes in any block, share or unit. The
windowed frames go into the first `window` columns of a buffer whose pad
columns are zeroed once, so the FFT makes no padded copy. The filterbank
is one matmul per group of `MELS_PER_BAND` filters over only the bins the
group touches; OpenBLAS adds each output's terms over the bins in order
either way, so from 2 rows up this equals the dense `power @ bank.T` of a
large block bit for bit. A single frame is multiplied as 2 rows, because
OpenBLAS's one-row kernel (gemv) rounds differently.
"""
from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer, WavSource
from .errors import ConfigError

# dB floors: -100 dB for both the mel power spectrogram and the RMSE track
POWER_EPS = 1e-10
AMP_EPS = 1e-5

# frames per feature block: few enough that one block's buffers (about
# 2.8 MiB at the defaults) stay near the size of a core's L2 cache (2 MiB
# on the Xeon measured); with blocks of 800 frames `detect` on a 5-minute
# file took about 10% longer there
BLOCK_FRAMES = 256
# mel filters per filterbank matmul: with 8 the banded product is
# bit-identical to the dense one, with 4 it is not (OpenBLAS takes
# another kernel for such narrow matrices)
MELS_PER_BAND = 8


def usable_cpus() -> int:
    """CPUs this process may run on; `taskset` narrows them."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class FeatureConfig:
    window_ms: float = 20.0
    hop_ms: float = 2.5
    n_mels: int = 128

    def __post_init__(self):
        if not (0 < self.window_ms < math.inf and 0 < self.hop_ms < math.inf):
            raise ConfigError("window_ms and hop_ms must be positive and finite")
        if self.hop_ms > self.window_ms:
            raise ConfigError("hop_ms must not exceed window_ms")
        if self.n_mels < 1:
            raise ConfigError("n_mels must be >= 1")

    @property
    def dim(self) -> int:
        """Feature vector length: mel buckets plus ZCR plus RMSE."""
        return self.n_mels + 2

    def window_samples(self, sample_rate: int) -> int:
        return _exact_samples(self.window_ms, sample_rate, "window_ms")

    def hop_samples(self, sample_rate: int) -> int:
        return _exact_samples(self.hop_ms, sample_rate, "hop_ms")


def _exact_samples(ms: float, sample_rate: int, what: str) -> int:
    exact = ms * sample_rate / 1000.0
    samples = int(round(exact))
    if samples < 1 or abs(exact - samples) > 1e-6:
        raise ConfigError(f"{what}={ms} is not a whole number of samples at {sample_rate} Hz")
    return samples


@dataclass
class FeatureMatrix:
    """(num_frames, n_mels + 2) float32 matrix; columns are mel dB bands
    in order, then ZCR, then RMSE dB."""

    data: np.ndarray
    config: FeatureConfig

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 2 or self.data.shape[1] != self.config.dim:
            raise ConfigError(
                f"feature matrix must have shape (frames, {self.config.dim}), got {self.data.shape}"
            )

    @property
    def num_frames(self) -> int:
        return self.data.shape[0]


def _frames(span: np.ndarray, window: int, hop: int, count: int) -> np.ndarray:
    """`count` frames of `window` samples every `hop` samples from the start
    of `span`, shape (count, window): a view of `span` where it covers every
    frame, else of a zero-padded copy of it."""
    needed = (count - 1) * hop + window
    if len(span) < needed:
        span = np.concatenate([span, np.zeros(needed - len(span))])
    return np.lib.stride_tricks.sliding_window_view(span, window)[::hop]


def zcr(frames: np.ndarray) -> np.ndarray:
    """Zero-crossing rate per frame: sign changes / (window - 1), with
    sign(0) treated as positive."""
    positive = frames >= 0
    changes = np.count_nonzero(positive[:, 1:] != positive[:, :-1], axis=1)
    return changes / (frames.shape[1] - 1)


def rmse_db(frames: np.ndarray) -> np.ndarray:
    """Root-mean-square energy per frame in dB, floored at -100 dB."""
    rms = np.sqrt(np.mean(frames**2, axis=1))
    return 20.0 * np.log10(np.maximum(rms, AMP_EPS))


def hz_to_mel(hz):
    """Slaney mel scale: linear below 1 kHz, log above."""
    hz = np.asarray(hz, dtype=np.float64)
    mel = 3.0 * hz / 200.0
    log_region = hz >= 1000.0
    mel = np.where(log_region, 15.0 + 27.0 * np.log(np.maximum(hz, 1000.0) / 1000.0) / np.log(6.4), mel)
    return mel


def mel_to_hz(mel):
    mel = np.asarray(mel, dtype=np.float64)
    hz = 200.0 * mel / 3.0
    log_region = mel >= 15.0
    hz = np.where(log_region, 1000.0 * np.power(6.4, (mel - 15.0) / 27.0), hz)
    return hz


def mel_filterbank(n_mels: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """Triangular filters (n_mels, fft_size//2 + 1), peak 1, spanning 0 to Nyquist."""
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.fft.rfftfreq(fft_size, d=1.0 / sample_rate)
    lower = hz_points[:-2, None]
    center = hz_points[1:-1, None]
    upper = hz_points[2:, None]
    rising = (bin_freqs - lower) / np.maximum(center - lower, 1e-30)
    falling = (upper - bin_freqs) / np.maximum(upper - center, 1e-30)
    return np.maximum(0.0, np.minimum(rising, falling))


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


# the cached arrays are shared by every caller, so they are read-only
_CACHE_BUILD = threading.Lock()
@functools.lru_cache(maxsize=16)
def _hann(window: int) -> np.ndarray:
    """Periodic Hann window, built once per length."""
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)
    hann.flags.writeable = False
    return hann


@functools.lru_cache(maxsize=16)
def _cached_filterbank(n_mels: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """`mel_filterbank`, built once per (n_mels, fft_size, sample_rate)."""
    bank = mel_filterbank(n_mels, fft_size, sample_rate)
    bank.flags.writeable = False
    return bank


@functools.lru_cache(maxsize=16)
def _filter_bands(n_mels: int, fft_size: int, sample_rate: int) -> tuple:
    """The filterbank as (mel slice, bin slice, weights) per group of
    `MELS_PER_BAND` consecutive filters: weights is the (bins, mels)
    transpose of the group over just the bins where any of its filters
    is nonzero, so a group with no nonzero weight has zero bins."""
    bank = _cached_filterbank(n_mels, fft_size, sample_rate)
    bands = []
    for lo in range(0, n_mels, MELS_PER_BAND):
        mels = slice(lo, min(lo + MELS_PER_BAND, n_mels))
        support = np.flatnonzero(bank[mels].any(axis=0))
        bins = slice(int(support[0]), int(support[-1]) + 1) if support.size else slice(0, 0)
        weights = np.ascontiguousarray(bank[mels, bins].T)
        weights.flags.writeable = False
        bands.append((mels, bins, weights))
    return tuple(bands)


class _MelScratch:
    """Buffers for the mel spectrogram of up to `rows` frames of `window`
    samples: the windowed frames zero-padded to the FFT size (the pad
    columns are zeroed once and never written), their power spectrum and
    their mel power."""

    def __init__(self, rows: int, window: int, n_mels: int, sample_rate: int):
        rows = max(rows, 2)  # see mel_db
        self.window = window
        fft_size = _next_pow2(window)
        with _CACHE_BUILD:  # a racing thread waits for the cached arrays instead of building its own
            self.hann = _hann(window)
            self.bands = _filter_bands(n_mels, fft_size, sample_rate)
        self.padded = np.zeros((rows, fft_size))
        self.power = np.empty((rows, fft_size // 2 + 1))
        self.mel = np.empty((rows, n_mels))

    def mel_db(self, frames: np.ndarray) -> np.ndarray:
        """The mel spectrogram in dB of `frames` as a view of the mel
        buffer, which the next call overwrites."""
        n = frames.shape[0]
        # at least 2 rows: for one row OpenBLAS takes gemv, whose sums
        # round differently from the gemm of every larger block; a spare
        # row holds zeros or an earlier frame, and is not returned
        rows = max(n, 2)
        padded, power, mel = self.padded[:rows], self.power[:rows], self.mel[:rows]
        np.multiply(frames, self.hann, out=padded[:n, : self.window])
        np.abs(np.fft.rfft(padded, axis=1), out=power)
        power *= power
        for mels, bins, weights in self.bands:
            np.matmul(power[:, bins], weights, out=mel[:, mels])
        np.maximum(mel, POWER_EPS, out=mel)
        np.log10(mel, out=mel)
        mel *= 10.0
        return mel[:n]


def mel_spectrogram_db(
    frames: np.ndarray, n_mels: int, sample_rate: int, *, scratch: _MelScratch | None = None
) -> np.ndarray:
    """Mel power spectrogram in dB. Periodic Hann window, FFT size the
    next power of two at or above the window length, floor -100 dB.

    `scratch`, built for at least as many rows and the same window,
    n_mels and sample_rate, is used in place of one-shot buffers; the
    result is then a view into it that the next call overwrites.
    """
    if scratch is None:
        rows, window = frames.shape
        scratch = _MelScratch(rows, window, n_mels, sample_rate)
    return scratch.mel_db(frames)


def fill_feature_rows(
    out: np.ndarray, buffer: AudioBuffer | WavSource, config: FeatureConfig, start: int, scratch=None
) -> None:
    """Write the features of frames [start, start + len(out)) into `out`,
    in blocks of `BLOCK_FRAMES` from `start`, reusing `scratch` (a
    `_MelScratch` for the same window, n_mels and rate) or one of its own.
    Each block's samples come from `buffer.read`."""
    window = config.window_samples(buffer.sample_rate)
    hop = config.hop_samples(buffer.sample_rate)
    stop = start + len(out)
    if scratch is None:
        scratch = _MelScratch(min(BLOCK_FRAMES, len(out)), window, config.n_mels, buffer.sample_rate)
    for lo in range(start, stop, BLOCK_FRAMES):
        hi = min(lo + BLOCK_FRAMES, stop)
        block = _frames(buffer.read(lo * hop, (hi - 1) * hop + window), window, hop, hi - lo)
        rows = out[lo - start : hi - start]
        rows[:, : config.n_mels] = mel_spectrogram_db(block, config.n_mels, buffer.sample_rate, scratch=scratch)
        rows[:, config.n_mels] = zcr(block)
        rows[:, config.n_mels + 1] = rmse_db(block)


def extract_features(buffer: AudioBuffer | WavSource, config: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    window = config.window_samples(buffer.sample_rate)
    hop = config.hop_samples(buffer.sample_rate)
    num_frames = buffer.num_samples // hop
    data = np.empty((num_frames, config.dim), dtype=np.float32)
    blocks = -(-num_frames // BLOCK_FRAMES)
    shares = max(1, min(usable_cpus(), blocks))
    # built here, so the cached window and filterbank exist before any helper starts
    scratches = [
        _MelScratch(min(BLOCK_FRAMES, num_frames), window, config.n_mels, buffer.sample_rate) for _ in range(shares)
    ]

    def run_share(share: int) -> None:
        start = blocks * share // shares * BLOCK_FRAMES
        stop = min(blocks * (share + 1) // shares * BLOCK_FRAMES, num_frames)
        fill_feature_rows(data[start:stop], buffer, config, start, scratches[share])

    run_on_threads([functools.partial(run_share, share) for share in range(shares)])
    return FeatureMatrix(data, config)


def run_on_threads(tasks: list) -> None:
    """Run tasks[0] on the calling thread and every other task on a helper
    thread of its own; once every started helper is joined, raise the first
    failure."""
    failures = []

    def run_helper(task) -> None:
        try:
            task()
        except BaseException as exc:
            failures.append(exc)

    helpers = [threading.Thread(target=run_helper, args=(task,)) for task in tasks[1:]]
    try:
        for thread in helpers:
            thread.start()
        tasks[0]()
    finally:
        for thread in helpers:
            if thread.ident is not None:  # started
                thread.join()
    if failures:
        raise failures[0]
