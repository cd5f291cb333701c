"""Framewise acoustic features: mel spectrogram (dB), ZCR, and RMSE (dB).

Frames are taken every `hop_ms` over the whole signal; frame t covers
samples [t*hop, t*hop + window) and the tail is zero-padded, so the
frame count depends only on duration and hop (`floor(n / hop)`). All
math runs in float64; the stored matrix is float32. Frames go through
the spectrum in blocks of `BLOCK_FRAMES`, so the working set stays the
same whatever the recording length.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError

if TYPE_CHECKING:  # audio_io imports scipy.signal, which training never needs
    from .audio_io import AudioBuffer

# dB floors: -100 dB for both the mel power spectrogram and the RMSE track
POWER_EPS = 1e-10
AMP_EPS = 1e-5

# frames per feature block: one default 2 s model chunk
BLOCK_FRAMES = 800


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


def _frames(samples: np.ndarray, window: int, hop: int, start: int, stop: int) -> np.ndarray:
    """Frames [start, stop) of the zero-padded framing, shape
    (stop - start, window): a view of `samples` where they cover every
    frame, else a zero-padded copy of just this span."""
    span = samples[start * hop : (stop - 1) * hop + window]
    needed = (stop - start - 1) * hop + window
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


def mel_spectrogram_db(frames: np.ndarray, n_mels: int, sample_rate: int) -> np.ndarray:
    """Mel power spectrogram in dB. Periodic Hann window, FFT size the
    next power of two at or above the window length, floor -100 dB."""
    window = frames.shape[1]
    fft_size = _next_pow2(window)
    spectrum = np.fft.rfft(frames * _hann(window), n=fft_size, axis=1)
    power = np.abs(spectrum) ** 2
    mel_power = power @ _cached_filterbank(n_mels, fft_size, sample_rate).T
    return 10.0 * np.log10(np.maximum(mel_power, POWER_EPS))


def extract_features(buffer: AudioBuffer, config: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    window = config.window_samples(buffer.sample_rate)
    hop = config.hop_samples(buffer.sample_rate)
    num_frames = buffer.num_samples // hop
    data = np.empty((num_frames, config.dim), dtype=np.float32)
    for start in range(0, num_frames, BLOCK_FRAMES):
        block = _frames(buffer.samples, window, hop, start, min(start + BLOCK_FRAMES, num_frames))
        rows = data[start : start + BLOCK_FRAMES]
        rows[:, : config.n_mels] = mel_spectrogram_db(block, config.n_mels, buffer.sample_rate)
        rows[:, config.n_mels] = zcr(block)
        rows[:, config.n_mels + 1] = rmse_db(block)
    return FeatureMatrix(data, config)

