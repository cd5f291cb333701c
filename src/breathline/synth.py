"""Synthetic corpus generation.

Real speech is emulated as broadband noise interrupted by pauses; a
"real"-style file carries a band-limited noise burst (the breath proxy,
300-2000 Hz by default) inside each pause, while a "fake"-style file has
none. Ground-truth intervals exactly match the inserted bursts, which
gives the rest of the pipeline a desk-scale oracle: detector training
data, known breath statistics, and a perfectly separable real/fake
corpus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .annotations import BreathIntervalSet
from .audio_io import CANONICAL_RATE, AudioBuffer
from .errors import ConfigError
from .manifest import ManifestEntry

# expected breath rate range in read/spontaneous speech, used for
# "real"-style defaults
REAL_BPM_RANGE = (8.0, 14.0)

FADE_MS = 10.0

# two hours: room for long-recording runs, and a ConfigError before a huge
# duration is rendered
MAX_DURATION_MS = 2 * 60 * 60 * 1000.0


@dataclass
class SynthesisConfig:
    """One synthetic file: duration, breath rate, levels, and seed.

    `breaths_per_minute == 0` yields a fake-style file (no bursts);
    `silent_pauses_per_minute` adds breath-free pauses so detectors must
    distinguish bursts from plain silence.
    """

    duration_ms: float = 30000.0
    breaths_per_minute: float = 10.0
    breath_duration_ms: tuple[float, float] = (250.0, 450.0)
    speech_band_level_db: float = -20.0
    breath_band_level_db: float = -26.0
    rng_seed: int = 0
    breath_band_hz: tuple[float, float] = (300.0, 2000.0)
    silent_pauses_per_minute: float = 2.0
    silence_level_db: float = -60.0
    pause_margin_ms: float = 200.0
    sample_rate: int = CANONICAL_RATE
    name: Optional[str] = None
    speaker_id: Optional[str] = None
    outlet: Optional[str] = None

    def __post_init__(self):
        if not 0 < self.duration_ms <= MAX_DURATION_MS:
            raise ConfigError(f"duration_ms must be positive and at most {MAX_DURATION_MS:g}, got {self.duration_ms}")
        if not 0 <= self.breaths_per_minute < math.inf:
            raise ConfigError("breaths_per_minute must be >= 0 and finite")
        lo, hi = self.breath_duration_ms
        if not (0 < lo <= hi):
            raise ConfigError(f"invalid breath duration range ({lo}, {hi})")
        flo, fhi = self.breath_band_hz
        if not (0 <= flo < fhi <= self.sample_rate / 2):
            raise ConfigError(f"breath band ({flo}, {fhi}) must lie within (0, Nyquist)")

    @property
    def label(self) -> str:
        return "real" if self.breaths_per_minute > 0 else "fake"


def _db_to_amp(db: float) -> float:
    return 10.0 ** (db / 20.0)


def _bandpass_burst(rng: np.random.Generator, length: int, band_hz, sample_rate: int, rms: float) -> np.ndarray:
    """Gaussian noise brick-walled to `band_hz`, RMS-normalized, 10 ms fades."""
    noise = rng.standard_normal(length)
    spectrum = np.fft.rfft(noise)
    freqs = np.fft.rfftfreq(length, d=1.0 / sample_rate)
    spectrum[(freqs < band_hz[0]) | (freqs > band_hz[1])] = 0.0
    burst = np.fft.irfft(spectrum, n=length)
    actual = float(np.sqrt(np.mean(burst**2)))
    if actual > 0:
        burst *= rms / actual
    fade = min(int(FADE_MS * sample_rate / 1000.0), length // 2)
    if fade > 0:
        ramp = np.linspace(0.0, 1.0, fade, endpoint=False)
        burst[:fade] *= ramp
        burst[-fade:] *= ramp[::-1]
    return burst


def synthesize_one(config: SynthesisConfig) -> tuple[AudioBuffer, BreathIntervalSet]:
    """Render one file and its exact ground-truth breath intervals."""
    sr = config.sample_rate
    n = int(round(config.duration_ms * sr / 1000.0))
    rng = np.random.default_rng(config.rng_seed)
    minutes = config.duration_ms / 60000.0

    num_breaths = int(round(config.breaths_per_minute * minutes))
    num_silent = int(round(config.silent_pauses_per_minute * minutes))
    kinds = ["breath"] * num_breaths + ["silent"] * num_silent
    if kinds:
        kinds = [kinds[i] for i in rng.permutation(len(kinds))]

    margin = int(round(config.pause_margin_ms * sr / 1000.0))
    dur_lo, dur_hi = config.breath_duration_ms

    speech_amp = _db_to_amp(config.speech_band_level_db)
    floor_amp = _db_to_amp(config.silence_level_db)
    breath_rms = _db_to_amp(config.breath_band_level_db)

    # bursts are kept at their own length and added into the samples at
    # the end, so a long file peaks at two full-length arrays: the
    # envelope and the samples
    envelope = np.full(n, speech_amp)
    bursts: list[tuple[int, np.ndarray]] = []
    breath_spans: list[tuple[int, int]] = []

    num_events = len(kinds)
    for i, kind in enumerate(kinds):
        slot_start = (i * n) // num_events
        slot_end = ((i + 1) * n) // num_events
        event_ms = float(rng.uniform(dur_lo, dur_hi))
        event_len = int(round(event_ms * sr / 1000.0))
        pause_len = event_len + 2 * margin
        slack = (slot_end - slot_start) - pause_len
        if slack < 0:
            raise ConfigError(
                f"infeasible synthesis config: {num_events} events of up to "
                f"{dur_hi + 2 * config.pause_margin_ms:.0f} ms do not fit in {config.duration_ms:.0f} ms"
            )
        pause_start = slot_start + int(rng.integers(0, slack + 1))
        envelope[pause_start : pause_start + pause_len] = floor_amp
        if kind == "breath":
            a = pause_start + margin
            bursts.append((a, _bandpass_burst(rng, event_len, config.breath_band_hz, sr, breath_rms)))
            breath_spans.append((a, a + event_len))

    # 10 ms linear ramps at envelope discontinuities to avoid clicks
    fade = int(FADE_MS * sr / 1000.0)
    if fade > 1:
        edges = np.flatnonzero(envelope[1:] != envelope[:-1])
        for e in edges:
            lo = max(0, e + 1 - fade // 2)
            hi = min(n, e + 1 + fade // 2)
            envelope[lo:hi] = np.linspace(envelope[lo], envelope[hi - 1], hi - lo)

    samples = rng.standard_normal(n)
    samples *= envelope
    del envelope
    for a, burst in bursts:  # pauses never overlap, so neither do bursts
        samples[a : a + burst.size] += burst
    peak = max(float(samples.max()), -float(samples.min())) if n else 0.0
    if peak > 0.99:
        samples *= 0.99 / peak

    intervals = BreathIntervalSet(
        [(a * 1000.0 / sr, b * 1000.0 / sr) for a, b in breath_spans],
        total_duration_ms=n * 1000.0 / sr,
    )
    return AudioBuffer(samples, sr), intervals


def synthesize_corpus(
    configs: list[SynthesisConfig],
) -> tuple[list[AudioBuffer], list[BreathIntervalSet], list[ManifestEntry]]:
    """Render a corpus and a manifest describing it.

    Manifest sources/annotation paths are relative file names; callers
    that persist the corpus write `<id>.wav` / `<id>.tsv` next to the
    manifest.
    """
    buffers, interval_sets, entries = [], [], []
    for i, config in enumerate(configs):
        buf, ivals = synthesize_one(config)
        file_id = config.name or f"synth-{i:04d}"
        buffers.append(buf)
        interval_sets.append(ivals)
        entries.append(
            ManifestEntry(
                id=file_id,
                source=f"{file_id}.wav",
                label=config.label,
                speaker_id=config.speaker_id,
                outlet=config.outlet or "synthetic",
                duration_ms=buf.duration_ms,
                annotation_path=f"{file_id}.tsv",
            )
        )
    return buffers, interval_sets, entries
