"""Turn per-step breath probabilities into breath intervals.

Each model output step covers a fixed span of audio (50 ms by default).
Steps at or above the binarization threshold form runs; runs shorter
than the minimum breath duration are discarded because no annotated
breath was ever that short.

`DetectionJob` gets those probabilities from a recording in tasks that
any thread may run: it fills each `predict_file` batch's feature rows
in pieces of `PIECE_BLOCKS` feature blocks, reading only their samples,
and the piece that completes a batch runs it. Memory in flight is the
units being filled or scored, whatever the recording's length.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .annotations import BreathIntervalSet
from .audio_io import AudioBuffer, WavSource
from .errors import ConfigError
from .features import BLOCK_FRAMES, fill_feature_rows
from .nn.model import BATCH_CHUNKS

MIN_BREATH_MS = 150.0
# feature blocks per piece of a detection unit, the detection pool's
# smallest task: 25 blocks are 16 s at the defaults, so a unit of 100
# blocks is four pieces, and the last, partial unit still spreads its
# features over the pool
PIECE_BLOCKS = 25


@dataclass(frozen=True)
class DetectionConfig:
    binarize_threshold: float = 0.5
    step_ms: float = 50.0
    min_breath_ms: float = MIN_BREATH_MS

    def __post_init__(self):
        if not 0.0 < self.binarize_threshold < 1.0:
            raise ConfigError(f"binarize_threshold must be in (0, 1), got {self.binarize_threshold}")
        if not 0 < self.step_ms < math.inf:
            raise ConfigError("step_ms must be positive and finite")
        if not 0 <= self.min_breath_ms < math.inf:
            raise ConfigError("min_breath_ms must be >= 0 and finite")


def slices_to_intervals(probabilities: np.ndarray, config: DetectionConfig = DetectionConfig()) -> BreathIntervalSet:
    """Binarize step probabilities and keep runs of at least min_breath_ms.

    A step is positive when its probability is >= binarize_threshold. A
    run of k consecutive positive steps starting at step i becomes the
    interval [i*step_ms, (i+k)*step_ms); a run survives iff its duration
    is >= min_breath_ms (150 ms itself is kept).
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    total = probs.size * config.step_ms
    positive = probs >= config.binarize_threshold
    intervals = []
    edges = np.flatnonzero(np.diff(np.concatenate([[False], positive, [False]])))
    for start, end in zip(edges[::2], edges[1::2]):
        duration = (end - start) * config.step_ms
        if duration >= config.min_breath_ms:
            intervals.append((start * config.step_ms, end * config.step_ms))
    return BreathIntervalSet(intervals, total_duration_ms=total)


class DetectionJob:
    """One recording's detection in pieces, which may run in any order and
    on any thread; `intervals` once all have run. Unit i is one
    `predict_file` batch, frames [i*U, (i+1)*U) with U = BATCH_CHUNKS x
    chunk_frames: a whole number of chunks, so its chunks, batches and
    steps are the ones `predict_file` makes of the whole file. A unit's
    feature rows are filled in pieces of up to PIECE_BLOCKS feature blocks,
    read from `audio` (a `WavSource` or an `AudioBuffer`), and the piece
    that ends a unit runs its batch. `detection_config.step_ms` must be the
    model's step."""

    def __init__(self, model, audio: AudioBuffer | WavSource, detection_config: DetectionConfig = DetectionConfig()):
        if detection_config.step_ms != model.config.step_ms:
            raise ConfigError(f"step_ms={detection_config.step_ms} is not the detector's step, {model.config.step_ms} ms")
        self.model, self.audio, self.detection_config = model, audio, detection_config
        model.config.features.window_samples(audio.sample_rate)  # checked, as extract_features does
        self.num_frames = audio.num_samples // model.config.features.hop_samples(audio.sample_rate)
        self.unit_frames = BATCH_CHUNKS * model.config.chunk_frames
        piece = PIECE_BLOCKS * BLOCK_FRAMES
        self.pieces = []  # (first frame, end frame) of every piece, unit by unit
        self._left = []  # per unit, its pieces not yet filled
        for start in range(0, self.num_frames, self.unit_frames):
            end = min(start + self.unit_frames, self.num_frames)
            spans = [(lo, min(lo + piece, end)) for lo in range(start, end, piece)]
            self.pieces += spans
            self._left.append(len(spans))
        self.probabilities = np.empty(-(-self.num_frames // model.config.frames_per_step))
        self._rows = {}  # unit -> its float32 feature rows, from its first piece to its batch
        self._lock = threading.Lock()

    def run_piece(self, index: int) -> None:
        lo, hi = self.pieces[index]
        unit = lo // self.unit_frames
        start = unit * self.unit_frames
        with self._lock:
            if unit not in self._rows:
                frames = min(self.unit_frames, self.num_frames - start)
                self._rows[unit] = np.empty((frames, self.model.config.input_dim), np.float32)
            rows = self._rows[unit]
        fill_feature_rows(rows[lo - start : hi - start], self.audio, self.model.config.features, lo)
        with self._lock:
            self._left[unit] -= 1
            if self._left[unit]:
                return
            del self._rows[unit]
        steps = self.model.predict_file(rows)
        first = start // self.model.config.frames_per_step
        self.probabilities[first : first + len(steps)] = steps

    def intervals(self) -> BreathIntervalSet:
        """The intervals of the probabilities, clipped to the recording: the
        last step can run past its end (the last chunk is zero-padded)."""
        raw = slices_to_intervals(self.probabilities, self.detection_config)
        duration = self.audio.duration_ms
        return BreathIntervalSet([(s, min(e, duration)) for s, e in raw if s < duration], total_duration_ms=duration)


def detect_breaths(model, audio: AudioBuffer, detection_config: DetectionConfig = DetectionConfig()) -> BreathIntervalSet:
    """Features -> framewise model -> intervals for one buffer, one
    `DetectionJob` piece after another."""
    job = DetectionJob(model, audio, detection_config)
    for index in range(len(job.pieces)):
        job.run_piece(index)
    return job.intervals()
