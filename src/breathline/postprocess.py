"""Turn per-step breath probabilities into breath intervals.

Each model output step covers a fixed span of audio (50 ms by default).
Steps at or above the binarization threshold form runs; runs shorter
than the minimum breath duration are discarded because no annotated
breath was ever that short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .annotations import BreathIntervalSet
from .audio_io import AudioBuffer
from .errors import ConfigError
from .features import extract_features

MIN_BREATH_MS = 150.0


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


def detect_breaths(model, audio: AudioBuffer, detection_config: DetectionConfig = DetectionConfig()) -> BreathIntervalSet:
    """Features -> framewise model -> intervals, for one audio buffer.

    The features are the ones the model was trained on, and
    `detection_config.step_ms` must be the model's step. The final model
    step can extend past the end of the audio (the last feature chunk is
    zero-padded), so intervals are clipped to the buffer duration.
    """
    if detection_config.step_ms != model.config.step_ms:
        raise ConfigError(f"step_ms={detection_config.step_ms} is not the detector's step, {model.config.step_ms} ms")
    features = extract_features(audio, model.config.features)
    probs = model.predict_file(features.data)
    raw = slices_to_intervals(probs, detection_config)
    duration = audio.duration_ms
    clipped = [(s, min(e, duration)) for s, e in raw if s < duration]
    return BreathIntervalSet(clipped, total_duration_ms=duration)
