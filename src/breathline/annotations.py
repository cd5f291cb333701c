"""Breath intervals and their conversion to frame / output-step labels.

Annotations travel as Audacity-style label tracks (TSV rows of
`start_seconds<TAB>end_seconds<TAB>label`); internally intervals are
millisecond pairs, sorted, non-overlapping, and merged when touching.
A frame counts as breath when more than half of its analysis window is
covered; the same strict-majority rule lifts frame labels to 50 ms
output steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

BREATH_LABEL = "breath"


@dataclass
class BreathIntervalSet:
    """Sorted, disjoint (start_ms, end_ms) intervals within a recording."""

    intervals: list[tuple[float, float]]
    total_duration_ms: float

    def __post_init__(self):
        if self.total_duration_ms <= 0:
            raise ValidationError(f"total_duration_ms must be positive, got {self.total_duration_ms}")
        ivals = [(float(s), float(e)) for s, e in self.intervals]
        for s, e in ivals:
            if not (s < e):
                raise ValidationError(f"interval ({s}, {e}) is empty or reversed")
            if s < 0 or e > self.total_duration_ms + 1e-9:
                raise ValidationError(
                    f"interval ({s}, {e}) outside [0, {self.total_duration_ms}]"
                )
        ivals.sort()
        merged: list[tuple[float, float]] = []
        for s, e in ivals:
            if merged and s < merged[-1][1]:
                raise ValidationError(f"interval ({s}, {e}) overlaps ({merged[-1][0]}, {merged[-1][1]})")
            if merged and s == merged[-1][1]:  # touching intervals merge
                merged[-1] = (merged[-1][0], e)
            else:
                merged.append((s, e))
        self.intervals = merged

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def durations_ms(self) -> np.ndarray:
        return np.array([e - s for s, e in self.intervals], dtype=np.float64)

    def gaps_ms(self) -> np.ndarray:
        """Gaps between consecutive intervals (end -> next start)."""
        return np.array(
            [self.intervals[i + 1][0] - self.intervals[i][1] for i in range(len(self.intervals) - 1)],
            dtype=np.float64,
        )


def load_annotations(path, total_duration_ms: float) -> BreathIntervalSet:
    """Parse an Audacity label track, keeping rows labeled 'breath'.

    Overlapping or reversed intervals raise a ValidationError that lists
    the offending line numbers.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not a UTF-8 label track: {exc}") from exc
    rows = []
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise ValidationError(f"{path}:{lineno}: expected start<TAB>end<TAB>label, got {line!r}")
        label = parts[2].strip() if len(parts) > 2 else BREATH_LABEL
        if label.lower() != BREATH_LABEL:
            continue
        try:
            start_s, end_s = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: non-numeric interval bounds") from exc
        rows.append((lineno, start_s * 1000.0, end_s * 1000.0))

    bad = [str(n) for n, s, e in rows if not (s < e)]
    if bad:
        raise ValidationError(f"{path}: reversed or empty intervals on line(s) {', '.join(bad)}")
    rows.sort(key=lambda r: (r[1], r[2]))
    overlapping = [
        f"{rows[i][0]} and {rows[i + 1][0]}"
        for i in range(len(rows) - 1)
        if rows[i + 1][1] < rows[i][2]
    ]
    if overlapping:
        raise ValidationError(f"{path}: overlapping intervals on line(s) {'; '.join(overlapping)}")
    return BreathIntervalSet([(s, e) for _, s, e in rows], total_duration_ms)


def save_annotations(path, intervals: BreathIntervalSet) -> None:
    """Write intervals as an Audacity label track (seconds, label 'breath')."""
    with open(path, "w", encoding="utf-8") as fh:
        for s, e in intervals:
            fh.write(f"{s / 1000.0:.6f}\t{e / 1000.0:.6f}\t{BREATH_LABEL}\n")


def frames_from_intervals(
    intervals: BreathIntervalSet, window_ms: float, hop_ms: float, num_frames: int
) -> np.ndarray:
    """Label frame t positive iff its window [t*hop, t*hop+window) overlaps
    the interval union by strictly more than window/2."""
    overlap = np.zeros(num_frames, dtype=np.float64)
    for s, e in intervals:
        first = max(0, int(np.floor((s - window_ms) / hop_ms)) + 1)
        last = min(num_frames - 1, int(np.floor(e / hop_ms)))
        if last < first:
            continue
        t = np.arange(first, last + 1, dtype=np.float64)
        starts = t * hop_ms
        overlap[first : last + 1] += np.maximum(
            0.0, np.minimum(e, starts + window_ms) - np.maximum(s, starts)
        )
    return overlap > window_ms / 2.0


def steps_from_frames(frame_labels: np.ndarray, frames_per_step: int = 20) -> np.ndarray:
    """Strict-majority pooling of frame labels into output steps.

    A step is positive iff more than half of the frames it covers are
    positive. The final step may cover fewer frames.
    """
    labels = np.asarray(frame_labels, dtype=bool)
    n = labels.size
    num_steps = -(-n // frames_per_step)
    steps = np.zeros(num_steps, dtype=bool)
    for k in range(num_steps):
        block = labels[k * frames_per_step : (k + 1) * frames_per_step]
        steps[k] = int(block.sum()) * 2 > block.size
    return steps
