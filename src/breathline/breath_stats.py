"""Sample-level breath statistics.

Three numbers summarize a file's detected breaths: average breaths per
minute, average breath duration, and average spacing (end-to-next-start
gap) between consecutive breaths. Degenerate cases are pinned so the
thresholding classifier stays well-defined: no breaths gives (0, 0, 0)
and a single breath has spacing 0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .annotations import BreathIntervalSet
from .errors import InputError

STATS_FIELDS = ["id", "label", "bpm", "avg_duration_ms", "avg_spacing_ms"]


@dataclass(frozen=True)
class BreathStats:
    avg_breaths_per_minute: float
    avg_breath_duration_ms: float
    avg_spacing_ms: float

    def __post_init__(self):
        values = self.as_array()
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise InputError(f"breath stats must be finite and non-negative, got {values}")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.avg_breaths_per_minute, self.avg_breath_duration_ms, self.avg_spacing_ms]
        )


def compute_stats(intervals: BreathIntervalSet, total_duration_ms: float) -> BreathStats:
    if total_duration_ms <= 0:
        raise InputError(f"total_duration_ms must be positive, got {total_duration_ms}")
    count = len(intervals)
    if count == 0:
        return BreathStats(0.0, 0.0, 0.0)
    bpm = count / (total_duration_ms / 60000.0)
    duration = float(np.mean(intervals.durations_ms()))
    gaps = intervals.gaps_ms()
    spacing = float(np.mean(gaps)) if gaps.size else 0.0
    return BreathStats(bpm, duration, spacing)


def save_stats_csv(path, rows: list[tuple[str, str, BreathStats]]) -> None:
    """Rows are (id, label, stats); written in the given order."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(STATS_FIELDS)
        for file_id, label, stats in rows:
            writer.writerow(
                [
                    file_id,
                    label,
                    f"{stats.avg_breaths_per_minute:.6g}",
                    f"{stats.avg_breath_duration_ms:.6g}",
                    f"{stats.avg_spacing_ms:.6g}",
                ]
            )
