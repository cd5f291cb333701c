"""Ranking and point metrics plus report serialization.

AUPRC uses the step-wise (right-continuous) precision-recall area with
tied scores grouped into one operating point, and EER interpolates
linearly between adjacent operating points of the threshold sweep. Both
are therefore invariant under strictly increasing score transforms.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InputError, UndefinedMetricError


@dataclass
class ScoredPredictions:
    """Scores with binary truths; higher score means more positive."""

    scores: np.ndarray
    truths: np.ndarray
    ids: Optional[list[str]] = None

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.truths = np.asarray(self.truths, dtype=bool)
        if self.scores.ndim != 1 or self.scores.shape != self.truths.shape:
            raise InputError(
                f"scores and truths must be equal-length vectors, got {self.scores.shape} and {self.truths.shape}"
            )
        if not np.all(np.isfinite(self.scores)):
            raise InputError("scores must be finite")
        if self.ids is not None and len(self.ids) != self.scores.size:
            raise InputError("ids must match the number of scores")


def _sweep_counts(scored: ScoredPredictions) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Cumulative TP/FP after each distinct-score group, scores descending."""
    num_pos = int(scored.truths.sum())
    num_neg = int(scored.truths.size - num_pos)
    if num_pos == 0 or num_neg == 0:
        raise UndefinedMetricError("ranking metrics need at least one sample of each class")
    order = np.argsort(-scored.scores, kind="stable")
    s = scored.scores[order]
    t = scored.truths[order]
    group_ends = np.flatnonzero(np.append(np.diff(s) != 0.0, True))
    tp = np.cumsum(t)[group_ends]
    fp = (group_ends + 1) - tp
    return tp, fp, num_pos, num_neg


def auprc(scored: ScoredPredictions) -> float:
    """Area under the precision-recall curve, step-wise rule."""
    tp, fp, num_pos, _ = _sweep_counts(scored)
    recall = tp / num_pos
    precision = tp / (tp + fp)
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    # fsum: exactly-rounded total, independent of term count
    return math.fsum((recall - prev_recall) * precision)


def eer(scored: ScoredPredictions) -> float:
    """Equal error rate of the threshold sweep (positive iff score >= t).

    Operating points run from (FAR 0, FRR 1) to (FAR 1, FRR 0); where no
    point has FAR == FRR exactly, the crossing is interpolated linearly
    between the two adjacent points.
    """
    tp, fp, num_pos, num_neg = _sweep_counts(scored)
    far = np.concatenate([[0.0], fp / num_neg])
    frr = np.concatenate([[1.0], 1.0 - tp / num_pos])
    diff = far - frr
    k = int(np.argmax(diff >= 0.0))  # first non-negative; diff[0] = -1, diff[-1] >= 0
    if diff[k] == 0.0:
        return float(far[k])
    t = -diff[k - 1] / (diff[k] - diff[k - 1])
    return float(far[k - 1] + t * (far[k] - far[k - 1]))


@dataclass(frozen=True)
class PointMetrics:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    flags: tuple[str, ...] = ()


def counts_to_metrics(tp: int, fp: int, tn: int, fn: int) -> PointMetrics:
    """Standard definitions; zero-denominator precision/recall/F1 are
    reported as 0 with a flag naming the degenerate metric."""
    total = tp + fp + tn + fn
    if total == 0:
        raise InputError("point metrics need at least one sample")
    flags = []
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision = 0.0
        flags.append("precision_zero_denominator")
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall = 0.0
        flags.append("recall_zero_denominator")
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
        flags.append("f1_zero_denominator")
    return PointMetrics(
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        accuracy=(tp + tn) / total,
        precision=precision,
        recall=recall,
        f1=f1,
        flags=tuple(flags),
    )


def point_metrics(predictions, truths) -> PointMetrics:
    """Confusion counts and derived metrics from boolean vectors."""
    pred = np.asarray(predictions, dtype=bool)
    truth = np.asarray(truths, dtype=bool)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise InputError(f"predictions and truths must be equal-length vectors, got {pred.shape} and {truth.shape}")
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    tn = int(np.sum(~pred & ~truth))
    fn = int(np.sum(~pred & truth))
    return counts_to_metrics(tp, fp, tn, fn)


@dataclass
class EvalReport:
    dataset_id: str
    model_id: str
    config_digest: str
    positive_label: str
    num_samples: int
    point: PointMetrics
    auprc: Optional[float] = None
    eer: Optional[float] = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        counts = self.point.tp + self.point.fp + self.point.tn + self.point.fn
        if counts != self.num_samples:
            raise InputError(f"confusion counts sum to {counts}, expected {self.num_samples}")
        for name in ("auprc", "eer"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise InputError(f"{name}={value} outside [0, 1]")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["point"]["flags"] = list(self.point.flags)
        return out


def save_report(path, report: EvalReport) -> None:
    with open(path, "w") as f:
        json.dump(report.to_dict(), f, sort_keys=True, indent=2)
        f.write("\n")


def save_scores_csv(path, scored: ScoredPredictions) -> None:
    """CSV `id,score,truth`; truth is 1 for the positive class. Scores
    are written with repr-style round-trip precision."""
    ids = scored.ids if scored.ids is not None else [str(i) for i in range(scored.scores.size)]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["id", "score", "truth"])
        for sid, score, truth in zip(ids, scored.scores, scored.truths):
            writer.writerow([sid, repr(float(score)), int(truth)])
