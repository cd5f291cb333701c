"""Ranking metrics, confusion-count metrics, and report serialization."""

import csv
import json

import numpy as np
import pytest
from oracles import enum_auprc, enum_eer

from breathline.errors import InputError, UndefinedMetricError
from breathline.metrics import (
    EvalReport,
    ScoredPredictions,
    auprc,
    counts_to_metrics,
    eer,
    point_metrics,
    save_report,
    save_scores_csv,
)


def _scored(scores, truths):
    return ScoredPredictions(scores=np.asarray(scores, dtype=float), truths=np.asarray(truths))


def test_perfect_ranking():
    sp = _scored([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert auprc(sp) == 1.0
    assert eer(sp) == 0.0


def test_constant_scores_give_prevalence():
    sp = _scored(np.full(10, 0.5), [1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    assert auprc(sp) == pytest.approx(0.3)
    assert eer(sp) == pytest.approx(0.5)


def test_frozen_five_point_example():
    sp = _scored([0.9, 0.8, 0.7, 0.6, 0.5], [1, 0, 1, 1, 0])
    assert auprc(sp) == 29.0 / 36.0
    assert eer(sp) == pytest.approx(0.5)


def test_anti_ranking():
    sp = _scored([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
    assert eer(sp) == pytest.approx(1.0)


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        truths = rng.integers(0, 2, n)
        if truths.all() or not truths.any():
            continue
        scores = np.round(rng.uniform(size=n), 2)  # coarse grid forces ties
        sp = _scored(scores, truths)
        assert auprc(sp) == enum_auprc(scores.tolist(), truths.tolist())
        assert abs(eer(sp) - enum_eer(scores.tolist(), truths.tolist())) < 1e-9


def test_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    scores = rng.uniform(size=40)
    truths = rng.integers(0, 2, 40)
    truths[0], truths[1] = 1, 0
    base = _scored(scores, truths)
    squashed = _scored(1.0 / (1.0 + np.exp(-7.0 * scores)), truths)
    assert auprc(base) == pytest.approx(auprc(squashed), abs=1e-12)
    assert eer(base) == pytest.approx(eer(squashed), abs=1e-12)


def test_relabel_swap_changes_view():
    scores = np.array([0.9, 0.7, 0.4, 0.2])
    truths = np.array([1, 1, 0, 0])
    swapped = _scored(1.0 - scores, 1 - truths)
    assert auprc(swapped) == 1.0
    assert eer(swapped) == 0.0


def test_single_class_is_undefined():
    with pytest.raises(UndefinedMetricError):
        auprc(_scored([0.5, 0.4], [1, 1]))
    with pytest.raises(UndefinedMetricError):
        eer(_scored([0.5, 0.4], [0, 0]))


def test_scored_predictions_validation():
    with pytest.raises(InputError):
        ScoredPredictions(scores=np.array([0.5]), truths=np.array([1, 0]))
    with pytest.raises(InputError):
        ScoredPredictions(scores=np.array([np.nan, 0.1]), truths=np.array([1, 0]))


def test_count_metrics_reference_rows():
    row = counts_to_metrics(205, 0, 27, 0)
    assert (row.accuracy, row.precision, row.recall, row.f1) == (1.0, 1.0, 1.0, 1.0)
    assert row.flags == ()

    row = counts_to_metrics(71, 5, 24, 1)
    assert row.precision == pytest.approx(71.0 / 76.0)
    assert row.recall == pytest.approx(71.0 / 72.0)
    assert row.accuracy == pytest.approx(95.0 / 101.0)


def test_zero_denominators_flagged():
    row = counts_to_metrics(0, 0, 10, 0)
    assert row.precision == 0.0 and row.recall == 0.0 and row.f1 == 0.0
    assert "precision_zero_denominator" in row.flags
    assert "recall_zero_denominator" in row.flags


def test_point_metrics_from_booleans():
    pred = np.array([True, True, False, False])
    truth = np.array([True, False, True, False])
    row = point_metrics(pred, truth)
    assert (row.tp, row.fp, row.fn, row.tn) == (1, 1, 1, 1)
    with pytest.raises(InputError):
        point_metrics(np.array([True]), np.array([True, False]))


def test_eval_report_validation():
    pm = counts_to_metrics(2, 1, 1, 0)
    with pytest.raises(InputError):
        EvalReport("d", "m", "c", "real", 5, pm)  # counts sum to 4
    with pytest.raises(InputError):
        EvalReport("d", "m", "c", "real", 4, pm, auprc=1.5)
    with pytest.raises(InputError):
        EvalReport("d", "m", "c", "real", 4, pm, eer=-0.1)


def test_report_roundtrip(tmp_path):
    pm = counts_to_metrics(2, 1, 1, 0)
    rep = EvalReport("news-v1", "svc", "abc123", "real", 4, pm, auprc=0.9, eer=0.1, extra={"folds": 5})
    path = tmp_path / "report.json"
    save_report(path, rep)
    back = json.loads(path.read_text())
    assert back["dataset_id"] == "news-v1"
    assert back["point"]["tp"] == 2
    assert back["auprc"] == 0.9
    assert back["extra"] == {"folds": 5}


def test_scores_csv_roundtrip(tmp_path):
    sp = ScoredPredictions(
        scores=np.array([0.25, 1.0 / 3.0, 0.75]),
        truths=np.array([0, 1, 1]),
        ids=["a", "b", "c"],
    )
    path = tmp_path / "scores.csv"
    save_scores_csv(path, sp)
    with open(path, newline="") as f:
        header, *rows = list(csv.reader(f))
    assert header == ["id", "score", "truth"]
    assert [row[0] for row in rows] == ["a", "b", "c"]
    np.testing.assert_array_equal([float(row[1]) for row in rows], sp.scores)  # repr round trip is exact
    assert [row[2] for row in rows] == ["0", "1", "1"]
