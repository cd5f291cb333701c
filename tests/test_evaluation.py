"""Experiment folds, outlet-disjoint splitting, and the pipeline evaluation."""

import dataclasses
import json
import multiprocessing
import os
import shutil
import time

import numpy as np
import pytest

from breathline.errors import ConfigError, InputError, TrainingError, ValidationError
from breathline import evaluation
from breathline.evaluation import (
    ExperimentResult,
    SplitPlan,
    detect_manifest,
    digest_config,
    digest_model_params,
    fold_seed,
    outlet_disjoint_split,
    parse_experiment_config,
    run_pipeline_eval,
)
from breathline.evaluation import test1_contiguous_kfold as contiguous_kfold
from breathline.evaluation import test2_leave_one_podcast as leave_one_podcast
from breathline.evaluation import test3_leave_one_speaker as leave_one_speaker
from breathline.manifest import load_manifest
from breathline.nn import BreathDetectorModel, ModelConfig, TrainConfig, train
from breathline.postprocess import DetectionConfig

FAST_MODEL = ModelConfig(lstm_units=8, seed=0)
FAST_TRAIN = TrainConfig(epochs=2, seed=0)


def test_fold_seed_is_distinct_per_fold():
    assert fold_seed(0, 0) == 1
    seeds = [fold_seed(7, i) for i in range(10)]
    assert len(set(seeds)) == 10


def test_config_digest_is_stable():
    a = digest_config({"x": 1, "y": [2, 3]})
    b = digest_config({"y": [2, 3], "x": 1})
    assert a == b and len(a) == 16
    assert digest_config({"x": 2, "y": [2, 3]}) != a


def test_model_param_digest():
    small = ModelConfig(
        n_mels=4, conv_filters=(4, 3), conv_kernels=(3, 1), pool_strides=(4, 5),
        lstm_units=4, chunk_frames=40, seed=0,
    )
    assert digest_model_params(BreathDetectorModel(small)) == digest_model_params(BreathDetectorModel(small))
    other = dataclasses.replace(small, seed=1)
    assert digest_model_params(BreathDetectorModel(other)) != digest_model_params(BreathDetectorModel(small))


def test_fold_models_are_freshly_initialized():
    # two folds of the same experiment must not share parameters
    small = ModelConfig(
        n_mels=4, conv_filters=(4, 3), conv_kernels=(3, 1), pool_strides=(4, 5),
        lstm_units=4, chunk_frames=40, seed=0,
    )
    rng = np.random.default_rng(0)
    digests = []
    for fold in range(2):
        model = BreathDetectorModel(dataclasses.replace(small, seed=fold_seed(3, fold)))
        items = [(rng.normal(size=(80, 6)), rng.uniform(size=80) < 0.3)]
        train(model, items, TrainConfig(epochs=1, seed=fold_seed(3, fold)))
        digests.append(digest_model_params(model))
    assert digests[0] != digests[1]


def test_test1_reproducible_iterations(frame_corpus):
    result = contiguous_kfold(frame_corpus, FAST_MODEL, FAST_TRAIN, iterations=2, seed=5)
    assert result.experiment == "test1"
    assert result.fold_labels == ["0", "1"]
    assert len(result.values) == 2
    assert all(0.0 <= v <= 1.0 for v in result.values)
    again = contiguous_kfold(frame_corpus, FAST_MODEL, FAST_TRAIN, iterations=2, seed=5)
    assert result.values == again.values
    other = contiguous_kfold(frame_corpus, FAST_MODEL, FAST_TRAIN, iterations=2, seed=6)
    assert result.values != other.values
    assert result.to_dict()["mean"] == pytest.approx(np.mean(result.values))


def test_test1_rejects_bad_iteration_count(frame_corpus):
    with pytest.raises(ConfigError):
        contiguous_kfold(frame_corpus, FAST_MODEL, FAST_TRAIN, iterations=0)


def test_test2_one_fold_per_podcast(frame_corpus):
    result = leave_one_podcast(frame_corpus, FAST_MODEL, FAST_TRAIN, seed=1)
    assert result.fold_labels == [item.id for item in frame_corpus]
    assert len(result.values) == len(frame_corpus)

    with pytest.raises(ConfigError, match="at least 2"):
        leave_one_podcast(frame_corpus[:1], FAST_MODEL, FAST_TRAIN)


def test_test2_holds_out_by_position(frame_corpus, monkeypatch):
    # a second item with the same id is still its own fold
    trained_on = []

    def record(train_pairs, val_features, model_config, train_config, seed):
        trained_on.append(len(train_pairs))
        return [BreathDetectorModel(model_config).predict_file(features) for features in val_features]

    # folds run inline at one CPU, so the parent-side job function is the one called
    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(evaluation, "fit_and_predict", record)
    items = frame_corpus + [dataclasses.replace(frame_corpus[0])]
    result = leave_one_podcast(items, FAST_MODEL, FAST_TRAIN)
    assert trained_on == [len(items) - 1] * len(items)
    assert result.fold_labels == [item.id for item in items]


def test_test2_duplicate_podcast_scores_at_least_mean(frame_corpus):
    twin = dataclasses.replace(frame_corpus[0], id="twin")
    result = leave_one_podcast(frame_corpus + [twin], FAST_MODEL, TrainConfig(epochs=6, seed=0), seed=2)
    twin_value = result.values[result.fold_labels.index("twin")]
    assert twin_value >= result.mean - 1e-12


def _blas_vars():
    return {name: os.environ.get(name) for name in evaluation.BLAS_THREAD_VARS}


@pytest.fixture
def mixed_blas_env(monkeypatch):
    """One thread variable set, the others unset."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    return _blas_vars()


def test_fold_results_do_not_depend_on_worker_count(frame_corpus, monkeypatch, mixed_blas_env):
    results = {}
    for cpus in (1, 2):
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: cpus)
        results[cpus] = json.dumps([
            contiguous_kfold(frame_corpus, FAST_MODEL, FAST_TRAIN, iterations=3, seed=5).to_dict(),
            leave_one_podcast(frame_corpus, FAST_MODEL, FAST_TRAIN, seed=1).to_dict(),
            leave_one_speaker(frame_corpus, FAST_MODEL, FAST_TRAIN, seed=3).to_dict(),
        ])
        assert multiprocessing.active_children() == []
        assert _blas_vars() == mixed_blas_env
    assert results[1] == results[2]


def test_single_threaded_blas_restores_the_environment(mixed_blas_env):
    with evaluation._single_threaded_blas():
        assert set(_blas_vars().values()) == {"1"}
    assert _blas_vars() == mixed_blas_env
    with pytest.raises(KeyError), evaluation._single_threaded_blas():
        raise KeyError("inside")
    assert _blas_vars() == mixed_blas_env


def test_fold_errors_keep_their_type_across_processes(frame_corpus, monkeypatch):
    # every podcast is shorter than one training chunk
    short = [dataclasses.replace(item, features=item.features[:100], frame_labels=item.frame_labels[:100])
             for item in frame_corpus]
    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 2)
    with pytest.raises(TrainingError, match="long enough for a 800-frame chunk"):
        leave_one_podcast(short, FAST_MODEL, FAST_TRAIN)
    assert multiprocessing.active_children() == []


def _fail_first_fold(train_pairs, val_features, model_config, train_config, seed):
    # every other fold leaves a mark in $FOLD_MARKS and takes a while
    if seed == fold_seed(0, 0):
        raise TrainingError("first fold failed")
    time.sleep(0.5)
    with open(os.path.join(os.environ["FOLD_MARKS"], str(seed)), "w"):
        pass
    return [np.full(-(-len(features) // model_config.frames_per_step), 0.5) for features in val_features]


def test_first_failing_fold_cancels_the_pending_ones(frame_corpus, monkeypatch, tmp_path):
    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(evaluation, "fit_and_predict", _fail_first_fold)
    monkeypatch.setenv("FOLD_MARKS", str(tmp_path))
    iterations = 12
    with pytest.raises(TrainingError, match="first fold failed"):
        contiguous_kfold(frame_corpus, FAST_MODEL, FAST_TRAIN, iterations=iterations, seed=0)
    assert multiprocessing.active_children() == []
    # the folds already handed to a worker finish; the rest never start
    assert len(os.listdir(tmp_path)) < iterations // 2


def test_test3_one_fold_per_speaker(frame_corpus):
    result = leave_one_speaker(frame_corpus, FAST_MODEL, FAST_TRAIN, seed=3)
    speakers = sorted({item.speaker_id for item in frame_corpus})
    assert result.fold_labels == speakers
    assert len(result.values) == len(speakers)

    mono = [dataclasses.replace(item, speaker_id="only") for item in frame_corpus]
    with pytest.raises(ConfigError, match="at least 2"):
        leave_one_speaker(mono, FAST_MODEL, FAST_TRAIN)


def test_test3_names_every_item_without_a_speaker(frame_corpus):
    items = [dataclasses.replace(item, speaker_id=None) if i != 1 else item for i, item in enumerate(frame_corpus)]
    with pytest.raises(InputError) as exc:
        leave_one_speaker(items, FAST_MODEL, FAST_TRAIN)
    message = str(exc.value)
    assert frame_corpus[0].id in message and frame_corpus[2].id in message
    assert frame_corpus[1].id not in message


def test_outlet_split_two_by_two(news_dir):
    entries = load_manifest(news_dir / "manifest.csv")
    split = outlet_disjoint_split(entries, seed=4)
    assert not set(split.train_ids) & set(split.test_ids)
    assert not set(split.train_outlets) & set(split.test_outlets)
    # 2 real + 2 fake outlets: each side gets one of each
    labels = {entry.outlet: entry.label for entry in entries}
    for side in (split.train_outlets, split.test_outlets):
        assert len(side) == 2
        assert {labels[o] for o in side} == {"real", "fake"}
    assert set(split.train_ids) | set(split.test_ids) == {entry.id for entry in entries}
    # each side keeps the manifest's order
    order = [entry.id for entry in entries]
    assert split.train_ids == [i for i in order if i in split.train_ids]
    assert split.test_ids == [i for i in order if i in split.test_ids]

    again = outlet_disjoint_split(entries, seed=4)
    assert (again.train_ids, again.test_ids) == (split.train_ids, split.test_ids)


def test_outlet_split_needs_two_outlets(news_dir):
    mono = [dataclasses.replace(e, outlet="one") for e in load_manifest(news_dir / "manifest.csv")]
    with pytest.raises(ConfigError):
        outlet_disjoint_split(mono)


def test_outlet_split_names_every_unlabeled_entry(news_dir):
    entries = load_manifest(news_dir / "manifest.csv")
    # a whole outlet of unlabeled entries, and one inside a real outlet
    unlabeled = [e.id for e in entries if e.outlet == "tts0"] + [entries[0].id]
    entries = [dataclasses.replace(e, label="unlabeled") if e.id in unlabeled else e for e in entries]
    with pytest.raises(InputError) as exc:
        outlet_disjoint_split(entries)
    assert all(i in str(exc.value) for i in unlabeled)


def test_split_plan_rejects_overlap():
    with pytest.raises(ValidationError):
        SplitPlan(train_ids=["a", "b"], test_ids=["b"], strategy="s", rng_seed=0)
    with pytest.raises(ValidationError):
        SplitPlan(
            train_ids=["a"], test_ids=["b"], strategy="s", rng_seed=0,
            train_outlets=["x"], test_outlets=["x"],
        )


def _news_rows(model, news_dir):
    rows, errors = detect_manifest(model, news_dir / "manifest.csv", DetectionConfig())
    assert errors == {}
    return rows


def _news_split(news_dir):
    return outlet_disjoint_split(load_manifest(news_dir / "manifest.csv"), seed=0)


def test_pipeline_eval_threshold(news_dir, detector):
    model, _ = detector
    split = _news_split(news_dir)
    rows = _news_rows(model, news_dir)
    result = run_pipeline_eval(rows, split, "threshold", model, dataset_id="manifest.csv")
    report = result.report
    assert report.dataset_id == "manifest.csv"
    assert report.positive_label == "real"
    assert report.num_samples == len(split.test_ids)
    assert report.auprc is None and result.scored is None
    assert report.extra["outlet_overlap"] == 0
    assert report.extra["train_size"] == len(split.train_ids)
    assert len(rows) == len(split.train_ids) + len(split.test_ids)
    point = report.point
    assert point.tp + point.fp + point.tn + point.fn == report.num_samples


def test_pipeline_eval_svc_tree_and_kwargs(news_dir, detector):
    model, _ = detector
    split = _news_split(news_dir)
    rows = _news_rows(model, news_dir)
    first = run_pipeline_eval(rows, split, "svc", model, classifier_kwargs={"coef0": 1.0})
    assert first.scored is not None
    assert first.report.auprc is not None and first.report.eer is not None

    default = run_pipeline_eval(rows, split, "svc", model)
    assert default.report.config_digest != first.report.config_digest

    tree = run_pipeline_eval(rows, split, "tree", model)
    assert tree.scored is not None and tree.classifier_model is not None

    with pytest.raises(ConfigError):
        run_pipeline_eval(rows, split, "forest", model)


def test_pipeline_eval_needs_stats_for_every_split_id(news_dir, detector):
    model, _ = detector
    split = _news_split(news_dir)
    rows = [row for row in _news_rows(model, news_dir) if row[0].id != split.test_ids[0]]
    with pytest.raises(InputError, match=split.test_ids[0]):
        run_pipeline_eval(rows, split, "threshold", model)


def test_detect_manifest_collects_every_failure(tmp_path, news_dir, detector):
    model, _ = detector
    shutil.copytree(news_dir, tmp_path / "news")
    (tmp_path / "news" / "fake-0003.wav").write_bytes(b"RIFFnot-audio")
    (tmp_path / "news" / "real-0001.wav").unlink()
    manifest = tmp_path / "news" / "manifest.csv"
    rows, errors = detect_manifest(model, manifest, DetectionConfig(), workers=2)
    assert sorted(errors) == ["fake-0003", "real-0001"]
    ids = [entry.id for entry, _, _ in rows]
    assert ids == sorted(ids) and len(ids) == 14
    assert detect_manifest(model, manifest, DetectionConfig(), workers=1) == (rows, errors)
    with pytest.raises(ConfigError):
        detect_manifest(model, manifest, DetectionConfig(), workers=0)


def test_parse_experiment_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# pipeline experiment\n"
        "experiment = test1\n"
        "iterations = 5   # per-podcast blocks\n"
        "seed = 3\n"
        "learning_rate = 0.001\n"
        "\n"
    )
    assert parse_experiment_config(path) == {
        "experiment": "test1",
        "iterations": 5,
        "seed": 3,
        "learning_rate": 0.001,
    }

    bad = tmp_path / "bad.cfg"
    bad.write_text("iterations = 5\nwat\n")
    with pytest.raises(ConfigError, match=":2:"):
        parse_experiment_config(bad)
    bad.write_text("volume = 11\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_experiment_config(bad)
    bad.write_text("iterations = many\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_experiment_config(bad)


def test_experiment_result_stats():
    result = ExperimentResult("test2", ["a", "b"], [0.8, 0.6], seed=0)
    assert result.mean == pytest.approx(0.7)
    assert result.std == pytest.approx(0.1)
    d = result.to_dict()
    assert d["values"] == [0.8, 0.6] and d["seed"] == 0
