"""Experiment folds, outlet-disjoint splitting, and the pipeline evaluation."""

import dataclasses
import json
import multiprocessing
import os
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc

import numpy as np
import pytest

from breathline.annotations import BreathIntervalSet
from breathline.audio_io import AudioBuffer, load_wav, resample, write_wav
from breathline.breath_stats import compute_stats
from breathline.errors import BreathlineError, ConfigError, FormatError, InputError, TrainingError, ValidationError
from breathline import audio_io, cli, evaluation, features, postprocess
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
from breathline.features import extract_features
from breathline.manifest import ManifestEntry, load_manifest, save_manifest
from breathline.nn import BreathDetectorModel, ModelConfig, TrainConfig, train
from breathline.postprocess import DetectionConfig, DetectionJob, slices_to_intervals
from breathline.synth import SynthesisConfig, synthesize_one

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
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 1)
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


def test_fold_results_do_not_depend_on_worker_count(frame_corpus, monkeypatch):
    for dtype in (np.float32, np.float64):
        items = [dataclasses.replace(item, features=item.features.astype(dtype)) for item in frame_corpus]
        results = {}
        for cpus in (1, 2):
            monkeypatch.setattr(evaluation, "usable_cpus", lambda: cpus)
            results[cpus] = json.dumps([
                contiguous_kfold(items, FAST_MODEL, FAST_TRAIN, iterations=3, seed=5).to_dict(),
                leave_one_podcast(items, FAST_MODEL, FAST_TRAIN, seed=1).to_dict(),
                leave_one_speaker(items, FAST_MODEL, FAST_TRAIN, seed=3).to_dict(),
            ])
            assert multiprocessing.active_children() == []
        assert results[1] == results[2], dtype


def test_fold_errors_keep_their_type_across_processes(frame_corpus, monkeypatch):
    # every podcast is shorter than one training chunk
    short = [dataclasses.replace(item, features=item.features[:100], frame_labels=item.frame_labels[:100])
             for item in frame_corpus]
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 2)
    with pytest.raises(TrainingError, match="long enough for a 800-frame chunk"):
        leave_one_podcast(short, FAST_MODEL, FAST_TRAIN)
    assert multiprocessing.active_children() == []


def _constant_scores(train_pairs, val_features, model_config, train_config, seed):
    return [np.full(-(-len(features) // model_config.frames_per_step), 0.5) for features in val_features]


def _fail_first_fold(train_pairs, val_features, model_config, train_config, seed):
    # every other fold leaves a mark in $FOLD_MARKS and takes a while
    if seed == fold_seed(0, 0):
        raise TrainingError("first fold failed")
    time.sleep(0.5)
    with open(os.path.join(os.environ["FOLD_MARKS"], str(seed)), "w"):
        pass
    return _constant_scores(train_pairs, val_features, model_config, train_config, seed)


def test_fold_jobs_do_not_copy_the_corpus(frame_corpus, monkeypatch):
    # forked workers inherit the corpus, so the calling process holds no pickled job
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 2)
    monkeypatch.setattr(evaluation, "fit_and_predict", _constant_scores)
    corpus_bytes = sum(item.features.nbytes + item.frame_labels.nbytes for item in frame_corpus)
    tracemalloc.start()
    try:
        result = leave_one_podcast(frame_corpus, FAST_MODEL, FAST_TRAIN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.values) == len(frame_corpus)
    assert peak < corpus_bytes / 4 + 2**20, (peak, corpus_bytes)


def _received_arrays(train_pairs, val_features, model_config, train_config, seed):
    return [np.array(a) for pair in train_pairs for a in pair] + [np.array(f) for f in val_features]


def test_fold_workers_see_each_span_bit_for_bit(frame_corpus):
    # float64 features that float32 cannot hold, beside float32 features and bool labels
    rng = np.random.default_rng(0)
    corpus = [(item.features, item.frame_labels) for item in frame_corpus]
    corpus.append((rng.normal(size=(50, 3)), rng.uniform(size=50) < 0.5))
    specs = [([(0, 0, 100), (3, 10, 50)], [(1, 5, 60), (3, 0, 50)], 1), ([(2, 0, 8000)], [(3, 49, 50)], 2)]
    jobs = [(_received_arrays, spec, FAST_MODEL, FAST_TRAIN) for spec in specs]
    for inline, mapped in zip([evaluation._fit_spans(*job, corpus) for job in jobs],
                              evaluation._fit_in_processes(corpus, jobs, 2)):
        assert [(a.dtype, a.shape, a.tobytes()) for a in inline] == [(a.dtype, a.shape, a.tobytes()) for a in mapped]
    assert inline[-1].dtype == np.float64 and inline[-1].shape == (1, 3)
    assert multiprocessing.active_children() == []


def _count_temp_files(train_pairs, val_features, model_config, train_config, seed):
    # a running fold notes how many files the calling process's temp dir holds
    count = sum(len(files) for _, _, files in os.walk(os.environ["FOLD_TEMP"]))
    with open(os.path.join(os.environ["FOLD_MARKS"], str(seed)), "w") as f:
        f.write(str(count))
    return _constant_scores(train_pairs, val_features, model_config, train_config, seed)


def _exit_abruptly(*job):
    os._exit(3)


@pytest.mark.parametrize("fit, error", [
    (_count_temp_files, None),
    (_fail_first_fold, "first fold failed"),
    (_exit_abruptly, "ended abruptly"),
])
def test_fold_workers_leave_no_file_or_process(frame_corpus, monkeypatch, tmp_path, fit, error):
    temp, marks = tmp_path / "temp", tmp_path / "marks"
    temp.mkdir()
    marks.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    monkeypatch.setenv("FOLD_TEMP", str(temp))
    monkeypatch.setenv("FOLD_MARKS", str(marks))
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 2)
    monkeypatch.setattr(evaluation, "fit_and_predict", fit)
    if error is None:
        leave_one_podcast(frame_corpus, FAST_MODEL, FAST_TRAIN)
        # no temporary file appeared while the folds ran
        assert [int((marks / name).read_text()) for name in sorted(os.listdir(marks))] == [0] * len(frame_corpus)
    else:
        with pytest.raises(BreathlineError, match=error):
            leave_one_podcast(frame_corpus, FAST_MODEL, FAST_TRAIN)
    assert list(temp.iterdir()) == []
    assert multiprocessing.active_children() == []


NO_GUARD_SCRIPT = """
import numpy as np
from breathline import evaluation
from breathline.evaluation import CorpusItem, test2_leave_one_podcast
from breathline.nn import ModelConfig, TrainConfig

evaluation.usable_cpus = lambda: 2
rng = np.random.default_rng(0)
labels = np.arange(1600) // 100 % 3 == 0
items = [CorpusItem(f"pod-{i}", rng.normal(size=(1600, 130)).astype(np.float32), labels) for i in range(2)]
result = test2_leave_one_podcast(items, ModelConfig(lstm_units=4, seed=0), TrainConfig(epochs=1, seed=0))
print(result.fold_labels)
"""


def test_a_script_without_a_main_guard_runs_the_folds_on_workers(tmp_path):
    # forked workers run no part of the calling script again
    script = tmp_path / "folds.py"
    script.write_text(NO_GUARD_SCRIPT)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(evaluation.__file__)))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['pod-0', 'pod-1']\n"


KILLED_CLI_SCRIPT = """
import sys
from breathline import cli, evaluation

evaluation.usable_cpus = lambda: 2
cli.main(["evaluate", "--experiment", "test2", "--epochs", "500", "--manifest", sys.argv[1], "--out", sys.argv[2]])
"""


def _proc_stat(pid: int) -> list[str]:
    """/proc/<pid>/stat's fields after the command name (state, ppid, ...);
    empty for a pid that is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except OSError:
        return []


def _running(pid: int) -> bool:
    return _proc_stat(pid)[:1] not in ([], ["Z"])


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads processes from /proc")
def test_fold_workers_end_with_a_killed_cli(podcast_dir, tmp_path):
    script = tmp_path / "killed.py"
    script.write_text(KILLED_CLI_SCRIPT)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(evaluation.__file__)))
    cli = subprocess.Popen([sys.executable, str(script), str(podcast_dir / "manifest.csv"), str(tmp_path / "out")],
                           env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = []
    try:
        start = time.monotonic()
        while len(workers) < 2 and cli.poll() is None and time.monotonic() - start < 60:
            time.sleep(0.05)
            pids = (int(name) for name in os.listdir("/proc") if name.isdigit())
            workers = [pid for pid in pids if _proc_stat(pid)[1:2] == [str(cli.pid)]]
        assert len(workers) == 2
        time.sleep(max(0.0, start + 1.0 - time.monotonic()))
        cli.kill()
        cli.wait()
        deadline = time.monotonic() + 5.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in workers if _running(pid)] == []
    finally:
        cli.kill()
        cli.wait()
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)


def test_first_failing_fold_cancels_the_pending_ones(frame_corpus, monkeypatch, tmp_path):
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 2)
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


def test_detect_manifest_collects_every_failure(tmp_path, news_dir, detector, monkeypatch):
    model, _ = detector
    shutil.copytree(news_dir, tmp_path / "news")
    (tmp_path / "news" / "fake-0003.wav").write_bytes(b"RIFFnot-audio")
    (tmp_path / "news" / "real-0001.wav").unlink()
    manifest = tmp_path / "news" / "manifest.csv"
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 2)
    rows, errors = detect_manifest(model, manifest, DetectionConfig())
    assert sorted(errors) == ["fake-0003", "real-0001"]
    ids = [entry.id for entry, _, _ in rows]
    assert ids == sorted(ids) and len(ids) == 14
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 1)
    assert detect_manifest(model, manifest, DetectionConfig()) == (rows, errors)


@pytest.fixture(scope="module")
def mixed_manifest(tmp_path_factory):
    """A 70 s 16 kHz file (one full detection unit of 64 s and a partial
    one), a 44.1 kHz file, a file shorter than one window and a broken
    WAV, in that manifest order."""
    out = tmp_path_factory.mktemp("mixed")
    long, _ = synthesize_one(SynthesisConfig(duration_ms=70000.0, breaths_per_minute=20.0, rng_seed=5))
    cd, _ = synthesize_one(SynthesisConfig(duration_ms=9000.0, breaths_per_minute=20.0, rng_seed=6, sample_rate=44100))
    write_wav(out / "long.wav", long)
    write_wav(out / "cd.wav", cd, encoding="pcm16")
    write_wav(out / "tiny.wav", AudioBuffer(long.samples[:100], 16000))
    (out / "broken.wav").write_bytes(b"RIFF\x10\x00\x00\x00WAVEfmt \x10\x00\x00\x00")
    entries = [ManifestEntry(name, f"{name}.wav", "real", "show") for name in ("long", "cd", "tiny", "broken")]
    save_manifest(out / "manifest.csv", entries)
    return out / "manifest.csv"


def _reference_detection(model, manifest, config):
    """Per file: the audio read whole and resampled, the whole feature
    matrix, `predict_file` over it, and its intervals clipped to the
    audio, as detection was before it ran in units."""
    rows, probabilities = {}, {}
    for entry in load_manifest(manifest):
        try:
            audio = load_wav(manifest.parent / entry.source)
        except FormatError:
            continue
        audio = resample(audio, 16000)
        probs = model.predict_file(extract_features(audio, model.config.features).data)
        raw = slices_to_intervals(probs, config)
        clipped = [(s, min(e, audio.duration_ms)) for s, e in raw if s < audio.duration_ms]
        intervals = BreathIntervalSet(clipped, audio.duration_ms)
        rows[entry.id] = intervals, compute_stats(intervals, audio.duration_ms)
        probabilities[entry.id] = probs.tobytes()
    return rows, probabilities


@pytest.mark.parametrize("cpus", [1, 2, 3])  # 3 threads on a 2-CPU host: more threads than cores
def test_detection_is_the_same_bytes_at_any_thread_count(cpus, mixed_manifest, detector, monkeypatch):
    model, _ = detector
    config = DetectionConfig()
    want_rows, want_probabilities = _reference_detection(model, mixed_manifest, config)
    assert len(want_probabilities["long"]) == 8 * 1400 and len(want_probabilities["tiny"]) == 8
    got_probabilities = []
    real_slices = postprocess.slices_to_intervals

    def recorded(probs, *args):
        got_probabilities.append(np.asarray(probs).tobytes())
        return real_slices(probs, *args)

    monkeypatch.setattr(postprocess, "slices_to_intervals", recorded)
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so units interleave finely
    try:
        rows, errors = detect_manifest(model, mixed_manifest, config)
    finally:
        sys.setswitchinterval(interval)
    assert list(errors) == ["broken"]
    assert {entry.id: (intervals, stats) for entry, intervals, stats in rows} == want_rows
    assert sorted(got_probabilities) == sorted(want_probabilities.values())


def test_detection_starts_one_thread_per_usable_cpu_after_the_first(mixed_manifest, detector, monkeypatch):
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(evaluation.threading, "Thread", Counted)
    before = threading.active_count()
    for cpus, helpers in [(1, 0), (3, 2)]:
        monkeypatch.setattr(evaluation, "usable_cpus", lambda: cpus)
        started.clear()
        detect_manifest(detector[0], mixed_manifest, DetectionConfig())
        assert len(started) == helpers
        assert threading.active_count() == before


def test_units_racing_on_cold_caches_build_the_filterbank_once(mixed_manifest, detector, monkeypatch):
    built, real = [], features.mel_filterbank

    def counted(*args):
        built.append(args)
        time.sleep(0.05)  # a slow build, as under a tracer: a racing unit would build its own
        return real(*args)

    monkeypatch.setattr(features, "mel_filterbank", counted)
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 3)
    caches = (features._hann, features._cached_filterbank, features._filter_bands)
    for cache in caches:
        cache.cache_clear()
    try:
        detect_manifest(detector[0], mixed_manifest, DetectionConfig())
    finally:
        for cache in caches:
            cache.cache_clear()  # drop what was built under the counting name
    assert built == [(128, 512, 16000)]


def test_a_failing_unit_raises_and_leaves_no_thread(mixed_manifest, detector, monkeypatch):
    """An error that is no BreathlineError or OSError stops the pool and
    comes out of detect_manifest once every helper has been joined."""

    def fail(self, index):
        raise RuntimeError("unit failed")

    monkeypatch.setattr(DetectionJob, "run_piece", fail)
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="unit failed"):
        detect_manifest(detector[0], mixed_manifest, DetectionConfig())
    assert threading.active_count() == before


def _write_float32_wav(path, minutes: float, seed: int, nan_at=None) -> None:
    """A 16 kHz float32 WAV of noise, written a few seconds at a time, so
    the test never holds the whole recording; `nan_at` puts a NaN there."""
    n = int(minutes * 60 * 16000)
    fmt = struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 32)
    rng = np.random.default_rng(seed)
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", 36 + 4 * n) + b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt)
        f.write(b"data" + struct.pack("<I", 4 * n))
        for lo in range(0, n, 10 * 16000):
            piece = rng.uniform(-0.5, 0.5, min(10 * 16000, n - lo)).astype("<f4")
            if nan_at is not None and lo <= nan_at < lo + len(piece):
                piece[nan_at - lo] = np.nan
            f.write(piece.tobytes())


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in procfs")
def test_a_streamed_file_that_fails_leaves_no_row_thread_or_descriptor(tmp_path, monkeypatch):
    """A float32 file with a NaN only in its last unit fails at its open;
    a file cut short after its open fails in the first piece past the cut,
    and its later pieces are skipped. Each failure is its earliest failing
    task's at any thread count, also when a later piece fails first, the
    good file still gets its row, and every file is closed."""
    real_open, real_piece, pieces_run, opened = audio_io.open_wav, DetectionJob.run_piece, [], []

    def open_then_cut(path):
        source = real_open(path)
        opened.append(source)  # held here, so only `close` gives its descriptor back
        if os.path.basename(path) == "cut.wav":
            os.truncate(path, 44 + 4 * 35 * 16000)  # 35 s are left: the third piece reads past the end
        return source

    def counted(job, index):
        name = os.path.basename(job.audio.path)
        pieces_run.append((name, index))
        if (name, index, cpus) == ("cut.wav", 2, 2):
            time.sleep(0.2)  # the fourth piece fails first, on the other thread
        real_piece(job, index)

    monkeypatch.setattr(audio_io, "open_wav", open_then_cut)
    monkeypatch.setattr(DetectionJob, "run_piece", counted)
    model, results = BreathDetectorModel(ModelConfig()), []
    for cpus in (1, 2):
        _write_float32_wav(tmp_path / "nan.wav", 70 / 60, seed=1, nan_at=69 * 16000)
        _write_float32_wav(tmp_path / "cut.wav", 70 / 60, seed=2)  # pieces: 4 of the first unit, 1 of the second
        _write_float32_wav(tmp_path / "good.wav", 20 / 60, seed=3)
        entries = [ManifestEntry(name, f"{name}.wav", "real", "show") for name in ("nan", "cut", "good")]
        save_manifest(tmp_path / "manifest.csv", entries)
        monkeypatch.setattr(evaluation, "usable_cpus", lambda: cpus)
        pieces_run.clear()
        threads, descriptors = threading.active_count(), _open_descriptors()
        rows, errors = detect_manifest(model, tmp_path / "manifest.csv", DetectionConfig())
        assert threading.active_count() == threads and _open_descriptors() == descriptors
        assert [entry.id for entry, _, _ in rows] == ["good"]
        cut_pieces = sorted(index for name, index in pieces_run if name == "cut.wav")
        assert cut_pieces == [0, 1, 2] if cpus == 1 else cut_pieces[:4] == [0, 1, 2, 3]
        results.append(errors)
    assert results[0] == results[1]
    assert sorted(results[0]) == ["cut", "nan"]
    assert results[0]["nan"] == f"{tmp_path / 'nan.wav'}: non-finite sample values"
    assert results[0]["cut"].startswith(f"{tmp_path / 'cut.wav'}: truncated WAV file: it ends before sample ")


def test_streamed_detection_memory_does_not_grow_with_the_recording(tmp_path, monkeypatch):
    """A 16 kHz file is read span by span, never whole: between 2 and 8
    minutes only the step probabilities grow (58 KiB), where the float64
    samples read whole grew by 44 MiB."""
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 1)  # the same units in flight on every run
    model = BreathDetectorModel(ModelConfig())
    peaks = []
    for minutes in (0.25, 2, 8):  # the first builds the cached window and filterbank
        directory = tmp_path / f"m{minutes}"
        directory.mkdir()
        _write_float32_wav(directory / "a.wav", minutes, seed=4)
        save_manifest(directory / "manifest.csv", [ManifestEntry("a", "a.wav", "real", "show")])
        tracemalloc.start()
        try:
            rows, errors = detect_manifest(model, directory / "manifest.csv", DetectionConfig())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(rows) == 1 and not errors
    assert abs(peaks[2] - peaks[1]) < 2**20


def test_training_load_memory_does_not_grow_with_the_recording(tmp_path, monkeypatch):
    """`load_frame_corpus` reads a 16 kHz file span by span: between 2 and
    8 minutes only the float32 features grow, where the float64 samples
    read whole grew by 44 MiB."""
    monkeypatch.setattr(features, "usable_cpus", lambda: 2)  # two shares read the file side by side
    extra = []
    for minutes in (0.25, 2, 8):  # the first builds the cached window and filterbank
        directory = tmp_path / f"m{minutes}"
        directory.mkdir()
        _write_float32_wav(directory / "a.wav", minutes, seed=4)
        (directory / "a.tsv").write_text("1.000000\t1.400000\tbreath\n")
        save_manifest(directory / "manifest.csv", [ManifestEntry("a", "a.wav", "real", "show", annotation_path="a.tsv")])
        tracemalloc.start()
        try:
            items = evaluation.load_frame_corpus(directory / "manifest.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert items[0].features.dtype == np.float32 and len(items[0].features) == int(minutes * 60 * 400)
        assert items[0].frame_labels.sum() > 0
        extra.append(peak - items[0].features.nbytes)
    assert abs(extra[2] - extra[1]) < 2**20, extra


def _write_wav_header_only(path, sample_rate: int, claimed: int) -> None:
    """A mono float32 WAV header whose data chunk claims `claimed` samples, with none after it."""
    fmt = struct.pack("<HHIIHH", 3, 1, sample_rate, 4 * sample_rate, 4, 32)
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", 36 + 4 * claimed) + b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt)
        f.write(b"data" + struct.pack("<I", 4 * claimed))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in procfs")
@pytest.mark.parametrize("bad", ["header", "nan", "cut", "cd"])
def test_every_failing_training_load_closes_its_file(tmp_path, monkeypatch, capsys, bad):
    """A good file, then one that fails: a 16 kHz WAV truncated after its
    header, a float32 WAV with a NaN in its last block, a 16 kHz file and a
    44.1 kHz file each cut short once opened (the first fails while its
    feature shares read it, the second while it is read whole).
    `load_frame_corpus` raises a BreathlineError, `train-breath` exits 1
    with one line and no traceback, and no descriptor is left open."""
    real_open, opened = audio_io.open_wav, []

    def open_then_cut(path):
        source = real_open(path)
        opened.append(source)  # held here, so only `close` gives its descriptor back
        if os.path.basename(path) in ("cut.wav", "cd.wav"):
            os.truncate(path, 44 + 2 * 16000)  # past the header, well short of the 3 s payload
        return source

    def write_bad() -> None:
        if bad == "header":
            _write_wav_header_only(tmp_path / "header.wav", 16000, 16000)
        elif bad == "nan":
            _write_float32_wav(tmp_path / "nan.wav", 3 / 60, seed=2, nan_at=3 * 16000 - 5)
        else:
            rate = 16000 if bad == "cut" else 44100
            buffer, _ = synthesize_one(SynthesisConfig(duration_ms=3000.0, rng_seed=7, sample_rate=rate))
            write_wav(tmp_path / f"{bad}.wav", buffer, encoding="float32" if bad == "cut" else "pcm16")

    monkeypatch.setattr(audio_io, "open_wav", open_then_cut)
    _write_float32_wav(tmp_path / "good.wav", 3 / 60, seed=1)
    for name in ("good", bad):
        (tmp_path / f"{name}.tsv").write_text("0.500000\t0.900000\tbreath\n")
    entries = [ManifestEntry(name, f"{name}.wav", "real", "show", annotation_path=f"{name}.tsv") for name in ("good", bad)]
    save_manifest(tmp_path / "manifest.csv", entries)
    descriptors = _open_descriptors()
    write_bad()
    with pytest.raises(BreathlineError, match=f"{bad}.wav"):
        evaluation.load_frame_corpus(tmp_path / "manifest.csv")
    assert _open_descriptors() == descriptors
    write_bad()
    capsys.readouterr()
    argv = ["train-breath", "--manifest", str(tmp_path / "manifest.csv"), "--out", str(tmp_path / "out"), "--epochs", "1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and f"{bad}.wav" in err and "Traceback" not in err
    assert _open_descriptors() == descriptors
    assert len(opened) == (4 if bad in ("cut", "cd") else 2)  # a failing open holds no source


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
