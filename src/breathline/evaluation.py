"""Experiment orchestration: detector generalizability tests and the
end-to-end sample-level pipeline evaluation.

Three frame-level tests probe how the breath detector generalizes:
per-podcast held-out blocks (test1), leave-one-podcast-out (test2), and
leave-one-speaker-out (test3). Every fold retrains from a fresh
seed-derived initialization, and a test's folds run side by side in
worker processes forked from the calling one, one per usable CPU, which
share its corpus pages. `detect_manifest` is the
one path from a manifest's audio to breath intervals and statistics;
the pipeline evaluation scores those statistics with a sample
classifier over an outlet-disjoint train/test split.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import multiprocessing
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .annotations import BreathIntervalSet, frames_from_intervals, load_annotations, steps_from_frames
from .audio_io import open_canonical
from .breath_stats import BreathStats, compute_stats
from .classifiers import (
    LabeledSample,
    svc_classify,
    svc_score,
    svc_train,
    threshold_classify,
    tree_classify,
    tree_score,
    tree_train,
)
from .errors import BreathlineError, ConfigError, InputError, ValidationError
from .features import FeatureConfig, extract_features, run_on_threads, usable_cpus
from .manifest import ManifestEntry, load_manifest
from .metrics import EvalReport, ScoredPredictions, auprc, eer, point_metrics
from .nn import BreathDetectorModel, ModelConfig, TrainConfig
from .nn.train import fit_and_predict
from .postprocess import DetectionConfig, DetectionJob

CLASSIFIER_KINDS = ("threshold", "svc", "tree")


@dataclass
class CorpusItem:
    """One annotated recording as the frame experiments see it."""

    id: str
    features: np.ndarray  # (frames, dim)
    frame_labels: np.ndarray  # (frames,) bool
    speaker_id: Optional[str] = None


@dataclass
class SplitPlan:
    train_ids: list[str]
    test_ids: list[str]
    strategy: str
    rng_seed: int
    train_outlets: list[str] = field(default_factory=list)
    test_outlets: list[str] = field(default_factory=list)

    def __post_init__(self):
        overlap = set(self.train_ids) & set(self.test_ids)
        if overlap:
            raise ValidationError(f"train and test share ids: {sorted(overlap)}")
        if set(self.train_outlets) & set(self.test_outlets):
            raise ValidationError("train and test share outlets")


@dataclass
class ExperimentResult:
    experiment: str
    fold_labels: list[str]
    values: list[float]
    seed: int

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values))

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "fold_labels": self.fold_labels,
            "values": self.values,
            "mean": self.mean,
            "std": self.std,
            "seed": self.seed,
        }


def digest_config(obj) -> str:
    """Short stable digest of a JSON-representable object."""
    blob = json.dumps(obj, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def digest_model_params(model: BreathDetectorModel) -> str:
    h = hashlib.sha256()
    tensors = dict(model.parameters())
    tensors.update(model.buffers())
    for name in sorted(tensors):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(tensors[name], dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def fold_seed(seed: int, fold_index: int) -> int:
    """Per-fold derived seed; fresh initialization for every fold."""
    return seed ^ (fold_index + 1)


# a stretch of one corpus item's frames: (item index, start, stop)
Span = tuple[int, int, int]
# one fold of a frame test: (training spans, validation spans, fold seed)
FoldSpec = tuple[list[Span], list[Span], int]

# a fold worker's corpus, (features, frame labels) per item, set as it starts
_worker_corpus: list[tuple[np.ndarray, np.ndarray]] = []
# Linux's prctl option that names the signal a process gets when its parent ends
PR_SET_PDEATHSIG = 1


def _start_fold_worker(corpus: list[tuple[np.ndarray, np.ndarray]], parent: int) -> None:
    """A fold worker's pool initializer: ask the kernel for SIGKILL when
    the thread that forked this worker ends (a no-op where there is no
    `prctl`), end at once if the process `parent` has already ended, and
    take the corpus. Without this, a worker whose parent is killed waits
    for further jobs forever."""
    import ctypes

    try:
        prctl = ctypes.CDLL(None).prctl
    except (AttributeError, OSError, TypeError):
        pass
    else:
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)
    _worker_corpus.extend(corpus)


def _fit_spans(fit, spec: FoldSpec, model_config: ModelConfig, train_config: TrainConfig, corpus=_worker_corpus):
    """`fit` (`fit_and_predict`'s signature) on the frames that a fold
    spec's spans cut from `corpus`, by default this fold worker's."""
    train_spans, val_spans, seed = spec
    train_pairs = [(corpus[i][0][a:b], corpus[i][1][a:b]) for i, a, b in train_spans]
    return fit(train_pairs, [corpus[i][0][a:b] for i, a, b in val_spans], model_config, train_config, seed)


def _fit_in_processes(corpus: list[tuple[np.ndarray, np.ndarray]], jobs: list[tuple], workers: int) -> list:
    """`_fit_spans(*job)` for every job on `workers` forked processes, in
    job order. A forked worker inherits the loaded modules and the corpus
    arrays (the initializer's arguments are not pickled), so a job carries
    only spans. The first failure in job order is raised and the jobs not
    yet started are cancelled. The workers end with the calling thread."""
    fork = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(
        workers, mp_context=fork, initializer=_start_fold_worker, initargs=(corpus, os.getpid())
    )
    try:
        # the first `submit` forks every worker, before the pool starts its own threads
        futures = [pool.submit(_fit_spans, *job) for job in jobs]
        return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        raise BreathlineError("a fold worker process ended abruptly: it was killed or ran out of memory") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def _fold_auprcs(
    items: list[CorpusItem], specs: list[FoldSpec], model_config: ModelConfig, train_config: TrainConfig
) -> list[float]:
    """The pooled validation AUPRC of each fold, in fold order.

    Each fold trains a fresh detector (`fit_and_predict`) with its own
    seed on the spans its spec cuts from `items`. The folds run inline
    with one usable CPU, else on up to one forked process per usable
    CPU; a fold's result depends only on its spec, so the values do not
    depend on the worker count."""
    corpus = [(item.features, item.frame_labels) for item in items]
    jobs = [(fit_and_predict, spec, model_config, train_config) for spec in specs]
    workers = min(len(jobs), usable_cpus())
    outputs = _fit_in_processes(corpus, jobs, workers) if workers > 1 else [_fit_spans(*job, corpus) for job in jobs]
    values = []
    for (_, val_spans, _), scores in zip(specs, outputs):
        truths = [steps_from_frames(corpus[i][1][a:b], model_config.frames_per_step) for i, a, b in val_spans]
        values.append(auprc(ScoredPredictions(np.concatenate(scores), np.concatenate(truths))))
    return values


def test1_contiguous_kfold(
    items: list[CorpusItem],
    model_config: ModelConfig = ModelConfig(),
    train_config: TrainConfig = TrainConfig(),
    iterations: int = 100,
    seed: int = 0,
) -> ExperimentResult:
    """Per iteration, hold out one uniformly-placed contiguous block of
    1/x of each podcast's frames (x = podcast count), train on the rest,
    and record the pooled validation AUPRC."""
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")
    x = len(items)
    if x < 2:
        raise ConfigError("test1 needs at least 2 podcasts: with one, the held-out block is the whole file")
    rng = np.random.default_rng(seed)
    specs = []
    for iteration in range(iterations):
        train_spans, val_spans = [], []
        for index, item in enumerate(items):
            num_frames = item.features.shape[0]
            block = int(round(num_frames / x))
            if block < 1:
                raise ConfigError(f"item {item.id!r}: cannot hold out {block} of {num_frames} frames")
            start = int(rng.integers(0, num_frames - block + 1))
            val_spans.append((index, start, start + block))
            if start > 0:
                train_spans.append((index, 0, start))
            if start + block < num_frames:
                train_spans.append((index, start + block, num_frames))
        specs.append((train_spans, val_spans, fold_seed(seed, iteration)))
    values = _fold_auprcs(items, specs, model_config, train_config)
    return ExperimentResult("test1", [str(i) for i in range(iterations)], values, seed)


def test2_leave_one_podcast(
    items: list[CorpusItem],
    model_config: ModelConfig = ModelConfig(),
    train_config: TrainConfig = TrainConfig(),
    seed: int = 0,
) -> ExperimentResult:
    """Hold out each podcast in turn, training on the remaining ones."""
    if len(items) < 2:
        raise ConfigError("test2 needs at least 2 podcasts")
    spans = [(index, 0, item.features.shape[0]) for index, item in enumerate(items)]
    specs = [(spans[:index] + spans[index + 1 :], [span], fold_seed(seed, index)) for index, span in enumerate(spans)]
    values = _fold_auprcs(items, specs, model_config, train_config)
    return ExperimentResult("test2", [item.id for item in items], values, seed)


def test3_leave_one_speaker(
    items: list[CorpusItem],
    model_config: ModelConfig = ModelConfig(),
    train_config: TrainConfig = TrainConfig(),
    seed: int = 0,
) -> ExperimentResult:
    """Hold out all podcasts of each speaker in turn."""
    speakerless = [item.id for item in items if item.speaker_id is None]
    if speakerless:
        raise InputError(f"test3 needs a speaker_id for every item; none for {speakerless}")
    speakers = sorted({item.speaker_id for item in items})
    if len(speakers) < 2:
        raise ConfigError("test3 needs at least 2 speakers")
    spans = [(index, 0, item.features.shape[0]) for index, item in enumerate(items)]
    held_out = [[span for span, item in zip(spans, items) if item.speaker_id == speaker] for speaker in speakers]
    specs = [([s for s in spans if s not in group], group, fold_seed(seed, i)) for i, group in enumerate(held_out)]
    values = _fold_auprcs(items, specs, model_config, train_config)
    return ExperimentResult("test3", speakers, values, seed)


def outlet_disjoint_split(entries: list[ManifestEntry], seed: int = 0) -> SplitPlan:
    """Assign whole outlets to train or test; the ids keep the entries' order.

    Outlets are bucketed by the labels they carry (real-only, fake-only,
    mixed); each bucket is shuffled and dealt alternately so that, when
    an outlet bucket has at least two members, both sides receive one.
    Real-only buckets start on the train side and fake-only on the test
    side, which balances sizes for the common two-by-two layout. Every
    entry must be labeled real or fake.
    """
    unscorable = [entry.id for entry in entries if entry.label not in ("real", "fake")]
    if unscorable:
        raise InputError(f"the pipeline needs a real or fake label on every entry; not on {unscorable}")
    outlets = sorted({entry.outlet for entry in entries})
    if len(outlets) < 2:
        raise ConfigError("outlet-disjoint split needs at least 2 outlets")
    labels_by_outlet = {o: set() for o in outlets}
    for entry in entries:
        labels_by_outlet[entry.outlet].add(entry.label)
    buckets = {
        "real_only": [o for o in outlets if labels_by_outlet[o] == {"real"}],
        "fake_only": [o for o in outlets if labels_by_outlet[o] == {"fake"}],
        "mixed": [o for o in outlets if len(labels_by_outlet[o]) > 1],
    }
    rng = np.random.default_rng(seed)
    assignment = {}
    for bucket_name, bucket in buckets.items():
        shuffled = [bucket[i] for i in rng.permutation(len(bucket))]
        first_train = bucket_name != "fake_only"
        for position, outlet in enumerate(shuffled):
            train_side = (position % 2 == 0) == first_train
            assignment[outlet] = "train" if train_side else "test"
    train_ids = [entry.id for entry in entries if assignment[entry.outlet] == "train"]
    test_ids = [entry.id for entry in entries if assignment[entry.outlet] == "test"]
    if not train_ids or not test_ids:
        raise ConfigError("outlet-disjoint split left one side empty")
    return SplitPlan(
        train_ids=train_ids,
        test_ids=test_ids,
        strategy="outlet-disjoint",
        rng_seed=seed,
        train_outlets=sorted(o for o, side in assignment.items() if side == "train"),
        test_outlets=sorted(o for o, side in assignment.items() if side == "test"),
    )


DetectionRow = tuple[ManifestEntry, BreathIntervalSet, BreathStats]


def detect_manifest(
    model: BreathDetectorModel, manifest_path, detection_config: DetectionConfig
) -> tuple[list[DetectionRow], dict[str, str]]:
    """Breath intervals and statistics for every file of a manifest.

    Sources are resolved relative to the manifest's directory. A pool of
    `usable_cpus()` threads, the caller among them (with one CPU, the
    caller alone), takes tasks in manifest order: open a file
    (`open_canonical`), or run one piece of an open file's `DetectionJob`.
    Pieces go first, the earliest first, so a file is opened only when no
    piece waits; the thread that ends a unit's last piece runs its batch,
    and the thread that ends a file's last task finishes the file. The
    pieces and units do not depend on the thread count, so neither do the
    results. A file that fails with a BreathlineError or OSError is
    recorded, not raised: its error is that of its earliest failing task
    in task order, its pieces not yet started are skipped, and its file is
    closed either way. Returns the `(entry, intervals, stats)` rows and
    the failed ids' messages, both sorted by id."""
    entries = collections.deque(load_manifest(manifest_path))
    base = os.path.dirname(os.fspath(manifest_path))
    rows, failures = {}, {}  # failures: entry id -> (index of the failing task, -1 for the open; message)
    pieces = collections.deque()  # (entry, job, piece index), waiting to run
    jobs, remaining = {}, {}  # entry id -> its open job; tasks of its file not yet done
    loading, stopped = 0, False
    ready = threading.Condition()

    def take():
        """The next task; waits while only an open in progress can add one."""
        nonlocal loading
        with ready:
            while not stopped and (pieces or entries or loading):
                if pieces:
                    return pieces.popleft()
                if entries:
                    loading += 1
                    return entries.popleft(), None, -1
                ready.wait()
            return None

    def open_job(entry: ManifestEntry) -> DetectionJob:
        audio = open_canonical(os.path.join(base, entry.source))
        try:
            return DetectionJob(model, audio, detection_config)
        except BaseException:
            audio.close()
            raise

    def fail(entry_id: str, index: int, exc: Exception) -> None:
        with ready:  # the earliest failing task in task order names the error
            if entry_id not in failures or index < failures[entry_id][0]:
                failures[entry_id] = index, str(exc)

    def run(entry: ManifestEntry, job: Optional[DetectionJob], index: int) -> None:
        nonlocal loading
        try:
            if job is None:
                try:
                    job = open_job(entry)
                finally:
                    with ready:  # the open ends and its pieces appear in one step
                        loading -= 1
                        if job is not None:
                            jobs[entry.id] = job
                            remaining[entry.id] = len(job.pieces) + 1  # its pieces and this open
                            pieces.extend((entry, job, i) for i in range(len(job.pieces)))
                        ready.notify_all()
            elif entry.id not in failures:
                job.run_piece(index)
        except (BreathlineError, OSError) as exc:
            fail(entry.id, index, exc)
            if job is None:
                return
        with ready:
            remaining[entry.id] -= 1
            if remaining[entry.id]:
                return
            del jobs[entry.id]
        job.audio.close()
        if entry.id not in failures:
            try:
                intervals = job.intervals()
                rows[entry.id] = entry, intervals, compute_stats(intervals, job.audio.duration_ms)
            except (BreathlineError, OSError) as exc:
                fail(entry.id, len(job.pieces), exc)

    def work() -> None:
        nonlocal stopped
        try:
            while (task := take()) is not None:
                run(*task)
        except BaseException:
            with ready:  # the other threads stop after their current task
                stopped = True
                ready.notify_all()
            raise

    try:
        run_on_threads([work] * usable_cpus())
    finally:
        for job in jobs.values():
            job.audio.close()
    errors = {entry_id: message for entry_id, (_, message) in failures.items()}
    return [rows[i] for i in sorted(rows)], dict(sorted(errors.items()))


@dataclass
class PipelineResult:
    report: EvalReport
    scored: Optional[ScoredPredictions]
    classifier_model: object = None


def run_pipeline_eval(
    rows: list[DetectionRow],
    split: SplitPlan,
    classifier_kind: str,
    detector: BreathDetectorModel,
    detection_config: DetectionConfig = DetectionConfig(),
    classifier_kwargs: Optional[dict] = None,
    dataset_id: str = "",
) -> PipelineResult:
    """Train the chosen sample classifier on the statistics of the
    split's train side (thresholding needs no training) and report
    test-side metrics with real as the positive class.

    `rows` pair each split id's manifest entry with its breath
    statistics, as `detect_manifest` computed them with `detector` and
    `detection_config`; those two only identify the run in the report,
    as `dataset_id` (the manifest's file name) does the data.
    `classifier_kwargs` forwards extra keyword arguments (e.g. C, gamma,
    coef0, max_depth) to the chosen trainer."""
    if classifier_kind not in CLASSIFIER_KINDS:
        raise ConfigError(f"classifier must be one of {CLASSIFIER_KINDS}, got {classifier_kind!r}")
    labels = {entry.id: entry.label for entry, _, _ in rows}
    stats = {entry.id: s for entry, _, s in rows}
    missing = [i for i in (*split.train_ids, *split.test_ids) if i not in stats]
    if missing:
        raise InputError(f"no breath statistics for {missing}")

    model = None
    scores: Optional[list[float]] = None
    kwargs = classifier_kwargs or {}
    if classifier_kind == "threshold":
        predict = threshold_classify
    else:
        train_samples = [
            LabeledSample(i, stats[i], labels[i]) for i in split.train_ids
        ]
        if classifier_kind == "svc":
            model = svc_train(train_samples, **kwargs)
            predict = lambda s: svc_classify(model, s)
            scores = [svc_score(model, stats[i]) for i in split.test_ids]
        else:
            model = tree_train(train_samples, **kwargs)
            predict = lambda s: tree_classify(model, s)
            scores = [tree_score(model, stats[i]) for i in split.test_ids]

    truths = np.array([labels[i] == "real" for i in split.test_ids])
    predicted = np.array([predict(stats[i]) == "real" for i in split.test_ids])
    point = point_metrics(predicted, truths)

    scored = None
    auprc_value = eer_value = None
    if scores is not None:
        scored = ScoredPredictions(np.array(scores), truths, list(split.test_ids))
        auprc_value = auprc(scored)
        eer_value = eer(scored)

    config_digest = digest_config(
        {
            "classifier": classifier_kind,
            "classifier_kwargs": kwargs,
            "features": dataclasses.asdict(detector.config.features),
            "detection": dataclasses.asdict(detection_config),
            "split": dataclasses.asdict(split),
        }
    )
    report = EvalReport(
        dataset_id=dataset_id,
        model_id=f"{classifier_kind}+detector:{digest_model_params(detector)}",
        config_digest=config_digest,
        positive_label="real",
        num_samples=len(split.test_ids),
        point=point,
        auprc=auprc_value,
        eer=eer_value,
        extra={
            "strategy": split.strategy,
            "seed": split.rng_seed,
            "train_size": len(split.train_ids),
            "test_size": len(split.test_ids),
            "train_outlets": list(split.train_outlets),
            "test_outlets": list(split.test_outlets),
            "outlet_overlap": len(set(split.train_outlets) & set(split.test_outlets)),
        },
    )
    return PipelineResult(report, scored, model)


def load_frame_corpus(manifest_path, feature_config: FeatureConfig = FeatureConfig()) -> list[CorpusItem]:
    """Manifest -> frame items with extracted features and frame labels,
    in manifest order.

    Sources and annotation paths are resolved relative to the manifest's
    directory. Every entry needs an annotation file. Each file is read by
    `open_canonical` (at 16 kHz span by span) and closed on every path.
    """
    base = os.path.dirname(os.fspath(manifest_path))
    items = []
    for entry in load_manifest(manifest_path):
        if entry.annotation_path is None:
            raise InputError(f"manifest entry {entry.id!r} has no annotation_path")
        audio = open_canonical(os.path.join(base, entry.source))
        try:
            features = extract_features(audio, feature_config)
        finally:
            audio.close()
        intervals = load_annotations(os.path.join(base, entry.annotation_path), audio.duration_ms)
        frame_labels = frames_from_intervals(
            intervals, feature_config.window_ms, feature_config.hop_ms, features.num_frames
        )
        items.append(CorpusItem(entry.id, features.data, frame_labels, entry.speaker_id))
    return items


# the settings table: each CLI setting flag and config-file key with its type;
# config files hold `key = value` lines and '#' comments
_EXPERIMENT_KEYS = {
    "experiment": str,
    "iterations": int,
    "seed": int,
    "classifier": str,
    "window_ms": float,
    "hop_ms": float,
    "n_mels": int,
    "threshold": float,
    "min_breath_ms": float,
    "epochs": int,
    "batch_size": int,
    "learning_rate": float,
    "lstm_units": int,
    "chunk_frames": int,
}


def parse_experiment_config(path) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 settings file: {exc}") from exc
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _EXPERIMENT_KEYS:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            out[key] = _EXPERIMENT_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{line_no}: bad value for {key!r}: {exc}") from exc
    return out
