"""The three workloads: seeded set-up, the CLI call each one times, and
the checks on that call's outputs.

Every input is generated here from the workload seed with the public
`synth` API; the program only sees the rendered WAV, TSV and manifest
files and, where one is needed, a detector pretrained by its own
`train-breath` command. The checks read the program's artifacts and
score them against the ground truth this module wrote itself.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from breathline.annotations import save_annotations
from breathline.audio_io import write_wav
from breathline.cli import main as breathline_main
from breathline.manifest import save_manifest
from breathline.synth import REAL_BPM_RANGE, SynthesisConfig, synthesize_corpus

NEWS_RATE = 44100
STEP_MS = 50.0

# "full" is what the benchmark measures; "tiny" only exercises the code
# paths, for the smoke test
SIZES = {
    "full": dict(
        long_files=1, long_ms=300_000.0,
        news_per_class=24, news_ms=15_000.0,
        pods=4, pod_ms=40_000.0, fold_epochs=10,
        pretrain_files=4, pretrain_ms=16_000.0, pretrain_epochs=12,
    ),
    "tiny": dict(
        long_files=1, long_ms=12_000.0,
        news_per_class=4, news_ms=8_000.0,
        pods=2, pod_ms=8_000.0, fold_epochs=1,
        pretrain_files=2, pretrain_ms=8_000.0, pretrain_epochs=1,
    ),
}


@dataclass
class Outcome:
    """What one CLI call produced: files attempted and failed, the
    quality figures of its artifacts, and every failed check."""

    attempted: int
    failed: int
    quality: dict
    problems: list


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _real(rng, k: int, name: str, duration_ms: float, sample_rate: int = 16000, outlet=None) -> SynthesisConfig:
    # each speaker breathes in its own band, as `breathline synth` renders them
    return SynthesisConfig(
        duration_ms=duration_ms,
        breaths_per_minute=float(rng.uniform(*REAL_BPM_RANGE)),
        breath_band_hz=(300.0 + 80.0 * k, 1800.0 + 130.0 * k),
        breath_band_level_db=-26.0 + (k % 3),
        rng_seed=int(rng.integers(2**31)),
        sample_rate=sample_rate,
        name=name,
        speaker_id=f"spk{k}",
        outlet=outlet,
    )


def _fake(rng, name: str, duration_ms: float, sample_rate: int, outlet: str) -> SynthesisConfig:
    return SynthesisConfig(
        duration_ms=duration_ms,
        breaths_per_minute=0.0,
        silent_pauses_per_minute=float(rng.uniform(*REAL_BPM_RANGE)),
        rng_seed=int(rng.integers(2**31)),
        sample_rate=sample_rate,
        name=name,
        outlet=outlet,
    )


def render(directory: str, configs: list[SynthesisConfig], encoding: str = "float32") -> None:
    """Write WAVs, annotations and a manifest, plus this benchmark's own
    copy of the ground truth (truth.json)."""
    os.makedirs(directory, exist_ok=True)
    entries, truth = [], {}
    for config in configs:  # one file at a time keeps set-up memory flat
        (buffer,), (intervals,), (entry,) = synthesize_corpus([config])
        write_wav(os.path.join(directory, entry.source), buffer, encoding)
        save_annotations(os.path.join(directory, entry.annotation_path), intervals)
        entries.append(entry)
        truth[entry.id] = {"duration_ms": buffer.duration_ms, "intervals": list(intervals.intervals)}
    save_manifest(os.path.join(directory, "manifest.csv"), entries)
    with open(os.path.join(directory, "truth.json"), "w") as f:
        json.dump(truth, f, sort_keys=True)


def pretrain_detector(directory: str, seed: int, size: dict) -> None:
    rng = _rng(seed, 0)
    pods = os.path.join(directory, "pretrain")
    render(pods, [_real(rng, k % 4, f"pre-{k:02d}", size["pretrain_ms"]) for k in range(size["pretrain_files"])])
    # small batches and a raised learning rate: a detector good enough for
    # steady quality figures (step F1 ~0.95) in ~2.5 s of training
    argv = ["train-breath", "--manifest", os.path.join(pods, "manifest.csv"), "--out",
            os.path.join(directory, "detector"), "--epochs", str(size["pretrain_epochs"]),
            "--batch-size", "8", "--learning-rate", "0.005", "--seed", str(seed)]
    if breathline_main(argv) != 0:
        raise RuntimeError("train-breath failed during set-up")


def load_truth(setup_dir: str) -> dict:
    with open(os.path.join(setup_dir, "corpus", "truth.json")) as f:
        return json.load(f)


def _read_json(path: str, problems: list):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        problems.append(f"{os.path.basename(path)} does not parse: {exc}")
        return None


def _finite(name: str, value, problems: list) -> bool:
    if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
        return True
    problems.append(f"{name} is not a finite number: {value!r}")
    return False


def _step_labels(intervals, num_steps: int) -> np.ndarray:
    """Per 50 ms step: at least half of it covered by the intervals."""
    edges = np.arange(num_steps + 1) * STEP_MS
    covered = np.zeros(num_steps)
    for start, end in intervals:
        covered += np.clip(np.minimum(edges[1:], end) - np.maximum(edges[:-1], start), 0.0, None)
    return covered >= STEP_MS / 2


def _read_tsv(path: str) -> list[tuple[float, float]]:
    out = []
    with open(path) as f:
        for line in f:
            if line.strip():
                start_s, end_s, _ = line.rstrip("\n").split("\t")
                out.append((float(start_s) * 1000.0, float(end_s) * 1000.0))
    return out


def step_f1(truth: dict, detected: dict) -> float:
    """Step-level F1 of detected intervals against the truth, pooled over files."""
    tp = fp = fn = 0
    for file_id, doc in truth.items():
        num_steps = math.ceil(doc["duration_ms"] / STEP_MS)
        want = _step_labels(doc["intervals"], num_steps)
        got = _step_labels(detected[file_id], num_steps)
        tp += int(np.count_nonzero(want & got))
        fp += int(np.count_nonzero(~want & got))
        fn += int(np.count_nonzero(want & ~got))
    return 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0


def _detect_long_corpus(seed: int, size: dict):
    rng = _rng(seed, 1)
    return [_real(rng, k % 4, f"long-{k:02d}", size["long_ms"]) for k in range(size["long_files"])], "float32"


def _pipeline_corpus(seed: int, size: dict):
    rng = _rng(seed, 2)
    n = size["news_per_class"]
    configs = [
        _real(rng, i % 4, f"real-{i:03d}", size["news_ms"], NEWS_RATE, outlet=f"human{i % 2}") for i in range(n)
    ]
    configs += [_fake(rng, f"fake-{i:03d}", size["news_ms"], NEWS_RATE, f"tts{i % 2}") for i in range(n)]
    return configs, "pcm16"


def _train_folds_corpus(seed: int, size: dict):
    rng = _rng(seed, 3)
    return [_real(rng, k % 2, f"pod-{k:02d}", size["pod_ms"]) for k in range(size["pods"])], "float32"


def _detect_long_argv(setup: str, out: str, seed: int, size: dict) -> list[str]:
    return ["detect", "--manifest", os.path.join(setup, "corpus", "manifest.csv"),
            "--model", os.path.join(setup, "detector", "model.bin"),
            "--workers", "1", "--seed", str(seed), "--out", out]


def _pipeline_argv(setup: str, out: str, seed: int, size: dict) -> list[str]:
    # coef0 1.0 as in the README example: the default 0 makes the SVC's
    # AUPRC swing between seeds with the same detector quality
    return ["evaluate", "--experiment", "pipeline", "--classifier", "svc", "--svc-coef0", "1.0",
            "--manifest", os.path.join(setup, "corpus", "manifest.csv"),
            "--model", os.path.join(setup, "detector", "model.bin"),
            "--seed", str(seed), "--out", out]


def _train_folds_argv(setup: str, out: str, seed: int, size: dict) -> list[str]:
    # batches of 8 at a raised learning rate, as in pretraining: at the
    # default 32 a fold makes only 20 Adam steps, and the held-out AUPRC
    # swings between seeds (0.84-0.98); here it stays above 0.99
    return ["evaluate", "--experiment", "test2", "--epochs", str(size["fold_epochs"]),
            "--batch-size", "8", "--learning-rate", "0.005",
            "--manifest", os.path.join(setup, "corpus", "manifest.csv"),
            "--seed", str(seed), "--out", out]


def _check_detect(truth: dict, out: str) -> Outcome:
    problems = []
    report = _read_json(os.path.join(out, "detect_report.json"), problems)
    ok = set(report.get("ok", [])) if isinstance(report, dict) else set()
    if report is not None and (ok != set(truth) or report.get("errors")):
        problems.append(f"detect_report.json: ok {sorted(ok)}, errors {report.get('errors')}")
    detected = {}
    for file_id in sorted(ok & set(truth)):
        try:
            detected[file_id] = _read_tsv(os.path.join(out, "intervals", f"{file_id}.tsv"))
        except (OSError, ValueError) as exc:
            problems.append(f"intervals of {file_id}: {exc}")
    quality = {}
    if set(detected) == set(truth):
        quality["breath_f1"] = step_f1(truth, detected)
    else:
        problems.append("breath_f1 needs intervals for every file")
    return Outcome(len(truth), len(set(truth) - set(detected)), quality, problems)


def _check_pipeline(truth: dict, out: str) -> Outcome:
    problems = []
    report = _read_json(os.path.join(out, "report.json"), problems)
    quality = {}
    if isinstance(report, dict):
        for key in ("auprc", "eer"):
            if _finite(key, report.get(key), problems):
                quality[f"pipeline_{key}"] = report[key]
        extra = report.get("extra", {})
        if report.get("num_samples") != extra.get("test_size") or extra.get("outlet_overlap") != 0:
            problems.append(f"report.json: bad split {extra}")
        if extra.get("train_size", 0) + extra.get("test_size", 0) != len(truth):
            problems.append(f"report.json: split covers {extra} of {len(truth)} files")
    return Outcome(len(truth), 0, quality, problems)


def _check_train_folds(truth: dict, out: str) -> Outcome:
    problems = []
    doc = _read_json(os.path.join(out, "experiment_test2.json"), problems)
    quality = {}
    if isinstance(doc, dict):
        values = doc.get("values", [])
        if sorted(doc.get("fold_labels", [])) != sorted(truth) or len(values) != len(truth):
            problems.append(f"experiment_test2.json: folds {doc.get('fold_labels')} for files {sorted(truth)}")
        if all(_finite("fold AUPRC", v, problems) for v in values) and _finite("mean", doc.get("mean"), problems):
            quality["breath_auprc"] = doc["mean"]
    return Outcome(len(truth), 0, quality, problems)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Callable[[int, dict], tuple[list[SynthesisConfig], str]]  # -> (configs, WAV encoding)
    needs_detector: bool
    argv: Callable[[str, str, int, dict], list[str]]  # (setup dir, out dir, seed, size)
    check: Callable[[dict, str], Outcome]  # (truth, out dir)
    quality: str  # the quality figure reported as the `quality` metric

    def set_up(self, directory: str, seed: int, size: dict) -> None:
        configs, encoding = self.corpus(seed, size)
        render(os.path.join(directory, "corpus"), configs, encoding)
        if self.needs_detector:
            pretrain_detector(directory, seed, size)


# why each workload exists is written down in README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in [
        Workload("detect_long", _detect_long_corpus, True, _detect_long_argv, _check_detect, "breath_f1"),
        Workload("pipeline_eval", _pipeline_corpus, True, _pipeline_argv, _check_pipeline, "pipeline_auprc"),
        Workload("train_folds", _train_folds_corpus, False, _train_folds_argv, _check_train_folds, "breath_auprc"),
    ]
}
