"""Span tracing from outside the program.

`Tracer.install` replaces public functions and methods of `breathline`
with wrappers that record a span (name, start, end, parent) per call. A
function is replaced on every `breathline` module that binds it, so the
name each caller actually looks up is the traced one; a method is
replaced on its class. Spans and counts live in memory and are written
once, by `Tracer.dump`, when the CLI call returns.

`layer_metrics` turns a dump into the per-layer metrics: `<name>.s` is
self time (span duration minus the union of its child spans) summed over
the run, `<name>.calls` the call count, plus the counts taken from array
sizes at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (span name, defining module, attribute path)
TARGETS = [
    ("audio_io.load_wav", "breathline.audio_io", "load_wav"),
    ("audio_io.resample", "breathline.audio_io", "resample"),
    ("features.extract_features", "breathline.features", "extract_features"),
    ("features.mel_spectrogram_db", "breathline.features", "mel_spectrogram_db"),
    ("features.zcr", "breathline.features", "zcr"),
    ("features.rmse_db", "breathline.features", "rmse_db"),
    ("features.mel_filterbank", "breathline.features", "mel_filterbank"),
    ("nn.BreathDetectorModel.predict_file", "breathline.nn.model", "BreathDetectorModel.predict_file"),
    ("nn.Conv1D.forward", "breathline.nn.layers", "Conv1D.forward"),
    ("nn.Conv1D.backward", "breathline.nn.layers", "Conv1D.backward"),
    ("nn.BatchNorm1D.forward", "breathline.nn.layers", "BatchNorm1D.forward"),
    ("nn.BatchNorm1D.backward", "breathline.nn.layers", "BatchNorm1D.backward"),
    ("nn.MaxPool1D.forward", "breathline.nn.layers", "MaxPool1D.forward"),
    ("nn.MaxPool1D.backward", "breathline.nn.layers", "MaxPool1D.backward"),
    ("nn.BiLSTM.forward", "breathline.nn.recurrent", "BiLSTM.forward"),
    ("nn.BiLSTM.backward", "breathline.nn.recurrent", "BiLSTM.backward"),
    ("nn.Adam.step", "breathline.nn.optim", "Adam.step"),
    ("nn.bce_loss", "breathline.nn.train", "bce_loss"),
    ("nn.train", "breathline.nn.train", "train"),
    ("postprocess.slices_to_intervals", "breathline.postprocess", "slices_to_intervals"),
    ("breath_stats.compute_stats", "breathline.breath_stats", "compute_stats"),
    ("classifiers.svc_train", "breathline.classifiers", "svc_train"),
    ("classifiers.svc_score", "breathline.classifiers", "svc_score"),
    ("metrics.auprc", "breathline.metrics", "auprc"),
    ("metrics.eer", "breathline.metrics", "eer"),
    ("evaluation.outlet_disjoint_split", "breathline.evaluation", "outlet_disjoint_split"),
]

# every save_* artifact writer the CLI module calls is traced as one span
SAVE_SPAN = "cli.save"
ROOT_SPAN = "cli.main"

# per-layer metric name -> unit, in report order
LAYER_METRICS = {
    **{f"{name}.s": "s" for name, _, _ in TARGETS},
    f"{SAVE_SPAN}.s": "s",
    "features.mel_filterbank.calls": "count",
    "nn.train.calls": "count",
    "features.frames": "count",
    "features.spectrum_bytes": "bytes",
    "nn.chunks_inferred": "count",
    "nn.pad_fraction": "ratio",
    "nn.train_batches": "count",
    "postprocess.runs": "count",
    "postprocess.breaths_kept": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def _count_features(counts, args, kwargs, result):
    buffer = args[0] if args else kwargs["buffer"]
    config = args[1] if len(args) > 1 else kwargs.get("config", result.config)
    frames = result.num_frames
    bins = _next_pow2(config.window_samples(buffer.sample_rate)) // 2 + 1
    counts["features.frames"] += frames
    # complex128 spectrum of the largest file, which sets peak memory
    counts["features.spectrum_bytes"] = max(counts["features.spectrum_bytes"], frames * bins * 16)


def _count_predict(counts, args, kwargs, result):
    model, features = args[0], args[1] if len(args) > 1 else kwargs["features"]
    frames = len(features)
    chunk = model.config.chunk_frames
    chunks = -(-frames // chunk)
    counts["nn.chunks_inferred"] += chunks
    counts["nn.frames_inferred"] += chunks * chunk
    counts["nn.frames_padded"] += chunks * chunk - frames


def _count_slices(counts, args, kwargs, result):
    probs = args[0] if args else kwargs["probabilities"]
    config = args[1] if len(args) > 1 else kwargs.get("config")
    threshold = config.binarize_threshold if config is not None else 0.5
    positive = np.concatenate([[False], np.asarray(probs) >= threshold])
    counts["postprocess.runs"] += int(np.count_nonzero(positive[1:] & ~positive[:-1]))
    counts["postprocess.breaths_kept"] += len(result)


def _count_step(counts, args, kwargs, result):
    counts["nn.train_batches"] += 1


COUNTERS = {
    "features.extract_features": _count_features,
    "nn.BreathDetectorModel.predict_file": _count_predict,
    "postprocess.slices_to_intervals": _count_slices,
    "nn.Adam.step": _count_step,
}


class Tracer:
    """Records spans of wrapped calls in memory.

    A span opened on a thread with no open span of its own is a child of
    the root span, so work the CLI hands to a worker thread nests under
    the CLI call that waits for it.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = -1

    def _open(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._root
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def run_root(self, fn, *args):
        """Call fn under the root span and return its result."""
        index = self._open(ROOT_SPAN)
        self._root = index
        try:
            return fn(*args)
        finally:
            self._close(index)
            self._root = -1

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("breathline") and m is not None]
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *class_path, attr = path.split(".")
            for part in class_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            if class_path:
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        cli = importlib.import_module("breathline.cli")
        for key, value in list(vars(cli).items()):
            if key.startswith("save_") and callable(value):
                setattr(cli, key, self.wrap(SAVE_SPAN, value))

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, f)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(dump: dict, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced run, every LAYER_METRICS key set."""
    spans, counts = dump["spans"], dump["counts"]
    if any(end is None for _, _, end, _ in spans):
        raise ValueError("trace holds an unclosed span")
    self_s, calls = defaultdict(float), defaultdict(int)
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        self_s[name] += own
        calls[name] += 1
    wall = sum(end - start for name, start, end, parent in spans if name == ROOT_SPAN and parent < 0)
    out = {key: 0.0 for key in LAYER_METRICS}
    for key in LAYER_METRICS:
        if key.endswith(".s") and key[:-2] in self_s:
            out[key] = self_s[key[:-2]]
        elif key.endswith(".calls"):
            out[key] = float(calls[key[: -len(".calls")]])
        elif key in counts:
            out[key] = float(counts[key])
    inferred = counts.get("nn.frames_inferred", 0.0)
    out["nn.pad_fraction"] = counts.get("nn.frames_padded", 0.0) / inferred if inferred else 0.0
    attributed = sum(v for k, v in out.items() if k.endswith(".s"))
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - attributed
    out["trace.overhead_s"] = wall - untraced_wall_s
    for key, value in out.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {key} is not finite")
    return out
