"""Command-line entry point.

Subcommands: `synth` renders a labeled synthetic corpus, `train-breath`
fits the framewise detector, `detect` runs detection plus statistics
over a manifest, and `evaluate` drives the generalizability tests and
the end-to-end pipeline evaluation.

A setting (a key of `evaluation._EXPERIMENT_KEYS`) comes from its flag,
else from the `--config` file, else from the default of the library
object that takes it.

Every command records {tool_version, config_digest, seed} in a
meta.json next to its outputs; re-running with identical inputs
reproduces every artifact byte for byte. Wall-clock timestamps go only
to the run.log sidecar. Exit codes: 0 success, 1 runtime failure, 2
usage or config error. Set BREATHLINE_LOG=debug|info|warning|error for
stderr verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import math
import time

# one BLAS thread for each thread and fold worker of the package, unless the
# caller chose a count: BLAS and OpenMP read these once, as numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import __version__
from .annotations import save_annotations
from .audio_io import write_wav
from .breath_stats import save_stats_csv
from .classifiers import check_svc_hyperparameters, save_svc, save_tree
from .errors import BreathlineError, ConfigError, InputError
from .evaluation import (
    _EXPERIMENT_KEYS,
    CLASSIFIER_KINDS,
    detect_manifest,
    digest_config,
    load_frame_corpus,
    outlet_disjoint_split,
    parse_experiment_config,
    run_pipeline_eval,
    test1_contiguous_kfold,
    test2_leave_one_podcast,
    test3_leave_one_speaker,
)
from .features import usable_cpus
from .manifest import load_manifest, save_manifest
from .metrics import save_report, save_scores_csv
from .nn import BreathDetectorModel, ModelConfig, TrainConfig, load_model, save_model, train
from .plots import render_box_plot, render_scatter, save_svg
from .postprocess import DetectionConfig
from .synth import REAL_BPM_RANGE, SynthesisConfig, synthesize_corpus

log = logging.getLogger("breathline")

# the settings each subcommand takes, besides the seed
_FEATURE_SETTINGS = ("window_ms", "hop_ms", "n_mels")
_TRAIN_SETTINGS = ("epochs", "batch_size", "learning_rate", "lstm_units")
_DETECT_SETTINGS = ("threshold", "min_breath_ms")

_FRAME_TESTS = {
    "test1": test1_contiguous_kfold,
    "test2": test2_leave_one_podcast,
    "test3": test3_leave_one_speaker,
}
_CHOICES = {"experiment": (*_FRAME_TESTS, "pipeline"), "classifier": CLASSIFIER_KINDS}
# settings whose config field is named differently
_FIELD_NAMES = {"threshold": "binarize_threshold"}


def _setup_logging() -> None:
    name = os.environ.get("BREATHLINE_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_json(path: str, doc) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")


def _write_meta(out_dir: str, seed: int, config_obj) -> None:
    meta = {"tool_version": __version__, "config_digest": digest_config(config_obj), "seed": seed}
    _write_json(os.path.join(out_dir, "meta.json"), meta)


def _write_run_log(out_dir: str, argv, wall_s: float) -> None:
    # the only artifact allowed to carry wall-clock timestamps and costs
    try:
        with open("/proc/self/status") as f:
            peak = "".join(line for line in f if line.startswith("VmHWM:"))
    except OSError:  # no procfs: the line is left out
        peak = ""
    with open(os.path.join(out_dir, "run.log"), "w") as f:
        f.write(f"{time.strftime('%Y-%m-%dT%H:%M:%S%z')} breathline {__version__}\n")
        f.write("args: " + " ".join(argv) + "\n")
        f.write(f"wall_s: {wall_s:.3f}\n{peak}usable_cpus: {usable_cpus()}\n")


def _return_free_heap() -> None:
    """Give freed heap pages back to the OS. glibc keeps a varying share of
    them (tens of MiB after `train-breath`) in a caller that runs `main`
    in-process; a no-op where there is no `malloc_trim`."""
    import ctypes

    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):
        pass


def _add_flags(parser: argparse.ArgumentParser, *settings: str) -> None:
    """`--out`, then one flag per setting named in the settings table
    (`--seed` always), typed by that table. An absent flag is None, so a
    subcommand with settings beyond the seed also takes `--config`."""
    parser.add_argument("--out", required=True, help="output directory")
    for name in ("seed", *settings):
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, type=_EXPERIMENT_KEYS[name], choices=_CHOICES.get(name))
    if settings:
        parser.add_argument("--config", help="key = value settings file; a key applies when its flag is absent")


def _settings(args) -> dict:
    """The settings that are present: each flag, else the config file's value."""
    settings = parse_experiment_config(args.config) if args.config else {}
    for name in _EXPERIMENT_KEYS:
        value = getattr(args, name, None)
        if value is not None:
            settings[name] = value
    for name, allowed in _CHOICES.items():
        if name in settings and settings[name] not in allowed:
            raise ConfigError(f"{name} must be one of {allowed}, got {settings[name]!r}")
    if settings.get("seed", 0) < 0:
        raise ConfigError("seed must be >= 0")
    return settings


def _present(settings: dict, *names: str) -> dict:
    return {name: settings[name] for name in names if name in settings}


def _config(cls, settings: dict, **fixed):
    """`cls` built from `fixed` and the present settings that name one of
    its fields; an absent setting keeps the field's default."""
    renamed = {_FIELD_NAMES.get(name, name): value for name, value in settings.items()}
    return cls(**_present(renamed, *(f.name for f in dataclasses.fields(cls))), **fixed)


def _detection_config(settings: dict, detector: BreathDetectorModel) -> DetectionConfig:
    """Detection at the detector's own step. A feature setting must be the
    one the detector was trained with: any other value is a ConfigError."""
    for name in _FEATURE_SETTINGS:
        if name in settings and settings[name] != getattr(detector.config, name):
            raise ConfigError(f"{name} = {settings[name]} differs from the detector's {getattr(detector.config, name)}")
    return _config(DetectionConfig, settings, step_ms=detector.config.step_ms)


def cmd_synth(args) -> int:
    if min(args.speakers, args.real_outlets, args.fake_outlets) < 1:
        raise ConfigError("--speakers, --real-outlets and --fake-outlets must be >= 1")
    if not (0 <= args.bpm_min < math.inf and 0 <= args.bpm_max < math.inf):
        raise ConfigError("--bpm-min and --bpm-max must be >= 0 and finite")
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    out = _ensure_out(args)
    rng = np.random.default_rng(args.seed)
    speakers = [f"spk{k}" for k in range(args.speakers)]
    real_outlets = [f"human{k}" for k in range(args.real_outlets)]
    fake_outlets = [f"tts{k}" for k in range(args.fake_outlets)]
    configs = []
    for i in range(args.real):
        k = i % len(speakers)
        configs.append(
            SynthesisConfig(
                duration_ms=args.duration_ms,
                breaths_per_minute=float(rng.uniform(args.bpm_min, args.bpm_max)),
                # per-speaker timbre: each voice breathes in its own band
                breath_band_hz=(300.0 + 80.0 * k, 1800.0 + 130.0 * k),
                breath_band_level_db=-26.0 + (k % 3),
                rng_seed=int(rng.integers(2**31)),
                name=f"real-{i:04d}",
                speaker_id=speakers[k],
                outlet=real_outlets[i % len(real_outlets)],
            )
        )
    for i in range(args.fake):
        configs.append(
            SynthesisConfig(
                duration_ms=args.duration_ms,
                breaths_per_minute=0.0,
                silent_pauses_per_minute=float(rng.uniform(args.bpm_min, args.bpm_max)),
                rng_seed=int(rng.integers(2**31)),
                name=f"fake-{i:04d}",
                outlet=fake_outlets[i % len(fake_outlets)],
            )
        )
    buffers, interval_sets, entries = synthesize_corpus(configs)
    for buffer, intervals, entry in zip(buffers, interval_sets, entries):
        write_wav(os.path.join(out, entry.source), buffer)
        save_annotations(os.path.join(out, entry.annotation_path), intervals)
    save_manifest(os.path.join(out, "manifest.csv"), entries)
    _write_meta(out, args.seed, {"command": "synth", "configs": [dataclasses.asdict(c) for c in configs]})
    log.info("synthesized %d files into %s", len(entries), out)
    return 0


def _train_detector(manifest: str, settings: dict):
    """A fresh detector trained on an annotated manifest, with its training
    config, the mean loss per epoch and the number of files."""
    train_cfg, model_config = _config(TrainConfig, settings), _config(ModelConfig, settings)
    items = load_frame_corpus(manifest, model_config.features)
    model = BreathDetectorModel(model_config)
    history = train(model, [(item.features, item.frame_labels) for item in items], train_cfg)
    return model, train_cfg, history, len(items)


def cmd_train_breath(args) -> int:
    out = _ensure_out(args)
    model, train_cfg, history, num_files = _train_detector(args.manifest, _settings(args))
    for epoch, loss in enumerate(history, start=1):
        log.info("epoch %d: loss %.6f", epoch, loss)
    save_model(os.path.join(out, "model.bin"), model)
    report = {
        "loss_history": history,
        "num_files": num_files,
        "model_config": dataclasses.asdict(model.config),
        "train_config": dataclasses.asdict(train_cfg),
    }
    _write_json(os.path.join(out, "training_report.json"), report)
    _write_meta(out, train_cfg.seed, {"command": "train-breath", "report": report})
    return 0


def cmd_detect(args) -> int:
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    out = _ensure_out(args)
    settings = _settings(args)
    model = load_model(args.model)
    detection = _detection_config(settings, model)
    rows, errors = detect_manifest(model, args.manifest, detection)
    for file_id, message in errors.items():
        log.warning("skipping %s: %s", file_id, message)
    intervals_dir = os.path.join(out, "intervals")
    os.makedirs(intervals_dir, exist_ok=True)
    for entry, intervals, _ in rows:
        save_annotations(os.path.join(intervals_dir, f"{entry.id}.tsv"), intervals)
    save_stats_csv(os.path.join(out, "stats.csv"), [(e.id, e.label, s) for e, _, s in rows])
    report = {
        "ok": [e.id for e, _, _ in rows],
        "errors": errors,
        "detection_config": dataclasses.asdict(detection),
        "feature_config": dataclasses.asdict(model.config.features),
    }
    _write_json(os.path.join(out, "detect_report.json"), report)
    # detect draws no random numbers; meta.json records the seed setting all the same
    _write_meta(out, settings.get("seed", TrainConfig.seed), {"command": "detect", "report": report})
    if not rows:
        log.error("all %d files failed", len(errors))
        return 1
    return 0


def _evaluate_frames(args, settings: dict, out: str) -> int:
    experiment = settings["experiment"]
    pipeline_only = {
        "--classifier": "classifier" in settings,
        "--svc-coef0": args.svc_coef0 is not None,
        "--model": args.model is not None,
        "--podcast-manifest": args.podcast_manifest is not None,
    }
    for flag, present in pipeline_only.items():
        if present:
            raise ConfigError(f"{flag} applies only to the pipeline experiment, not {experiment}")
    train_cfg, model_config = _config(TrainConfig, settings), _config(ModelConfig, settings)
    items = load_frame_corpus(args.manifest, model_config.features)
    names = ("iterations", "seed") if experiment == "test1" else ("seed",)
    result = _FRAME_TESTS[experiment](items, model_config, train_cfg, **_present(settings, *names))
    doc = result.to_dict()
    _write_json(os.path.join(out, f"experiment_{result.experiment}.json"), doc)
    save_svg(
        os.path.join(out, f"experiment_{result.experiment}.svg"),
        render_box_plot([(result.experiment, result.values)], "Held-out breath AUPRC", "AUPRC"),
    )
    _write_meta(out, result.seed, {"command": "evaluate", "result": doc})
    log.info("%s: mean AUPRC %.4f (std %.4f)", result.experiment, result.mean, result.std)
    return 0


def _evaluate_pipeline(args, settings: dict, out: str) -> int:
    classifier = settings.get("classifier", "svc")  # the library has no default classifier
    if (args.model is None) == (args.podcast_manifest is None):
        raise ConfigError("pipeline evaluation needs exactly one of --model or --podcast-manifest")
    classifier_kwargs = {}
    if args.svc_coef0 is not None:
        if classifier != "svc":
            raise ConfigError(f"--svc-coef0 applies only to the svc classifier, not {classifier}")
        classifier_kwargs["coef0"] = args.svc_coef0
        check_svc_hyperparameters(**classifier_kwargs)
    entries = load_manifest(args.manifest)
    split = outlet_disjoint_split(entries, **_present(settings, "seed"))
    if args.model is not None:
        detector = load_model(args.model)
    else:
        detector = _train_detector(args.podcast_manifest, settings)[0]
        save_model(os.path.join(out, "detector.bin"), detector)
    detection = _detection_config(settings, detector)
    # a split with holes cannot be scored: every failed file is named
    rows, errors = detect_manifest(detector, args.manifest, detection)
    if errors:
        failures = "; ".join(f"{file_id}: {message}" for file_id, message in errors.items())
        raise InputError(f"detection failed for {len(errors)} of {len(entries)} files: {failures}")
    stats = {entry.id: s for entry, _, s in rows}
    result = run_pipeline_eval(
        rows, split, classifier, detector, detection, classifier_kwargs, os.path.basename(args.manifest)
    )
    save_report(os.path.join(out, "report.json"), result.report)
    if result.scored is not None:
        save_scores_csv(os.path.join(out, "scores.csv"), result.scored)
    save_stats_csv(os.path.join(out, "stats.csv"), [(e.id, e.label, s) for e, _, s in rows])
    points = [
        (stats[e.id].avg_breaths_per_minute, stats[e.id].avg_breath_duration_ms, e.label) for e in entries
    ]
    save_svg(
        os.path.join(out, "stats_scatter.svg"),
        render_scatter(points, "Breath statistics by class", "breaths per minute", "avg breath duration (ms)"),
    )
    if classifier == "svc" and result.classifier_model is not None:
        save_svc(os.path.join(out, "classifier_svc.bin"), result.classifier_model)
    elif classifier == "tree" and result.classifier_model is not None:
        save_tree(os.path.join(out, "classifier_tree.json"), result.classifier_model)
    _write_meta(out, split.rng_seed, {"command": "evaluate", "report": result.report.to_dict()})
    log.info(
        "pipeline/%s: accuracy %.4f auprc %s eer %s",
        classifier,
        result.report.point.accuracy,
        result.report.auprc,
        result.report.eer,
    )
    return 0


def cmd_evaluate(args) -> int:
    out = _ensure_out(args)
    settings = _settings(args)
    if "experiment" not in settings:
        raise ConfigError("evaluate needs --experiment or an 'experiment' key in --config")
    if settings["experiment"] == "pipeline":
        return _evaluate_pipeline(args, settings, out)
    return _evaluate_frames(args, settings, out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="breathline", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"breathline {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic labeled corpus")
    _add_flags(p)
    p.add_argument("--real", type=int, default=20, help="number of breath-bearing files")
    p.add_argument("--fake", type=int, default=20, help="number of breath-free files")
    p.add_argument("--duration-ms", dest="duration_ms", type=float, default=30000.0)
    p.add_argument("--bpm-min", dest="bpm_min", type=float, default=REAL_BPM_RANGE[0])
    p.add_argument("--bpm-max", dest="bpm_max", type=float, default=REAL_BPM_RANGE[1])
    p.add_argument("--speakers", type=int, default=4)
    p.add_argument("--real-outlets", dest="real_outlets", type=int, default=2)
    p.add_argument("--fake-outlets", dest="fake_outlets", type=int, default=2)
    p.set_defaults(func=cmd_synth, seed=0)

    p = sub.add_parser("train-breath", help="train the framewise breath detector")
    _add_flags(p, *_FEATURE_SETTINGS, *_TRAIN_SETTINGS)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_train_breath)

    p = sub.add_parser("detect", help="detect breaths and compute statistics over a manifest")
    _add_flags(p, *_DETECT_SETTINGS)
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True, help="trained detector model file")
    p.add_argument("--workers", type=int, default=1, help="ignored (must be >= 1): detection uses every usable CPU")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="run generalizability tests or the pipeline evaluation")
    _add_flags(p, "experiment", "iterations", "classifier", *_FEATURE_SETTINGS, *_DETECT_SETTINGS, *_TRAIN_SETTINGS)
    p.add_argument("--manifest", required=True)
    p.add_argument("--svc-coef0", dest="svc_coef0", type=float, default=None, help="polynomial kernel coef0 of the svc classifier")
    p.add_argument("--model", default=None, help="pretrained detector for pipeline evaluation")
    p.add_argument("--podcast-manifest", dest="podcast_manifest", default=None)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
        _write_run_log(args.out, argv, time.perf_counter() - start)
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BreathlineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _return_free_heap()


if __name__ == "__main__":
    sys.exit(main())
