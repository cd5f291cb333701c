"""Command-line entry point.

Subcommands: `synth` renders a labeled synthetic corpus, `train-breath`
fits the framewise detector, `detect` runs detection plus statistics
over a manifest, and `evaluate` drives the generalizability tests and
the end-to-end pipeline evaluation.

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
import functools
import json
import logging
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .annotations import save_annotations
from .audio_io import CANONICAL_RATE, load_wav, resample, write_wav
from .breath_stats import compute_stats, save_stats_csv
from .classifiers import save_svc, save_tree
from .errors import BreathlineError, ConfigError
from .evaluation import (
    digest_config,
    load_frame_corpus,
    load_sample_corpus,
    outlet_disjoint_split,
    parse_experiment_config,
    run_pipeline_eval,
    test1_contiguous_kfold,
    test2_leave_one_podcast,
    test3_leave_one_speaker,
)
from .features import FeatureConfig
from .manifest import load_manifest, save_manifest
from .metrics import save_report, save_scores_csv
from .nn import BreathDetectorModel, ModelConfig, TrainConfig, load_model, save_model, train
from .plots import render_box_plot, render_scatter, save_svg
from .postprocess import DetectionConfig, detect_breaths
from .synth import REAL_BPM_RANGE, SynthesisConfig, synthesize_corpus

log = logging.getLogger("breathline")


def _setup_logging() -> None:
    name = os.environ.get("BREATHLINE_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_meta(out_dir: str, seed: int, config_obj) -> None:
    meta = {"tool_version": __version__, "config_digest": digest_config(config_obj), "seed": seed}
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump(meta, f, sort_keys=True, indent=2)
        f.write("\n")


def _write_run_log(out_dir: str, argv) -> None:
    # the only artifact allowed to carry wall-clock timestamps
    with open(os.path.join(out_dir, "run.log"), "w") as f:
        f.write(f"{time.strftime('%Y-%m-%dT%H:%M:%S%z')} breathline {__version__}\n")
        f.write("args: " + " ".join(argv) + "\n")


def _pick(args, file_cfg: dict, name: str, default):
    """An explicit flag wins, then the config file's value, then `default`."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    return file_cfg.get(name, default)


def _configs_from_args(args) -> tuple[dict, FeatureConfig, TrainConfig, dict]:
    """Merge the optional key-value config file with CLI flags; explicit
    flags win, then file values, then library defaults."""
    file_cfg = parse_experiment_config(args.config) if getattr(args, "config", None) else {}
    pick = functools.partial(_pick, args, file_cfg)
    feature = FeatureConfig(
        window_ms=pick("window_ms", 20.0), hop_ms=pick("hop_ms", 2.5), n_mels=pick("n_mels", 128)
    )
    train_cfg = TrainConfig(
        epochs=pick("epochs", 30),
        batch_size=pick("batch_size", 32),
        learning_rate=pick("learning_rate", 1e-3),
        seed=args.seed,
    )
    model_kwargs = dict(
        input_dim=feature.dim,
        lstm_units=pick("lstm_units", 32),
        chunk_frames=pick("chunk_frames", 800),
        seed=args.seed,
    )
    return file_cfg, feature, train_cfg, model_kwargs


def _detection_config(args, feature: FeatureConfig, frames_per_step: int, file_cfg: dict) -> DetectionConfig:
    return DetectionConfig(
        binarize_threshold=_pick(args, file_cfg, "threshold", 0.5),
        step_ms=feature.hop_ms * frames_per_step,
        min_breath_ms=_pick(args, file_cfg, "min_breath_ms", 150.0),
    )


def cmd_synth(args) -> int:
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
    _write_run_log(out, sys.argv[1:])
    log.info("synthesized %d files into %s", len(entries), out)
    return 0


def cmd_train_breath(args) -> int:
    out = _ensure_out(args)
    _, feature, train_cfg, model_kwargs = _configs_from_args(args)
    corpus = load_frame_corpus(args.manifest, feature)
    model = BreathDetectorModel(ModelConfig(**model_kwargs))
    history = train(model, [(item.features, item.frame_labels) for item in corpus], train_cfg)
    for epoch, loss in enumerate(history, start=1):
        log.info("epoch %d: loss %.6f", epoch, loss)
    save_model(os.path.join(out, "model.bin"), model)
    report = {
        "loss_history": history,
        "num_files": len(corpus),
        "model_config": dataclasses.asdict(model.config),
        "train_config": dataclasses.asdict(train_cfg),
        "feature_config": dataclasses.asdict(feature),
    }
    with open(os.path.join(out, "training_report.json"), "w") as f:
        json.dump(report, f, sort_keys=True, indent=2)
        f.write("\n")
    _write_meta(out, args.seed, {"command": "train-breath", "report": report})
    _write_run_log(out, sys.argv[1:])
    return 0


def cmd_detect(args) -> int:
    out = _ensure_out(args)
    file_cfg, feature, _, _ = _configs_from_args(args)
    model = load_model(args.model)
    detection = _detection_config(args, feature, model.config.frames_per_step, file_cfg)
    entries = load_manifest(args.manifest)
    base = os.path.dirname(os.fspath(args.manifest))
    intervals_dir = os.path.join(out, "intervals")
    os.makedirs(intervals_dir, exist_ok=True)

    def process(entry):
        audio = load_wav(os.path.join(base, entry.source))
        if audio.sample_rate != CANONICAL_RATE:
            audio = resample(audio, CANONICAL_RATE)
        intervals = detect_breaths(model, audio, feature, detection)
        return entry, intervals, compute_stats(intervals, audio.duration_ms)

    results, errors = [], {}
    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        futures = {pool.submit(process, entry): entry for entry in entries}
        for future, entry in futures.items():
            try:
                results.append(future.result())
            except (BreathlineError, OSError) as exc:
                errors[entry.id] = str(exc)
                log.warning("skipping %s: %s", entry.id, exc)
    results.sort(key=lambda r: r[0].id)
    for entry, intervals, _ in results:
        save_annotations(os.path.join(intervals_dir, f"{entry.id}.tsv"), intervals)
    save_stats_csv(os.path.join(out, "stats.csv"), [(e.id, e.label, s) for e, _, s in results])
    report = {
        "ok": [e.id for e, _, _ in results],
        "errors": dict(sorted(errors.items())),
        "detection_config": dataclasses.asdict(detection),
        "feature_config": dataclasses.asdict(feature),
    }
    with open(os.path.join(out, "detect_report.json"), "w") as f:
        json.dump(report, f, sort_keys=True, indent=2)
        f.write("\n")
    _write_meta(out, args.seed, {"command": "detect", "report": report})
    _write_run_log(out, sys.argv[1:])
    if not results:
        log.error("all %d files failed", len(entries))
        return 1
    return 0


def _evaluate_frames(args, out: str) -> int:
    _, feature, train_cfg, model_kwargs = _configs_from_args(args)
    corpus = load_frame_corpus(args.manifest, feature)
    model_config = ModelConfig(**model_kwargs)
    runners = {
        "test1": lambda: test1_contiguous_kfold(
            corpus, model_config, train_cfg, iterations=args.iterations, seed=args.seed
        ),
        "test2": lambda: test2_leave_one_podcast(corpus, model_config, train_cfg, seed=args.seed),
        "test3": lambda: test3_leave_one_speaker(corpus, model_config, train_cfg, seed=args.seed),
    }
    result = runners[args.experiment]()
    doc = result.to_dict()
    with open(os.path.join(out, f"experiment_{result.experiment}.json"), "w") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")
    save_svg(
        os.path.join(out, f"experiment_{result.experiment}.svg"),
        render_box_plot([(result.experiment, result.values)], "Held-out breath AUPRC", "AUPRC"),
    )
    _write_meta(out, args.seed, {"command": "evaluate", "result": doc})
    log.info("%s: mean AUPRC %.4f (std %.4f)", result.experiment, result.mean, result.std)
    return 0


def _evaluate_pipeline(args, out: str) -> int:
    file_cfg, feature, train_cfg, model_kwargs = _configs_from_args(args)
    corpus = load_sample_corpus(args.manifest)
    if args.model:
        detector = load_model(args.model)
    elif args.podcast_manifest:
        podcast_corpus = load_frame_corpus(args.podcast_manifest, feature)
        detector = BreathDetectorModel(ModelConfig(**model_kwargs))
        train(detector, [(i.features, i.frame_labels) for i in podcast_corpus], train_cfg)
        save_model(os.path.join(out, "detector.bin"), detector)
    else:
        raise ConfigError("pipeline evaluation needs --model or --podcast-manifest")
    detection = _detection_config(args, feature, detector.config.frames_per_step, file_cfg)
    split = outlet_disjoint_split(corpus, seed=args.seed)
    classifier_kwargs = {}
    if args.classifier == "svc" and args.svc_coef0 is not None:
        classifier_kwargs["coef0"] = args.svc_coef0
    result = run_pipeline_eval(
        corpus, split, args.classifier, detector, feature, detection, classifier_kwargs=classifier_kwargs
    )
    save_report(os.path.join(out, "report.json"), result.report)
    if result.scored is not None:
        save_scores_csv(os.path.join(out, "scores.csv"), result.scored)
    save_stats_csv(os.path.join(out, "stats.csv"), sorted(result.stats, key=lambda r: r[0]))
    points = [
        (s.avg_breaths_per_minute, s.avg_breath_duration_ms, label) for _, label, s in result.stats
    ]
    save_svg(
        os.path.join(out, "stats_scatter.svg"),
        render_scatter(points, "Breath statistics by class", "breaths per minute", "avg breath duration (ms)"),
    )
    if args.classifier == "svc" and result.classifier_model is not None:
        save_svc(os.path.join(out, "classifier_svc.bin"), result.classifier_model)
    elif args.classifier == "tree" and result.classifier_model is not None:
        save_tree(os.path.join(out, "classifier_tree.json"), result.classifier_model)
    _write_meta(out, args.seed, {"command": "evaluate", "report": result.report.to_dict()})
    log.info(
        "pipeline/%s: accuracy %.4f auprc %s eer %s",
        args.classifier,
        result.report.point.accuracy,
        result.report.auprc,
        result.report.eer,
    )
    return 0


def cmd_evaluate(args) -> int:
    out = _ensure_out(args)
    if args.experiment == "pipeline":
        code = _evaluate_pipeline(args, out)
    else:
        code = _evaluate_frames(args, out)
    _write_run_log(out, sys.argv[1:])
    return code


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0)


def _add_feature_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--window-ms", dest="window_ms", type=float, default=None)
    parser.add_argument("--hop-ms", dest="hop_ms", type=float, default=None)
    parser.add_argument("--n-mels", dest="n_mels", type=int, default=None)
    parser.add_argument("--config", default=None, help="key = value experiment config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="breathline", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"breathline {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic labeled corpus")
    _add_common(p)
    p.add_argument("--real", type=int, default=20, help="number of breath-bearing files")
    p.add_argument("--fake", type=int, default=20, help="number of breath-free files")
    p.add_argument("--duration-ms", dest="duration_ms", type=float, default=30000.0)
    p.add_argument("--bpm-min", dest="bpm_min", type=float, default=REAL_BPM_RANGE[0])
    p.add_argument("--bpm-max", dest="bpm_max", type=float, default=REAL_BPM_RANGE[1])
    p.add_argument("--speakers", type=int, default=4)
    p.add_argument("--real-outlets", dest="real_outlets", type=int, default=2)
    p.add_argument("--fake-outlets", dest="fake_outlets", type=int, default=2)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-breath", help="train the framewise breath detector")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    _add_feature_flags(p)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--lstm-units", dest="lstm_units", type=int, default=None)
    p.set_defaults(func=cmd_train_breath)

    p = sub.add_parser("detect", help="detect breaths and compute statistics over a manifest")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True, help="trained detector model file")
    _add_feature_flags(p)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--min-breath-ms", dest="min_breath_ms", type=float, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="run generalizability tests or the pipeline evaluation")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--experiment", required=True, choices=["test1", "test2", "test3", "pipeline"])
    p.add_argument("--iterations", type=int, default=100, help="test1 iteration count")
    p.add_argument("--classifier", choices=["threshold", "svc", "tree"], default="svc")
    p.add_argument("--svc-coef0", dest="svc_coef0", type=float, default=None, help="polynomial kernel coef0 override")
    p.add_argument("--model", default=None, help="pretrained detector for pipeline evaluation")
    p.add_argument("--podcast-manifest", dest="podcast_manifest", default=None)
    _add_feature_flags(p)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--min-breath-ms", dest="min_breath_ms", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--lstm-units", dest="lstm_units", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BreathlineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
