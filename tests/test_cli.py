"""End-to-end command line checks; heavy work is kept to a few epochs."""

import csv
import dataclasses
import hashlib
import json
import logging
import multiprocessing
import os
import platform
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import breathline
from breathline import evaluation
from breathline.audio_io import AudioBuffer, write_wav
from breathline import cli
from breathline.cli import main, _setup_logging
from breathline.manifest import load_manifest, save_manifest
from breathline.nn import load_model


def _digests(root):
    """filename -> sha256, skipping the timestamped run log."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "run.log":
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _read_stats(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_synth_writes_corpus_and_is_reproducible(tmp_path):
    args = ["synth", "--seed", "9", "--real", "2", "--fake", "1",
            "--duration-ms", "8000", "--speakers", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0

    names = {p.name for p in a.iterdir()}
    assert {"manifest.csv", "meta.json", "run.log"} <= names
    assert len([n for n in names if n.endswith(".wav")]) == 3
    assert len([n for n in names if n.endswith(".tsv")]) == 3
    meta = json.loads((a / "meta.json").read_text())
    assert meta["seed"] == 9 and len(meta["config_digest"]) == 16
    assert _digests(a) == _digests(b)


def test_run_log_records_the_parsed_arguments(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["host-program", "--some-host-flag"])
    argv = ["synth", "--real", "1", "--fake", "0", "--duration-ms", "2000", "--out", str(tmp_path)]
    assert main(argv) == 0
    lines = (tmp_path / "run.log").read_text().splitlines()
    assert lines[1] == "args: " + " ".join(argv)
    assert lines[2].startswith("wall_s: ") and float(lines[2].split()[1]) >= 0.0
    assert lines[3].startswith("VmHWM:") and lines[3].endswith(" kB") and int(lines[3].split()[1]) > 0
    assert lines[4] == f"usable_cpus: {len(os.sched_getaffinity(0))}" and len(lines) == 5


def test_run_log_leaves_out_a_peak_it_cannot_read(tmp_path, monkeypatch):
    real_open = open

    def no_procfs(path, *args, **kwargs):
        if str(path) == "/proc/self/status":
            raise FileNotFoundError(path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", no_procfs)
    assert main(["synth", "--real", "1", "--fake", "0", "--duration-ms", "2000", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "run.log").read_text().splitlines()
    assert lines[2].startswith("wall_s: ") and lines[3].startswith("usable_cpus: ") and len(lines) == 4


def test_main_returns_free_heap_after_every_command(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_return_free_heap", lambda: calls.append(True))
    assert main(["synth", "--real", "1", "--fake", "0", "--duration-ms", "2000", "--out", str(tmp_path)]) == 0
    assert main(["synth", "--real", "1", "--fake", "0", "--duration-ms", "5000", "--bpm-min", "400",
                 "--bpm-max", "400", "--out", str(tmp_path / "x")]) == 2
    assert len(calls) == 2


def _rss_mib():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmRSS:")) / 1024


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc_trim, VmRSS from procfs")
def test_return_free_heap_gives_back_freed_arrays_between_live_ones():
    np.ones(2 << 20)  # freed at once: glibc now keeps 1 MiB arrays on its heap
    arrays = [np.ones(1 << 17) for _ in range(96)]  # 1 MiB each, touched
    del arrays[::2]  # holes that live neighbours keep from merging into the heap top
    before = _rss_mib()
    cli._return_free_heap()
    assert before - _rss_mib() > 24


def test_synth_infeasible_config_exits_2(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "x"), "--real", "1", "--fake", "0",
               "--duration-ms", "5000", "--bpm-min", "400", "--bpm-max", "400"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_train_breath_cli(tmp_path, podcast_dir):
    args = ["train-breath", "--manifest", str(podcast_dir / "manifest.csv"),
            "--epochs", "2", "--lstm-units", "8", "--seed", "4"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0

    model = load_model(a / "model.bin")
    assert model.config.lstm_units == 8 and model.config.seed == 4
    report = json.loads((a / "training_report.json").read_text())
    assert len(report["loss_history"]) == 2
    assert report["num_files"] == 3
    assert (a / "model.bin").read_bytes() == (b / "model.bin").read_bytes()


def test_train_breath_missing_annotation_names_entry(tmp_path, podcast_dir, capsys):
    rows = (podcast_dir / "manifest.csv").read_text().splitlines()
    broken = [rows[0]]
    for line in rows[1:]:
        cells = line.split(",")
        if cells[0] == "real-0001":
            cells[6] = ""
        broken.append(",".join(cells))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(broken) + "\n")
    for item in podcast_dir.iterdir():
        if item.suffix in (".wav", ".tsv"):
            shutil.copy(item, tmp_path / item.name)

    rc = main(["train-breath", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
               "--epochs", "1"])
    assert rc == 1
    assert "real-0001" in capsys.readouterr().err


def test_detect_cli_real_files(tmp_path, podcast_dir, detector):
    _, model_path = detector
    out = tmp_path / "det"
    rc = main(["detect", "--manifest", str(podcast_dir / "manifest.csv"),
               "--model", str(model_path), "--out", str(out), "--workers", "2"])
    assert rc == 0
    rows = _read_stats(out / "stats.csv")
    assert [r["id"] for r in rows] == ["real-0000", "real-0001", "real-0002"]
    assert all(float(r["bpm"]) > 0 for r in rows)
    assert all((out / "intervals" / f"{r['id']}.tsv").exists() for r in rows)
    report = json.loads((out / "detect_report.json").read_text())
    assert report["ok"] == [r["id"] for r in rows] and report["errors"] == {}


def test_detect_cli_fake_files_have_zero_stats(tmp_path, detector):
    _, model_path = detector
    corpus = tmp_path / "fake"
    assert main(["synth", "--out", str(corpus), "--seed", "30", "--real", "0",
                 "--fake", "2", "--duration-ms", "12000", "--speakers", "1"]) == 0
    out = tmp_path / "det"
    assert main(["detect", "--manifest", str(corpus / "manifest.csv"),
                 "--model", str(model_path), "--out", str(out)]) == 0
    rows = _read_stats(out / "stats.csv")
    assert len(rows) == 2
    for row in rows:
        assert row["label"] == "fake"
        assert (row["bpm"], row["avg_duration_ms"], row["avg_spacing_ms"]) == ("0", "0", "0")


def test_detect_cli_skips_unreadable_file(tmp_path, podcast_dir, detector):
    _, model_path = detector
    corpus = tmp_path / "corpus"
    shutil.copytree(podcast_dir, corpus)
    (corpus / "real-0002.wav").write_bytes(b"RIFFnot-audio")
    out = tmp_path / "det"
    assert main(["detect", "--manifest", str(corpus / "manifest.csv"),
                 "--model", str(model_path), "--out", str(out)]) == 0
    rows = _read_stats(out / "stats.csv")
    assert [r["id"] for r in rows] == ["real-0000", "real-0001"]
    report = json.loads((out / "detect_report.json").read_text())
    assert list(report["errors"]) == ["real-0002"]


def test_detect_cli_all_failures_exit_1(tmp_path, podcast_dir, detector):
    _, model_path = detector
    manifest = tmp_path / "manifest.csv"
    manifest.write_text((podcast_dir / "manifest.csv").read_text())
    rc = main(["detect", "--manifest", str(manifest),
               "--model", str(model_path), "--out", str(tmp_path / "det")])
    assert rc == 1


def test_evaluate_test1_cli(tmp_path, podcast_dir):
    out = tmp_path / "eval"
    rc = main(["evaluate", "--experiment", "test1", "--iterations", "2",
               "--manifest", str(podcast_dir / "manifest.csv"), "--out", str(out),
               "--epochs", "2", "--lstm-units", "8", "--seed", "6"])
    assert rc == 0
    doc = json.loads((out / "experiment_test1.json").read_text())
    assert doc["experiment"] == "test1" and len(doc["values"]) == 2
    assert 0.0 <= doc["mean"] <= 1.0
    svg = (out / "experiment_test1.svg").read_text()
    assert svg.startswith("<svg ")


def test_evaluate_pipeline_cli(tmp_path, news_dir, detector):
    _, model_path = detector
    out = tmp_path / "pipe"
    rc = main(["evaluate", "--experiment", "pipeline", "--classifier", "svc",
               "--svc-coef0", "1.0", "--manifest", str(news_dir / "manifest.csv"),
               "--model", str(model_path), "--out", str(out), "--seed", "0"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["positive_label"] == "real"
    assert 0.0 <= report["auprc"] <= 1.0
    assert report["extra"]["outlet_overlap"] == 0
    assert (out / "scores.csv").exists()
    assert (out / "classifier_svc.bin").exists()
    assert len(_read_stats(out / "stats.csv")) == 16
    assert (out / "stats_scatter.svg").read_text().startswith("<svg ")


def test_evaluate_pipeline_threshold_writes_no_scores(tmp_path, news_dir, detector):
    _, model_path = detector
    out = tmp_path / "pipe"
    rc = main(["evaluate", "--experiment", "pipeline", "--classifier", "threshold",
               "--manifest", str(news_dir / "manifest.csv"),
               "--model", str(model_path), "--out", str(out)])
    assert rc == 0
    assert not (out / "scores.csv").exists()
    assert json.loads((out / "report.json").read_text())["auprc"] is None


def test_detect_and_pipeline_write_the_same_stats(tmp_path, news_dir, detector):
    _, model_path = detector
    common = ["--manifest", str(news_dir / "manifest.csv"), "--model", str(model_path)]
    det, pipe = tmp_path / "det", tmp_path / "pipe"
    assert main(["detect", *common, "--out", str(det)]) == 0
    assert main(["evaluate", "--experiment", "pipeline", *common, "--out", str(pipe)]) == 0
    assert (det / "stats.csv").read_bytes() == (pipe / "stats.csv").read_bytes()


def test_evaluate_pipeline_names_every_bad_file(tmp_path, news_dir, detector, capsys):
    _, model_path = detector
    corpus = tmp_path / "news"
    shutil.copytree(news_dir, corpus)
    (corpus / "fake-0002.wav").write_bytes(b"RIFFnot-audio")
    (corpus / "real-0005.wav").write_bytes(b"")
    out = tmp_path / "pipe"
    assert main(["evaluate", "--experiment", "pipeline", "--manifest", str(corpus / "manifest.csv"),
                 "--model", str(model_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "fake-0002" in err and "real-0005" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("relabel", [
    lambda e: e.outlet == "tts0",
    lambda e: e.id in ("real-0000", "real-0002"),
], ids=["unlabeled outlet", "unlabeled in a real outlet"])
def test_evaluate_pipeline_names_every_unlabeled_entry(tmp_path, news_dir, detector, capsys, relabel):
    _, model_path = detector
    corpus = tmp_path / "news"
    shutil.copytree(news_dir, corpus)
    entries = load_manifest(corpus / "manifest.csv")
    unlabeled = [e.id for e in entries if relabel(e)]
    save_manifest(corpus / "manifest.csv",
                  [dataclasses.replace(e, label="unlabeled") if relabel(e) else e for e in entries])
    out = tmp_path / "pipe"
    assert main(["evaluate", "--experiment", "pipeline", "--manifest", str(corpus / "manifest.csv"),
                 "--model", str(model_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "label" in err and all(i in err for i in unlabeled)
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command, code", [("train-breath", 1), ("detect", 0)])
def test_out_of_range_sample_rate(tmp_path, podcast_dir, detector, capsys, command, code):
    _, model_path = detector
    corpus = tmp_path / "corpus"
    shutil.copytree(podcast_dir, corpus)
    wav = corpus / "real-0002.wav"
    blob = wav.read_bytes()
    wav.write_bytes(blob[:24] + (4294967291).to_bytes(4, "little") + blob[28:])
    argv = [command, "--manifest", str(corpus / "manifest.csv"), "--out", str(tmp_path / "out")]
    argv += ["--epochs", "1"] if command == "train-breath" else ["--model", str(model_path)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if command == "detect":
        errors = json.loads((tmp_path / "out" / "detect_report.json").read_text())["errors"]
        assert list(errors) == ["real-0002"] and "sample rate" in errors["real-0002"]
    else:
        assert err.startswith("error:") and "sample rate" in err


def _nan_float_wav(path):
    write_wav(path, AudioBuffer(np.zeros(1600), 16000), encoding="float32")
    blob = path.read_bytes()
    path.write_bytes(blob[:-4] + struct.pack("<f", float("nan")))


@pytest.mark.parametrize("write, error", [
    (lambda path: write_wav(path, AudioBuffer(np.zeros(0), 16000)), "total_duration_ms must be positive"),
    (lambda path: write_wav(path, AudioBuffer(np.full(100, 0.1), 16000)), None),
    (_nan_float_wav, "non-finite sample values"),
], ids=["empty", "shorter than one window", "nan"])
def test_detect_degenerate_audio(tmp_path, podcast_dir, detector, capsys, write, error):
    """An empty or NaN WAV is a per-file error; audio shorter than one
    20 ms window has 0 breaths. Neither prints a traceback."""
    _, model_path = detector
    corpus = tmp_path / "corpus"
    shutil.copytree(podcast_dir, corpus)
    write(corpus / "real-0002.wav")
    out = tmp_path / "det"
    assert main(["detect", "--manifest", str(corpus / "manifest.csv"),
                 "--model", str(model_path), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "detect_report.json").read_text())
    rows = {r["id"]: r for r in _read_stats(out / "stats.csv")}
    if error is None:
        assert report["errors"] == {} and "real-0002" in report["ok"]
        assert (rows["real-0002"]["bpm"], rows["real-0002"]["avg_duration_ms"]) == ("0", "0")
    else:
        assert list(report["errors"]) == ["real-0002"] and error in report["errors"]["real-0002"]
        assert "real-0002" not in rows


def test_train_breath_and_test3_on_synth_fakes(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--seed", "3", "--real", "2", "--fake", "2",
                 "--duration-ms", "4000", "--speakers", "2"]) == 0
    manifest = str(corpus / "manifest.csv")
    assert main(["train-breath", "--manifest", manifest, "--out", str(tmp_path / "train"),
                 "--epochs", "1", "--lstm-units", "4"]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--experiment", "test3", "--manifest", manifest, "--out", str(tmp_path / "t3"),
                 "--epochs", "1", "--lstm-units", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "fake-0000" in err and "fake-0001" in err and "real-0000" not in err


def test_evaluate_folds_are_identical_at_one_and_two_workers(tmp_path, podcast_dir, monkeypatch):
    digests = {}
    for cpus in (1, 2):
        monkeypatch.setattr(evaluation, "usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["evaluate", "--experiment", "test2", "--manifest", str(podcast_dir / "manifest.csv"),
                     "--epochs", "2", "--lstm-units", "8", "--seed", "4", "--out", str(out)]) == 0
        digests[cpus] = _digests(out)
    assert "experiment_test2.json" in digests[1]
    assert digests[1] == digests[2]


def _exit_abruptly(*job):
    os._exit(3)


def test_evaluate_fold_failures_exit_1_at_two_workers(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--seed", "3", "--real", "2", "--fake", "0",
                 "--duration-ms", "1500", "--speakers", "2"]) == 0
    args = ["evaluate", "--experiment", "test2", "--manifest", str(corpus / "manifest.csv"),
            "--epochs", "1", "--lstm-units", "4", "--out", str(tmp_path / "t2")]
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 2)
    capsys.readouterr()
    # too short for one training chunk: the worker's TrainingError reaches the CLI
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "long enough for a 800-frame chunk" in err
    monkeypatch.setattr(evaluation, "fit_and_predict", _exit_abruptly)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ended abruptly" in err and "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_evaluate_test1_needs_two_podcasts(tmp_path, capsys):
    # with one podcast the held-out block would be the whole file
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--seed", "1", "--real", "1", "--fake", "0",
                 "--duration-ms", "40000"]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--experiment", "test1", "--manifest", str(corpus / "manifest.csv"),
                 "--epochs", "1", "--lstm-units", "4", "--out", str(tmp_path / "t1")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "test1 needs at least 2 podcasts" in err


def test_evaluate_pipeline_needs_a_detector(tmp_path, news_dir, capsys):
    rc = main(["evaluate", "--experiment", "pipeline",
               "--manifest", str(news_dir / "manifest.csv"), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "--model or --podcast-manifest" in capsys.readouterr().err


def test_unknown_experiment_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--experiment", "test9",
              "--manifest", "m.csv", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_config_file_matches_flags(tmp_path, podcast_dir):
    common = ["evaluate", "--experiment", "test1", "--manifest", str(podcast_dir / "manifest.csv")]
    config = tmp_path / "exp.cfg"
    config.write_text("iterations = 2\nseed = 7\nepochs = 2\nlstm_units = 8\n")
    by_file, by_flags = tmp_path / "file", tmp_path / "flags"
    assert main(common + ["--config", str(config), "--out", str(by_file)]) == 0
    assert main(common + ["--iterations", "2", "--seed", "7", "--epochs", "2", "--lstm-units", "8",
                          "--out", str(by_flags)]) == 0
    assert _digests(by_file) == _digests(by_flags)
    doc = json.loads((by_file / "experiment_test1.json").read_text())
    assert len(doc["values"]) == 2 and doc["seed"] == 7


def test_flags_win_over_config_file(tmp_path, podcast_dir):
    config = tmp_path / "exp.cfg"
    config.write_text("seed = 7\nepochs = 3\nlstm_units = 4\nchunk_frames = 400\n")
    out = tmp_path / "train"
    assert main(["train-breath", "--manifest", str(podcast_dir / "manifest.csv"), "--config", str(config),
                 "--epochs", "1", "--lstm-units", "8", "--out", str(out)]) == 0
    report = json.loads((out / "training_report.json").read_text())
    assert report["train_config"]["epochs"] == 1 and len(report["loss_history"]) == 1
    assert report["model_config"]["lstm_units"] == 8
    # keys whose flag is absent still apply
    assert report["train_config"]["seed"] == 7 and report["model_config"]["seed"] == 7
    assert report["model_config"]["chunk_frames"] == 400
    assert json.loads((out / "meta.json").read_text())["seed"] == 7


def test_detect_takes_settings_from_config_file(tmp_path, podcast_dir, detector):
    _, model_path = detector
    config = tmp_path / "det.cfg"
    config.write_text("threshold = 0.7\nmin_breath_ms = 200\nseed = 3\n")
    out = tmp_path / "det"
    assert main(["detect", "--manifest", str(podcast_dir / "manifest.csv"), "--model", str(model_path),
                 "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "detect_report.json").read_text())
    assert report["detection_config"]["binarize_threshold"] == 0.7
    assert report["detection_config"]["min_breath_ms"] == 200.0
    assert json.loads((out / "meta.json").read_text())["seed"] == 3


def test_config_file_alone_picks_experiment_and_classifier(tmp_path, news_dir, detector):
    _, model_path = detector
    config = tmp_path / "exp.cfg"
    config.write_text("experiment = pipeline\nclassifier = tree\n")
    out = tmp_path / "pipe"
    assert main(["evaluate", "--config", str(config), "--manifest", str(news_dir / "manifest.csv"),
                 "--model", str(model_path), "--out", str(out)]) == 0
    assert (out / "classifier_tree.json").exists()
    assert not (out / "classifier_svc.bin").exists()


@pytest.mark.parametrize("command, extra", [
    ("train-breath", ["--batch-size", "0"]),
    ("train-breath", ["--window-ms", "nan"]),
    ("detect", ["--min-breath-ms", "nan"]),
    ("detect", ["--workers", "0"]),
    ("evaluate", []),
    ("train-breath", ["--lstm-units", "1000000"]),
    ("evaluate", ["--experiment", "pipeline", "--seed", "-1"]),
    ("evaluate", ["--experiment", "pipeline", "--svc-coef0", "nan"]),
    ("evaluate", ["--experiment", "pipeline", "--classifier", "tree", "--svc-coef0", "nan"]),
    ("evaluate", ["--experiment", "pipeline", "--podcast-manifest", "podcasts.csv"]),
    ("evaluate", ["--experiment", "test1", "--classifier", "tree"]),
    ("evaluate", ["--experiment", "test2", "--svc-coef0", "1.0"]),
    ("evaluate", ["--experiment", "test3", "--model", "model.bin"]),
    ("evaluate", ["--experiment", "test1", "--podcast-manifest", "podcasts.csv"]),
], ids=["batch size 0", "window nan", "min breath nan", "workers 0", "no experiment", "huge lstm",
        "pipeline seed -1", "svc coef0 nan", "tree with svc coef0", "two detectors",
        "test1 with classifier", "test2 with svc coef0", "test3 with model", "test1 with podcast manifest"])
def test_bad_setting_exits_2(tmp_path, podcast_dir, detector, capsys, command, extra):
    """A bad setting exits 2 before any audio is read: the manifest's WAVs
    are missing, which a detection pass or a frame experiment would report
    with exit 1."""
    _, model_path = detector
    manifest = tmp_path / "manifest.csv"
    manifest.write_text((podcast_dir / "manifest.csv").read_text())
    argv = [command, "--manifest", str(manifest), "--out", str(tmp_path / "out")]
    if command == "detect" or "pipeline" in extra:
        argv += ["--model", str(model_path)]
    assert main(argv + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("corrupt", [
    lambda text: text + b"\xff\n",
    lambda text: text + b"big," + b"x" * 131073 + b",real,,show1,,\n",
], ids=["non-utf8 byte", "oversized field"])
def test_unreadable_manifest_exits_1(tmp_path, podcast_dir, capsys, corrupt):
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(corrupt((podcast_dir / "manifest.csv").read_bytes()))
    rc = main(["train-breath", "--manifest", str(manifest), "--out", str(tmp_path / "out"), "--epochs", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(manifest) in err and "Traceback" not in err


def test_non_utf8_label_track_exits_1(tmp_path, podcast_dir, capsys):
    for item in podcast_dir.iterdir():
        if item.suffix in (".wav", ".tsv", ".csv"):
            shutil.copy(item, tmp_path / item.name)
    track = tmp_path / "real-0000.tsv"
    track.write_bytes(b"\xff" + track.read_bytes())
    rc = main(["train-breath", "--manifest", str(tmp_path / "manifest.csv"), "--out", str(tmp_path / "out"),
               "--epochs", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(track) in err and "Traceback" not in err


def test_non_utf8_settings_file_exits_2(tmp_path, podcast_dir, capsys):
    config = tmp_path / "settings.cfg"
    config.write_bytes("experiment = test1\n# caf\xe9\n".encode("latin-1"))
    rc = main(["evaluate", "--manifest", str(podcast_dir / "manifest.csv"), "--out", str(tmp_path / "out"),
               "--config", str(config)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(config) in err and "Traceback" not in err


def test_detect_uses_the_detectors_features(tmp_path, podcast_dir):
    train_out, out = tmp_path / "train", tmp_path / "det"
    assert main(["train-breath", "--manifest", str(podcast_dir / "manifest.csv"), "--hop-ms", "5",
                 "--epochs", "12", "--batch-size", "4", "--learning-rate", "0.005", "--seed", "3",
                 "--out", str(train_out)]) == 0
    assert main(["detect", "--manifest", str(podcast_dir / "manifest.csv"),
                 "--model", str(train_out / "model.bin"), "--out", str(out)]) == 0
    report = json.loads((out / "detect_report.json").read_text())
    assert report["feature_config"]["hop_ms"] == 5.0
    assert report["detection_config"]["step_ms"] == 100.0
    edges = [float(cell) * 1000.0 for path in (out / "intervals").iterdir()
             for line in path.read_text().splitlines() for cell in line.split("\t")[:2]]
    assert all(edge / 100.0 == pytest.approx(round(edge / 100.0)) for edge in edges)
    assert all(float(row["bpm"]) > 0 for row in _read_stats(out / "stats.csv"))


@pytest.mark.parametrize("command, extra, config, code", [
    ("detect", [], "window_ms = 25\n", 2),
    ("evaluate", ["--experiment", "pipeline", "--n-mels", "64"], "", 2),
    ("detect", [], "window_ms = 20\nhop_ms = 2.5\nn_mels = 128\n", 0),
], ids=["detect window from file", "pipeline n_mels flag", "equal values"])
def test_feature_setting_must_match_the_detector(tmp_path, podcast_dir, detector, capsys, command, extra, config,
                                                 code):
    _, model_path = detector
    (tmp_path / "exp.cfg").write_text(config)
    assert main([command, "--manifest", str(podcast_dir / "manifest.csv"), "--model", str(model_path),
                 "--config", str(tmp_path / "exp.cfg"), "--out", str(tmp_path / "out"), *extra]) == code
    err = capsys.readouterr().err
    assert code == 0 or (err.startswith("error:") and "detector" in err)


@pytest.mark.parametrize("extra", [
    ["--speakers", "0"], ["--real-outlets", "0"], ["--fake-outlets", "0"], ["--duration-ms", "nan"],
    ["--bpm-min", "nan", "--bpm-max", "nan"], ["--seed", "-1"], ["--duration-ms", "1e12"],
], ids=["no speakers", "no real outlets", "no fake outlets", "duration nan", "bpm nan", "negative seed",
        "duration 1e12"])
def test_synth_degenerate_setting_exits_2(tmp_path, capsys, extra):
    argv = ["synth", "--out", str(tmp_path / "x"), "--real", "1", "--fake", "1", "--duration-ms", "4000"]
    assert main(argv + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def _install_console_script(name, bin_dir):
    """Write the wrapper an installer makes for `name` in [project.scripts]."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        spec = tomllib.load(f)["project"]["scripts"][name]
    module, _, func = spec.partition(":")
    bin_dir.mkdir()
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    script.chmod(0o755)


def test_version_runs_from_installed_script(tmp_path):
    _install_console_script("breathline", tmp_path / "bin")
    env = dict(
        os.environ,
        PATH=os.pathsep.join([str(tmp_path / "bin"), os.environ.get("PATH", "")]),
        PYTHONPATH=str(Path(breathline.__file__).resolve().parents[1]),
    )
    proc = subprocess.run(["breathline", "--version"], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("breathline ")


def test_log_level_env(monkeypatch):
    seen = {}
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: seen.update(kw))
    monkeypatch.setenv("BREATHLINE_LOG", "debug")
    _setup_logging()
    assert seen["level"] == logging.DEBUG
    monkeypatch.setenv("BREATHLINE_LOG", "loud")
    _setup_logging()
    assert seen["level"] == logging.WARNING
