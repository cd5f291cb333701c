"""Acceptance gate: eight end-to-end checks, one printed line each.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion
verdict lines; without -s they still run, pytest just captures the
output. Each check asserts, so a plain pytest run fails loudly.
"""

import hashlib
import math
import time

import numpy as np

from oracles import (
    central_difference,
    enum_auprc,
    enum_eer,
    naive_mel_db,
    naive_rmse_db,
    naive_zcr,
    qp_dual_solve,
)

from breathline.annotations import frames_from_intervals
from breathline.audio_io import AudioBuffer
from breathline.breath_stats import BreathStats
from breathline.classifiers import LabeledSample, poly_kernel, svc_train
from breathline.cli import main
from breathline.evaluation import (
    CorpusItem,
    detect_manifest,
    outlet_disjoint_split,
    run_pipeline_eval,
)
from breathline.evaluation import test1_contiguous_kfold as contiguous_kfold
from breathline.evaluation import test2_leave_one_podcast as leave_one_podcast
from breathline.evaluation import test3_leave_one_speaker as leave_one_speaker
from breathline.features import FeatureConfig, extract_features
from breathline.manifest import load_manifest
from breathline.metrics import ScoredPredictions, auprc, counts_to_metrics, eer
from breathline.nn import BreathDetectorModel, ModelConfig, TrainConfig, load_model
from breathline.nn.layers import BatchNorm1D, Conv1D, Dropout, MaxPool1D, Sigmoid, TimeDense
from breathline.nn.recurrent import BiLSTM
from breathline.nn.train import bce_loss
from breathline.postprocess import DetectionConfig, slices_to_intervals
from breathline.synth import SynthesisConfig, synthesize_one

SR = 16000
TOY = ModelConfig(
    n_mels=4, conv_filters=(4, 3), conv_kernels=(3, 1), pool_strides=(4, 5),
    lstm_units=4, chunk_frames=40, seed=0,
)


def _verdict(num: int, ok: bool, name: str, detail: str, t0: float) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} {name}: {detail} ({time.monotonic() - t0:.1f}s)", flush=True)
    return ok


def _probe_worst(loss, pairs, picker, n=10) -> float:
    """Max guarded relative error between analytic and central-difference
    gradients over n randomly chosen coordinates."""
    worst = 0.0
    for _ in range(n):
        arr, grad = pairs[int(picker.integers(len(pairs)))]
        i = int(picker.integers(arr.size))
        fd = central_difference(loss, arr, i)
        a = float(grad.reshape(-1)[i])
        worst = max(worst, abs(a - fd) / max(1.0, abs(a)))
    return worst


def _layer_pairs(layer, x, dx):
    return [(layer.params[k], layer.grads[k]) for k in layer.params] + [(x, dx)]


def test_criterion_1_gradients():
    t0 = time.monotonic()
    picker = np.random.default_rng(99)
    worst = {}

    for k in range(10):
        rng = np.random.default_rng(100 + k)
        layer = Conv1D(3, 4, 3, rng)
        x = rng.normal(size=(2, 9, 3))
        up = rng.normal(size=(2, 9, 4))
        loss = lambda: float(np.sum(layer.forward(x, training=True) * up))
        loss()
        dx = layer.backward(up)
        worst["conv1d"] = max(worst.get("conv1d", 0.0), _probe_worst(loss, _layer_pairs(layer, x, dx), picker))

    for k in range(10):
        rng = np.random.default_rng(200 + k)
        layer = BatchNorm1D(4)
        layer.gamma[:] = rng.normal(1.0, 0.2, size=4)
        layer.beta[:] = rng.normal(size=4)
        x = rng.normal(size=(2, 9, 4))
        up = rng.normal(size=(2, 9, 4))
        loss = lambda: float(np.sum(layer.forward(x, training=True) * up))
        loss()
        dx = layer.backward(up)
        worst["batch-norm"] = max(worst.get("batch-norm", 0.0), _probe_worst(loss, _layer_pairs(layer, x, dx), picker))

    for k in range(10):
        rng = np.random.default_rng(300 + k)
        stride = 4 if k % 2 == 0 else 5
        layer = MaxPool1D(3, stride)
        # continuous draws keep window maxima unique, so the subgradient
        # choice cannot flip inside the finite-difference step
        x = rng.uniform(0.0, 10.0, size=(2, 23, 3))
        up = rng.normal(size=(2, layer.output_length(23), 3))
        loss = lambda: float(np.sum(layer.forward(x, training=True) * up))
        loss()
        dx = layer.backward(up)
        worst["max-pool"] = max(worst.get("max-pool", 0.0), _probe_worst(loss, [(x, dx)], picker))

    for k in range(10):
        rng = np.random.default_rng(400 + k)
        layer = Dropout(0.2)
        x = rng.normal(size=(2, 9, 4))
        up = rng.normal(size=(2, 9, 4))
        layer.forward(x, True, np.random.default_rng(5000 + k))  # fix the mask
        loss = lambda: float(np.sum(layer.forward(x, True, None) * up))
        loss()
        dx = layer.backward(up)
        worst["dropout"] = max(worst.get("dropout", 0.0), _probe_worst(loss, [(x, dx)], picker))

    for k in range(10):
        rng = np.random.default_rng(500 + k)
        layer = BiLSTM(3, 4, rng)
        x = rng.normal(size=(2, 7, 3))
        up = rng.normal(size=(2, 7, 8))
        loss = lambda: float(np.sum(layer.forward(x, training=True) * up))
        loss()
        dx = layer.backward(up)
        worst["bilstm"] = max(worst.get("bilstm", 0.0), _probe_worst(loss, _layer_pairs(layer, x, dx), picker))

    for k in range(10):
        rng = np.random.default_rng(600 + k)
        dense = TimeDense(4, 2, rng)
        sig = Sigmoid()
        x = rng.normal(size=(2, 5, 4))
        up = rng.normal(size=(2, 5, 2))
        loss = lambda: float(np.sum(sig.forward(dense.forward(x, training=True), training=True) * up))
        loss()
        dx = dense.backward(sig.backward(up))
        worst["dense+sigmoid"] = max(worst.get("dense+sigmoid", 0.0), _probe_worst(loss, _layer_pairs(dense, x, dx), picker))

    import dataclasses

    for k in range(10):
        rng = np.random.default_rng(700 + k)
        model = BreathDetectorModel(dataclasses.replace(TOY, seed=2000 + k))
        x = rng.normal(size=(1, 40, 6))
        y = (rng.uniform(size=(1, 2)) < 0.5).astype(np.float64)
        model.forward(x, training=True, rng=np.random.default_rng(9))  # fix dropout masks

        def loss():
            return bce_loss(model.forward(x, training=True, rng=None), y)[0]

        _, grad = bce_loss(model.forward(x, training=True, rng=None), y)
        model.backward(grad)
        params, grads = model.parameters(), model.gradients()
        pairs = [(params[name], grads[name]) for name in params]
        worst["composed"] = max(worst.get("composed", 0.0), _probe_worst(loss, pairs, picker))

    elapsed = time.monotonic() - t0
    peak = max(worst.values())
    ok = peak < 1e-4 and elapsed < 120.0
    _verdict(1, ok, "analytic gradients vs central differences", f"max rel err {peak:.2e}", t0)
    assert ok, worst


def _frames(signal, window=320, hop=40):
    count = len(signal) // hop
    out = np.zeros((count, window))
    padded = np.concatenate([signal, np.zeros(window)])
    for t in range(count):
        out[t] = padded[t * hop : t * hop + window]
    return out


def test_criterion_2_feature_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    worst = 0.0
    for case in range(50):
        sigma = 10.0 ** rng.uniform(-3.0, -0.8)
        x = rng.normal(0.0, sigma, SR)
        if case % 3 == 0:
            freq = rng.uniform(80.0, 6000.0)
            x = x + 0.3 * np.sin(2.0 * np.pi * freq * np.arange(SR) / SR)
        x = np.clip(x, -1.0, 1.0).astype(np.float32)
        fm = extract_features(AudioBuffer(x, SR), FeatureConfig())
        frames = _frames(x.astype(np.float64))
        want = np.column_stack(
            [naive_mel_db(frames, 128, SR), naive_zcr(frames), naive_rmse_db(frames)]
        )
        rel = np.abs(fm.data - want) / np.maximum(1.0, np.abs(want))
        worst = max(worst, float(rel.max()))

    counts_ok = True
    for _ in range(200):
        n = int(rng.integers(320, 48000))
        counts_ok &= extract_features(AudioBuffer(np.zeros(n), SR)).num_frames == n // 40

    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and counts_ok and elapsed < 60.0
    _verdict(2, ok, "features vs definition-loop oracles", f"max rel err {worst:.2e}", t0)
    assert ok, (worst, counts_ok, elapsed)


def test_criterion_3_metric_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    auprc_exact = True
    eer_worst = 0.0
    for case in range(1000):
        n = int(rng.integers(2, 11))
        truths = rng.integers(0, 2, size=n)
        while truths.min() == truths.max():
            truths = rng.integers(0, 2, size=n)
        if case % 2 == 0:
            scores = rng.choice(np.linspace(0.0, 1.0, 6), size=n)  # heavy ties
        else:
            scores = rng.uniform(size=n)
        sp = ScoredPredictions(scores=scores, truths=truths)
        auprc_exact &= auprc(sp) == enum_auprc(scores, truths.astype(bool))
        eer_worst = max(eer_worst, abs(eer(sp) - enum_eer(scores, truths.astype(bool))))

    row = counts_to_metrics(tp=205, fp=0, tn=27, fn=0)
    row_ok = (row.accuracy, row.precision, row.recall, row.f1) == (1.0, 1.0, 1.0, 1.0)

    ok = auprc_exact and eer_worst < 1e-9 and row_ok
    _verdict(3, ok, "ranking metrics vs enumeration oracles", f"max EER err {eer_worst:.2e}", t0)
    assert ok, (auprc_exact, eer_worst, row_ok)


def test_criterion_4_svc_dual_objective():
    t0 = time.monotonic()
    rng = np.random.default_rng(4)
    worst_obj, worst_kkt = 0.0, 0.0
    elapsed = 0.0  # the bound covers `svc_train` alone, not the oracle
    for case in range(20):
        n = int(rng.integers(2, 9))
        n_real = int(rng.integers(1, n))
        spread = 1.0 if case % 2 == 0 else 6.0  # alternate separable / overlapping
        samples = []
        for i in range(n):
            real = i < n_real
            center = np.array([10.0, 320.0, 4200.0]) if real else np.array([6.0, 180.0, 2200.0])
            v = np.abs(center + rng.normal(0.0, spread * np.array([0.8, 25.0, 300.0])))
            samples.append(LabeledSample(id=f"s{i}", stats=BreathStats(*v), label="real" if real else "fake"))
        c = [0.5, 1.0, 2.0, 5.0, 10.0][case % 5]
        start = time.monotonic()
        model = svc_train(samples, C=c, tol=1e-8)
        elapsed += time.monotonic() - start

        x = np.array([s.stats.as_array() for s in samples])
        y = np.array([1.0 if s.label == "real" else -1.0 for s in samples])
        mean, scale = x.mean(axis=0), x.std(axis=0)
        scale[scale == 0.0] = 1.0
        z = (x - mean) / scale
        gamma = 1.0 / (z.shape[1] * z.var())
        _, oracle_obj = qp_dual_solve(poly_kernel(z, z, gamma, 0.0, 2), y, c)
        worst_obj = max(worst_obj, abs(model.dual_objective - oracle_obj))
        worst_kkt = max(worst_kkt, model.kkt_gap)

    ok = worst_obj < 1e-5 and worst_kkt < 1e-6 and elapsed < 60.0
    _verdict(4, ok, "SVC dual vs projected-gradient QP oracle", f"max obj gap {worst_obj:.2e}, max KKT {worst_kkt:.2e}", t0)
    assert ok, (worst_obj, worst_kkt, elapsed)


def test_criterion_5_pipeline_separates_synthetic_corpus(tmp_path):
    t0 = time.monotonic()
    pods = tmp_path / "pods"
    news = tmp_path / "news"
    det = tmp_path / "det"
    assert main(["synth", "--out", str(pods), "--seed", "10", "--real", "6", "--fake", "0",
                 "--duration-ms", "40000", "--speakers", "2"]) == 0
    assert main(["synth", "--out", str(news), "--seed", "20", "--real", "40", "--fake", "40",
                 "--duration-ms", "24000", "--speakers", "4",
                 "--real-outlets", "2", "--fake-outlets", "2"]) == 0
    assert main(["train-breath", "--manifest", str(pods / "manifest.csv"),
                 "--out", str(det), "--epochs", "30", "--seed", "5"]) == 0

    detector = load_model(det / "model.bin")
    split = outlet_disjoint_split(load_manifest(news / "manifest.csv"), seed=7)
    rows, _ = detect_manifest(detector, news / "manifest.csv", DetectionConfig())
    svc = run_pipeline_eval(rows, split, "svc", detector, classifier_kwargs={"coef0": 1.0})
    thr = run_pipeline_eval(rows, split, "threshold", detector)

    elapsed = time.monotonic() - t0
    ok = (svc.report.auprc == 1.0 and svc.report.eer == 0.0
          and thr.report.point.accuracy >= 0.95 and elapsed < 900.0)
    _verdict(5, ok, "outlet-disjoint synthetic pipeline",
             f"svc auprc {svc.report.auprc}, eer {svc.report.eer}, "
             f"threshold acc {thr.report.point.accuracy:.3f}", t0)
    assert ok, (svc.report.auprc, svc.report.eer, thr.report.point.accuracy, elapsed)


def test_criterion_6_generalizability_ordering():
    t0 = time.monotonic()
    items = []
    for p in range(8):
        spk = p % 4
        # each speaker breathes in a distinct band; the two podcasts of a
        # speaker shift that band slightly, so holding out a podcast is
        # easier than holding out the whole speaker
        region_lo = 300.0 + 550.0 * spk
        lo = region_lo if p // 4 == 0 else region_lo + 150.0
        cfg = SynthesisConfig(
            duration_ms=40000.0,
            breaths_per_minute=9.0 + (p % 5),
            breath_duration_ms=(250.0, 450.0),
            breath_band_hz=(lo, lo + 350.0),
            breath_band_level_db=-28.0,
            silence_level_db=-33.0,
            rng_seed=500 + p,
            name=f"pod{p}",
            speaker_id=f"spk{spk}",
        )
        buffer, intervals = synthesize_one(cfg)
        fm = extract_features(buffer)
        labels = frames_from_intervals(intervals, 20.0, 2.5, fm.num_frames)
        items.append(CorpusItem(id=cfg.name, speaker_id=cfg.speaker_id,
                                features=fm.data, frame_labels=labels))

    model_cfg = ModelConfig()
    train_cfg = TrainConfig(epochs=30)
    r1 = contiguous_kfold(items, model_cfg, train_cfg, iterations=5, seed=11)
    r2 = leave_one_podcast(items, model_cfg, train_cfg, seed=11)
    r3 = leave_one_speaker(items, model_cfg, train_cfg, seed=11)

    elapsed = time.monotonic() - t0
    ok = r1.mean >= r2.mean >= r3.mean and r1.mean >= 0.9 and elapsed < 1800.0
    _verdict(6, ok, "held-out AUPRC ordering",
             f"block {r1.mean:.4f} >= podcast {r2.mean:.4f} >= speaker {r3.mean:.4f}", t0)
    assert ok, (r1.mean, r2.mean, r3.mean, elapsed)


def test_criterion_7_postprocess_invariants():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    cfg = DetectionConfig()
    checked = 0
    for _ in range(10000):
        probs = rng.uniform(size=int(rng.integers(1, 81)))
        total = len(probs) * cfg.step_ms
        prev_end = -1.0
        for start, end in slices_to_intervals(probs, cfg).intervals:
            assert end - start >= cfg.min_breath_ms - 1e-9
            assert start % cfg.step_ms == 0.0 and end % cfg.step_ms == 0.0
            assert 0.0 <= start < end <= total
            assert start > prev_end  # sorted and non-overlapping
            prev_end = end
            checked += 1

    # a run of exactly three positive steps sits right on the 150ms
    # minimum and must be kept
    boundary = slices_to_intervals(np.array([0.0, 1.0, 1.0, 1.0, 0.0]), cfg).intervals
    ok = boundary == [(50.0, 200.0)]
    _verdict(7, ok, "interval invariants on random sequences", f"{checked} intervals checked", t0)
    assert ok, boundary


def _artifact_digests(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "run.log":
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_criterion_8_determinism(tmp_path):
    t0 = time.monotonic()
    digests = []
    for run in ("one", "two"):
        root = tmp_path / run
        pods, news, out = root / "pods", root / "news", root / "eval"
        assert main(["synth", "--out", str(pods), "--seed", "10", "--real", "3", "--fake", "0",
                     "--duration-ms", "20000", "--speakers", "2"]) == 0
        assert main(["synth", "--out", str(news), "--seed", "20", "--real", "4", "--fake", "4",
                     "--duration-ms", "12000", "--speakers", "2"]) == 0
        assert main(["evaluate", "--experiment", "pipeline", "--classifier", "svc",
                     "--svc-coef0", "1.0", "--manifest", str(news / "manifest.csv"),
                     "--podcast-manifest", str(pods / "manifest.csv"),
                     "--epochs", "12", "--seed", "3", "--out", str(out)]) == 0
        digests.append(_artifact_digests(root))

    ok = digests[0] == digests[1] and {"eval/detector.bin", "eval/report.json", "eval/scores.csv"} <= set(digests[0])
    _verdict(8, ok, "bit-identical artifacts across same-seed runs",
             f"{len(digests[0])} files compared", t0)
    assert ok
