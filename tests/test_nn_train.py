"""Loss values, chunking rules, and the training loop."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import LoopBiLSTM, TwoPassBatchNorm, WindowMaxPool, central_difference, enum_auprc

import breathline
from breathline import evaluation
from breathline.errors import ConfigError, TrainingError
from breathline.evaluation import CorpusItem
from breathline.evaluation import test1_contiguous_kfold as contiguous_kfold
from breathline.nn.layers import BN_EPS, BN_MOMENTUM, BatchNorm1D, MaxPool1D
from breathline.nn.model import BreathDetectorModel, ModelConfig
from breathline.nn.recurrent import BiLSTM
from breathline.nn.train import TrainConfig, bce_loss, make_training_chunks, train

SMALL = ModelConfig(
    n_mels=4,
    conv_filters=(4, 3),
    conv_kernels=(3, 1),
    pool_strides=(4, 5),
    lstm_units=4,
    chunk_frames=40,
    seed=0,
)


def test_bce_reference_values():
    loss, _ = bce_loss(np.array([0.5]), np.array([1.0]))
    np.testing.assert_allclose(loss, np.log(2.0), rtol=1e-12)
    loss, _ = bce_loss(np.array([0.5]), np.array([0.0]))
    np.testing.assert_allclose(loss, np.log(2.0), rtol=1e-12)
    loss, _ = bce_loss(np.array([0.9]), np.array([1.0]))
    np.testing.assert_allclose(loss, -np.log(0.9), rtol=1e-12)
    # mean over all elements
    loss, _ = bce_loss(np.array([0.5, 0.9]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(loss, (np.log(2.0) - np.log(0.9)) / 2.0, rtol=1e-12)


def test_bce_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    p = rng.uniform(0.1, 0.9, size=12)
    y = (rng.uniform(size=12) < 0.5).astype(float)
    _, grad = bce_loss(p, y)
    for i in range(12):
        fd = central_difference(lambda: bce_loss(p, y)[0], p, i)
        assert abs(grad[i] - fd) / max(1.0, abs(grad[i])) < 1e-4


def test_chunking_drops_trailing_partial():
    rng = np.random.default_rng(1)
    items = [
        (rng.normal(size=(100, 6)), np.zeros(100, dtype=bool)),  # 2 chunks + 20 dropped
        (rng.normal(size=(39, 6)), np.zeros(39, dtype=bool)),  # too short, contributes none
    ]
    x, y = make_training_chunks(items, 40, 20)
    assert len(x) == 2 and all(chunk.shape == (40, 6) for chunk in x)
    # views of the first item's first two chunks, not copies of them
    for chunk, start in zip(x, (0, 40)):
        assert np.shares_memory(chunk, items[0][0]) and np.array_equal(chunk, items[0][0][start : start + 40])
    assert y.shape == (2, 2)


def test_chunk_targets_are_majority_pooled():
    frames = np.zeros(40, dtype=bool)
    frames[0:11] = True  # 11 of the first 20 frames
    x, y = make_training_chunks([(np.zeros((40, 6)), frames)], 40, 20)
    np.testing.assert_array_equal(y[0], [1.0, 0.0])


def test_chunking_keeps_float32_features():
    rng = np.random.default_rng(6)
    features = rng.normal(size=(80, 6)).astype(np.float32)
    x, _ = make_training_chunks([(features, np.zeros(80, dtype=bool))], 40, 20)
    assert len(x) == 2 and all(chunk.dtype == np.float32 and np.shares_memory(chunk, features) for chunk in x)


def test_training_on_float32_equals_training_on_its_float64_values():
    rng = np.random.default_rng(7)
    feats, labels = _memorization_item(rng)
    narrow = feats.astype(np.float32)
    h32 = train(BreathDetectorModel(SMALL), [(narrow, labels)], TrainConfig(epochs=3, seed=2))
    h64 = train(BreathDetectorModel(SMALL), [(narrow.astype(np.float64), labels)], TrainConfig(epochs=3, seed=2))
    assert h32 == h64


@pytest.mark.parametrize("module", ["breathline.nn.train", "breathline.cli"])
def test_runtime_import_leaves_out_scipy(module):
    # every CLI call imports the CLI; the runtime needs numpy only, and
    # scipy.special alone would add about 0.17 s and 20 MB to each process
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(breathline.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_chunking_validation():
    with pytest.raises(TrainingError, match="frames but labels"):
        make_training_chunks([(np.zeros((40, 6)), np.zeros(39, dtype=bool))], 40, 20)
    with pytest.raises(TrainingError, match="long enough"):
        make_training_chunks([(np.zeros((39, 6)), np.zeros(39, dtype=bool))], 40, 20)


def _memorization_item(rng):
    # two separable chunk patterns: positives carry a strong offset
    feats = rng.normal(size=(160, 6))
    labels = np.zeros(160, dtype=bool)
    labels[40:80] = True
    labels[120:160] = True
    feats[labels] += 3.0
    return feats, labels


def test_training_memorizes_small_dataset():
    rng = np.random.default_rng(2)
    model = BreathDetectorModel(SMALL)
    items = [_memorization_item(rng)]
    history = train(model, items, TrainConfig(epochs=200, batch_size=8, seed=3))
    assert history[-1] < history[0]
    x, y = make_training_chunks(items, 40, 20)
    probs = np.concatenate([model.predict_file(chunk) for chunk in x])
    assert enum_auprc(probs.tolist(), y.ravel().astype(int).tolist()) >= 0.99


def test_training_is_deterministic():
    rng = np.random.default_rng(4)
    items = [_memorization_item(rng)]
    h1 = train(BreathDetectorModel(SMALL), items, TrainConfig(epochs=5, seed=9))
    h2 = train(BreathDetectorModel(SMALL), items, TrainConfig(epochs=5, seed=9))
    assert h1 == h2
    h3 = train(BreathDetectorModel(SMALL), items, TrainConfig(epochs=5, seed=10))
    assert h1 != h3


def _oracle_layer(layer):
    if isinstance(layer, BiLSTM):
        return LoopBiLSTM(layer.params)
    if isinstance(layer, MaxPool1D):
        return WindowMaxPool(layer.pool_size, layer.stride)
    if isinstance(layer, BatchNorm1D):
        return TwoPassBatchNorm(layer.gamma, layer.beta, layer.running_mean, layer.running_var, BN_EPS, BN_MOMENTUM)
    return layer


def test_training_with_the_oracle_layers_gives_the_same_model():
    """The default detector trained at batch 8 on float32 chunks, as the
    CLI does, and the same detector with tests/oracles.py's BiLSTM,
    MaxPool1D and BatchNorm1D swapped in: every loss, parameter, running
    statistic and inference output is the same to the bit."""
    rng = np.random.default_rng(11)
    items = []
    for _ in range(3):
        labels = np.repeat(rng.random(60) < 0.3, 40)
        feats = rng.normal(size=(2400, 130)) + 2.0 * labels[:, None]
        items.append((feats.astype(np.float32), labels))
    models = [BreathDetectorModel(ModelConfig(seed=4)) for _ in range(2)]
    oracle = models[1]
    oracle._layers = [(name, _oracle_layer(layer)) for name, layer in oracle._layers]
    histories = [train(m, items, TrainConfig(epochs=2, batch_size=8, learning_rate=0.005, seed=5)) for m in models]
    assert histories[0] == histories[1]
    for (name, layer), (_, want) in zip(*(m._layers for m in models)):
        for pname, param in layer.params.items():
            assert np.array_equal(param, want.params[pname]), f"{name}.{pname}"
        if isinstance(layer, BatchNorm1D):
            assert np.array_equal(layer.running_mean, want.running_mean), name
            assert np.array_equal(layer.running_var, want.running_var), name
    assert np.array_equal(models[0].predict_file(items[0][0]), oracle.predict_file(items[0][0]))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_copies_no_corpus(monkeypatch):
    """The default detector trains at batch 8 on 64 float32 chunks (26 MB
    of features) straight from views of them: its peak stays within a
    quarter of the corpus of the peak of training on two batches (a batch
    is gathered while the model still holds the one before). So does a
    test1 fold run inline, whose training spans start inside the items."""
    rng = np.random.default_rng(13)
    config = ModelConfig(seed=1)
    chunk = config.chunk_frames
    items = []
    for _ in range(4):
        labels = np.repeat(rng.random(16 * chunk // 40) < 0.3, 40)
        items.append(((rng.normal(size=(16 * chunk, 130)) + labels[:, None]).astype(np.float32), labels))
    corpus_bytes = sum(features.nbytes for features, _ in items)
    x, _ = make_training_chunks(items, chunk, config.frames_per_step)
    assert len(x) == 64 and all(np.shares_memory(c, items[k // 16][0]) for k, c in enumerate(x))
    train_config = TrainConfig(epochs=1, batch_size=8, seed=2)
    two_batches = [(items[0][0][: 16 * chunk], items[0][1][: 16 * chunk])]
    batch_peak = _traced_peak(lambda: train(BreathDetectorModel(config), two_batches, train_config))
    peak = _traced_peak(lambda: train(BreathDetectorModel(config), items, train_config))
    assert peak < corpus_bytes / 4 + batch_peak, (peak, batch_peak, corpus_bytes)
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 1)
    corpus = [CorpusItem(str(i), features, labels) for i, (features, labels) in enumerate(items)]
    peak = _traced_peak(lambda: contiguous_kfold(corpus, config, train_config, iterations=1, seed=3))
    assert peak < corpus_bytes / 4 + batch_peak, (peak, batch_peak, corpus_bytes)


def test_training_accepts_single_class_targets():
    rng = np.random.default_rng(5)
    items = [(rng.normal(size=(80, 6)), np.zeros(80, dtype=bool))]
    history = train(BreathDetectorModel(SMALL), items, TrainConfig(epochs=3, seed=0))
    assert len(history) == 3 and all(np.isfinite(history))


@pytest.mark.parametrize("fields", [
    {"epochs": 0}, {"batch_size": 0}, {"learning_rate": 0.0}, {"learning_rate": -1e-3},
    {"learning_rate": float("nan")}, {"learning_rate": float("inf")}, {"seed": -1},
])
def test_train_config_rejects_bad_values(fields):
    with pytest.raises(ConfigError):
        TrainConfig(**fields)
