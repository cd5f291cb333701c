"""Loss values, chunking rules, and the training loop."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import central_difference, enum_auprc

import breathline
from breathline.errors import ConfigError, TrainingError
from breathline.nn.model import BreathDetectorModel, ModelConfig
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
    assert x.shape == (2, 40, 6)
    assert y.shape == (2, 2)


def test_chunk_targets_are_majority_pooled():
    frames = np.zeros(40, dtype=bool)
    frames[0:11] = True  # 11 of the first 20 frames
    x, y = make_training_chunks([(np.zeros((40, 6)), frames)], 40, 20)
    np.testing.assert_array_equal(y[0], [1.0, 0.0])


def test_chunking_keeps_float32_features():
    rng = np.random.default_rng(6)
    x, _ = make_training_chunks([(rng.normal(size=(80, 6)).astype(np.float32), np.zeros(80, dtype=bool))], 40, 20)
    assert x.dtype == np.float32


def test_training_on_float32_equals_training_on_its_float64_values():
    rng = np.random.default_rng(7)
    feats, labels = _memorization_item(rng)
    narrow = feats.astype(np.float32)
    h32 = train(BreathDetectorModel(SMALL), [(narrow, labels)], TrainConfig(epochs=3, seed=2))
    h64 = train(BreathDetectorModel(SMALL), [(narrow.astype(np.float64), labels)], TrainConfig(epochs=3, seed=2))
    assert h32 == h64


def test_training_import_leaves_out_scipy_signal():
    # a spawned fold worker imports only the training path; scipy.signal
    # (resampling) costs about a second per process
    code = "import sys, breathline.nn.train; print('scipy.signal' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(breathline.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
