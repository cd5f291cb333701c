"""Detector training: chunking, binary cross-entropy, the epoch loop,
and one cross-validation fold as a job a worker process can run."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ..annotations import steps_from_frames
from ..errors import ConfigError, TrainingError
from .model import BreathDetectorModel, ModelConfig
from .optim import Adam


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be positive and finite")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def bce_loss(probs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient with respect to probs."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    loss = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))
    grad = (p - y) / (p * (1.0 - p)) / p.size
    return loss, grad


def make_training_chunks(
    items: list[tuple[np.ndarray, np.ndarray]], chunk_frames: int, frames_per_step: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Cut (features, frame_labels) pairs into full-length chunks.

    Each file contributes its consecutive whole chunks of `chunk_frames`
    frames; a trailing partial chunk is dropped. The chunks are views of
    the items' features. Targets are the majority-pooled step labels.
    """
    xs, ys = [], []
    for features, frame_labels in items:
        features = np.asarray(features)
        labels = np.asarray(frame_labels, dtype=bool)
        if features.shape[0] != labels.shape[0]:
            raise TrainingError(
                f"features have {features.shape[0]} frames but labels have {labels.shape[0]}"
            )
        for start in range(0, features.shape[0] - chunk_frames + 1, chunk_frames):
            xs.append(features[start : start + chunk_frames])
            ys.append(steps_from_frames(labels[start : start + chunk_frames], frames_per_step))
    if not xs:
        raise TrainingError(f"no file is long enough for a {chunk_frames}-frame chunk")
    return xs, np.stack(ys).astype(np.float64)


def train(
    model: BreathDetectorModel,
    items: list[tuple[np.ndarray, np.ndarray]],
    config: TrainConfig = TrainConfig(),
) -> list[float]:
    """Train in place; returns the mean loss per epoch."""
    x, y = make_training_chunks(items, model.config.chunk_frames, model.config.frames_per_step)
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.parameters(), learning_rate=config.learning_rate)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(x))
        total, count = 0.0, 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            probs = model.forward(np.stack([x[i] for i in batch], dtype=np.float64), training=True, rng=rng)
            loss, grad = bce_loss(probs, y[batch])
            if not np.isfinite(loss):
                raise TrainingError(f"loss became non-finite at step {count}")
            model.backward(grad)
            optimizer.step(model.gradients())
            total += loss * len(batch)
            count += len(batch)
        history.append(total / count)
    return history


def fit_and_predict(
    train_pairs: list[tuple[np.ndarray, np.ndarray]],
    val_features: list[np.ndarray],
    model_config: ModelConfig,
    train_config: TrainConfig,
    seed: int,
) -> list[np.ndarray]:
    """Train a fresh detector with `seed` on `train_pairs` and return its
    step probabilities for each of `val_features`.

    One cross-validation fold, module-level so that a spawned worker
    process can import and run it."""
    model = BreathDetectorModel(dataclasses.replace(model_config, seed=seed))
    train(model, train_pairs, dataclasses.replace(train_config, seed=seed))
    return [model.predict_file(features) for features in val_features]
