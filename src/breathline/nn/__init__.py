"""Minimal neural network stack for the framewise breath detector.

Everything runs on float64 numpy arrays shaped (batch, time, channels),
with numpy alone: `layers.expit` gives the bits of scipy's sigmoid.
Layers cache activations only during training forwards; an inference
forward caches nothing on the layer. The BiLSTM runs both
directions in one time loop on stacked weights, MaxPool1D works on
strided views, and BatchNorm1D makes x - mean once: each gives the same
bits as the step-by-step versions in tests/oracles.py.
"""

from .layers import BatchNorm1D, Conv1D, Dropout, Layer, MaxPool1D, ReLU, Sigmoid, TimeDense
from .model import BreathDetectorModel, ModelConfig, load_model, save_model
from .optim import Adam
from .recurrent import BiLSTM
from .train import TrainConfig, bce_loss, make_training_chunks, train

__all__ = [
    "Adam",
    "BatchNorm1D",
    "BiLSTM",
    "BreathDetectorModel",
    "Conv1D",
    "Dropout",
    "Layer",
    "MaxPool1D",
    "ModelConfig",
    "ReLU",
    "Sigmoid",
    "TimeDense",
    "TrainConfig",
    "bce_loss",
    "load_model",
    "make_training_chunks",
    "save_model",
    "train",
]
