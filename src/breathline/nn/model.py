"""Breath detector: conv blocks that downsample time, a BiLSTM, and a
per-step sigmoid head.

With the defaults, a 2 s chunk of 800 feature frames (2.5 ms hop) is
pooled 800 -> 200 -> 40, so the model emits one breath probability per
20 frames, i.e. every 50 ms.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ..container import header_fields, read_container, write_container
from ..errors import ConfigError, FormatError, ShapeError
from ..features import FeatureConfig
from .layers import BatchNorm1D, Conv1D, Dropout, MaxPool1D, ReLU, Sigmoid, TimeDense
from .recurrent import BiLSTM

MODEL_MAGIC = b"BLNN"
MODEL_VERSION = 2

# probabilities are clipped into the open interval (0, 1)
PROB_EPS = 1e-12

# chunks per inference forward in predict_file
BATCH_CHUNKS = 32

# far above the default detector (about 17k parameters, 104k values per
# chunk): an oversized config is a ConfigError, not a failed allocation
MAX_PARAMETERS = 10_000_000
MAX_CHUNK_VALUES = 10_000_000


@dataclass(frozen=True)
class ModelConfig:
    """The detector's architecture and the features it is trained on; a
    detector is only valid on frames made with its own window, hop and mels."""

    window_ms: float = FeatureConfig.window_ms
    hop_ms: float = FeatureConfig.hop_ms
    n_mels: int = FeatureConfig.n_mels
    conv_filters: tuple[int, ...] = (16, 8)
    conv_kernels: tuple[int, ...] = (3, 1)
    pool_size: int = 3
    pool_strides: tuple[int, ...] = (4, 5)
    dropout_rate: float = 0.2
    lstm_units: int = 32
    chunk_frames: int = 800
    seed: int = 0

    def __post_init__(self):
        self.features  # FeatureConfig validates the feature fields
        if not (len(self.conv_filters) == len(self.conv_kernels) == len(self.pool_strides)):
            raise ConfigError("conv_filters, conv_kernels and pool_strides must have equal length")
        if len(self.conv_filters) == 0:
            raise ConfigError("at least one conv block is required")
        if min(self.lstm_units, self.chunk_frames, *self.pool_strides) < 1:
            raise ConfigError("lstm_units, chunk_frames and pool_strides must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.chunk_frames % self.frames_per_step != 0:
            raise ConfigError(
                f"chunk_frames={self.chunk_frames} must be divisible by the "
                f"total pool stride {self.frames_per_step}"
            )
        parameters = sum(math.prod(shape) for shape in _tensor_shapes(self).values())
        if parameters > MAX_PARAMETERS:
            raise ConfigError(f"the detector would have {parameters} parameters, over the bound {MAX_PARAMETERS}")
        if self.chunk_frames * self.input_dim > MAX_CHUNK_VALUES:
            raise ConfigError(f"chunk_frames x input_dim is over the bound of {MAX_CHUNK_VALUES} values")

    @property
    def features(self) -> FeatureConfig:
        return FeatureConfig(self.window_ms, self.hop_ms, self.n_mels)

    @property
    def input_dim(self) -> int:
        return self.features.dim

    @property
    def frames_per_step(self) -> int:
        """Input frames consumed per output step (product of pool strides)."""
        return math.prod(self.pool_strides)

    @property
    def step_ms(self) -> float:
        """Audio time covered by one output step."""
        return self.hop_ms * self.frames_per_step


def _tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter and buffer of BreathDetectorModel(config),
    worked out without allocating them."""
    shapes = {}
    in_ch = config.input_dim
    for i, (filters, kernel) in enumerate(zip(config.conv_filters, config.conv_kernels)):
        shapes[f"conv{i}.w"] = (kernel, in_ch, filters)
        shapes[f"conv{i}.b"] = (filters,)
        for name in ("gamma", "beta", "running_mean", "running_var"):
            shapes[f"bn{i}.{name}"] = (filters,)
        in_ch = filters
    units = config.lstm_units
    for direction in ("fwd", "bwd"):
        shapes[f"lstm.{direction}.wx"] = (in_ch, 4 * units)
        shapes[f"lstm.{direction}.wh"] = (units, 4 * units)
        shapes[f"lstm.{direction}.b"] = (4 * units,)
    shapes["dense.w"] = (2 * units, 1)
    shapes["dense.b"] = (1,)
    return shapes


class BreathDetectorModel:
    """Framewise breath probability model over feature chunks."""

    def __init__(self, config: ModelConfig = ModelConfig()):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self._layers: list[tuple[str, object]] = []
        in_ch = config.input_dim
        for i, (filters, kernel, stride) in enumerate(
            zip(config.conv_filters, config.conv_kernels, config.pool_strides)
        ):
            self._layers.append((f"conv{i}", Conv1D(in_ch, filters, kernel, rng)))
            self._layers.append((f"relu{i}", ReLU()))
            self._layers.append((f"bn{i}", BatchNorm1D(filters)))
            self._layers.append((f"pool{i}", MaxPool1D(config.pool_size, stride)))
            self._layers.append((f"drop{i}", Dropout(config.dropout_rate)))
            in_ch = filters
        self._layers.append(("lstm", BiLSTM(in_ch, config.lstm_units, rng)))
        self._layers.append(("dense", TimeDense(2 * config.lstm_units, 1, rng)))
        self._layers.append(("sigmoid", Sigmoid()))

    def parameters(self) -> dict[str, np.ndarray]:
        out = {}
        for name, layer in self._layers:
            for pname, arr in layer.params.items():
                out[f"{name}.{pname}"] = arr
        return out

    def gradients(self) -> dict[str, np.ndarray]:
        out = {}
        for name, layer in self._layers:
            for pname, arr in layer.grads.items():
                out[f"{name}.{pname}"] = arr
        return out

    def buffers(self) -> dict[str, np.ndarray]:
        """Non-trained state that still belongs in a saved model."""
        out = {}
        for name, layer in self._layers:
            if isinstance(layer, BatchNorm1D):
                out[f"{name}.running_mean"] = layer.running_mean
                out[f"{name}.running_var"] = layer.running_var
        return out

    def forward(self, x: np.ndarray, training: bool = False, rng: np.random.Generator | None = None) -> np.ndarray:
        """(batch, time, input_dim) -> (batch, time / frames_per_step)
        breath probabilities in the open interval (0, 1), float64.

        During training, dropout masks are drawn from `rng`; with
        rng=None the previous masks are reused.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.config.input_dim:
            raise ShapeError(f"expected (batch, time, {self.config.input_dim}), got {x.shape}")
        if x.shape[1] % self.config.frames_per_step != 0:
            raise ShapeError(
                f"time axis {x.shape[1]} must be divisible by {self.config.frames_per_step}"
            )
        for name, layer in self._layers:
            if isinstance(layer, Dropout):
                x = layer.forward(x, training, rng)
            else:
                x = layer.forward(x, training)
        return np.clip(x[:, :, 0], PROB_EPS, 1.0 - PROB_EPS)

    def backward(self, grad: np.ndarray) -> None:
        """Propagate (batch, steps) probability gradients back through the
        most recent training forward and set every parameter gradient; the
        clip is treated as identity. The first conv layer's input gradient,
        which nothing reads, is not computed."""
        g = np.asarray(grad, dtype=np.float64)[:, :, None]
        (_, first), *rest = self._layers
        for _, layer in reversed(rest):
            g = layer.backward(g)
        first.backward_params(g)

    def predict_file(self, features: np.ndarray) -> np.ndarray:
        """Score a whole file of feature frames.

        The file is cut into chunk_frames-long chunks, the last chunk
        zero-padded, and the per-chunk outputs concatenated and trimmed
        to ceil(num_frames / frames_per_step) steps. Chunks go through
        `forward` BATCH_CHUNKS at a time, and only the batch in hand is
        copied to float64.
        """
        features = np.asarray(features)
        dim = self.config.input_dim
        if features.ndim != 2 or features.shape[1] != dim:
            raise ShapeError(f"expected (frames, {dim}), got {features.shape}")
        num_frames = features.shape[0]
        if num_frames == 0:
            return np.empty(0)
        chunk = self.config.chunk_frames
        outputs = []
        for start in range(0, num_frames, BATCH_CHUNKS * chunk):
            rows = features[start : start + BATCH_CHUNKS * chunk]
            num_chunks = -(-len(rows) // chunk)
            batch = np.zeros((num_chunks * chunk, dim))
            batch[: len(rows)] = rows
            outputs.append(self.forward(batch.reshape(num_chunks, chunk, dim)))
        steps = -(-num_frames // self.config.frames_per_step)
        return np.concatenate(outputs).reshape(-1)[:steps]


def save_model(path, model: BreathDetectorModel) -> None:
    """A BLNN container: the config in the header, then the parameters
    and buffers as little-endian float64 so the round trip is bit-exact."""
    tensors = {**model.parameters(), **model.buffers()}
    header = {"version": MODEL_VERSION, "config": dataclasses.asdict(model.config)}
    write_container(path, MODEL_MAGIC, header, tensors, "<f8")


def load_model(path) -> BreathDetectorModel:
    header, arrays = read_container(path, MODEL_MAGIC, MODEL_VERSION, "<f8")
    fields = {f.name: type(f.default) for f in dataclasses.fields(ModelConfig)}
    cfg = header.get("config")
    if not isinstance(cfg, dict) or set(cfg) != set(fields):
        raise FormatError(f"{path}: model config must be an object with the fields {sorted(fields)}")
    try:
        config = ModelConfig(**header_fields(path, cfg, fields))
    except ConfigError as exc:
        raise FormatError(f"{path}: bad model config: {exc}") from exc
    # shapes are checked before the model allocates anything, so a config
    # that promises more weights than the file holds is rejected cheaply
    shapes = _tensor_shapes(config)
    unknown = sorted(set(arrays) - set(shapes))
    if unknown:
        raise FormatError(f"{path}: unknown tensor {unknown[0]!r}")
    missing = sorted(set(shapes) - set(arrays))
    if missing:
        raise FormatError(f"{path}: missing tensors: {missing}")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise FormatError(f"{path}: tensor {name!r} has shape {arrays[name].shape}, expected {shape}")
    try:
        model = BreathDetectorModel(config)
    except ConfigError as exc:
        raise FormatError(f"{path}: bad model config: {exc}") from exc
    for name, target in {**model.parameters(), **model.buffers()}.items():
        target[...] = arrays[name]
    return model
