"""Feedforward layers.

Shared contract: `forward(x, training=False)` on (batch, time, channels)
float64 arrays. A training forward caches whatever `backward` needs; an
inference forward writes no instance state. `backward(grad)` consumes
the most recent training cache, replaces the layer's parameter
gradients, and returns the gradient with respect to the input.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from ..errors import ConfigError, ShapeError, TrainingError

# BatchNorm1D's variance floor and running-estimate momentum
BN_EPS = 1e-5
BN_MOMENTUM = 0.9


class Layer:
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {}

    @property
    def grads(self) -> dict[str, np.ndarray]:
        return {}


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Conv1D(Layer):
    """1-D convolution over time, stride 1, zero 'same' padding so the
    output keeps the input length. Weights are (kernel, in, out)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, rng: np.random.Generator):
        if kernel_size < 1 or in_channels < 1 or out_channels < 1:
            raise ConfigError("Conv1D sizes must be positive")
        self.kernel_size = kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels
        fan_in = kernel_size * in_channels
        self.w = glorot_uniform(rng, (kernel_size, in_channels, out_channels), fan_in, kernel_size * out_channels)
        self.b = np.zeros(out_channels)
        self.grad_w = np.zeros_like(self.w)
        self.grad_b = np.zeros_like(self.b)
        self._cache = None

    @property
    def params(self):
        return {"w": self.w, "b": self.b}

    @property
    def grads(self):
        return {"w": self.grad_w, "b": self.grad_b}

    def _taps(self, time: int):
        """(k, out, src) for each tap that reaches the output: output steps
        `out` take tap k of input steps `src`, the same span shifted by
        k - left. A tap shifted by the whole length or more reads only
        padding and is skipped."""
        left = (self.kernel_size - 1) // 2
        for k in range(self.kernel_size):
            shift = k - left
            lo, hi = max(0, -shift), min(time, time - shift)
            if lo < hi:
                yield k, slice(lo, hi), slice(lo + shift, hi + shift)

    def _tap_matrix(self) -> np.ndarray:
        """(in, kernel * out): every tap's weights side by side."""
        return self.w.transpose(1, 0, 2).reshape(self.in_channels, -1)

    def forward(self, x, training=False):
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ShapeError(f"Conv1D expected (batch, time, {self.in_channels}), got {x.shape}")
        batch, time, _ = x.shape
        # project every input step through every tap once, then sum the
        # taps' outputs shifted into place: nothing kernel * in wide
        z = (x.reshape(batch * time, self.in_channels) @ self._tap_matrix()).reshape(
            batch, time, self.kernel_size, self.out_channels
        )
        y = np.empty((batch, time, self.out_channels))
        y[:] = self.b
        for k, out, src in self._taps(time):
            y[:, out] += z[:, src, k]
        if training:
            self._cache = x
        return y

    def backward(self, grad):
        gcols = self.backward_params(grad)
        return (gcols @ self._tap_matrix().T).reshape(self._cache.shape)

    def backward_params(self, grad) -> np.ndarray:
        """The parameter half of `backward`: replaces grad_w and grad_b and
        returns the (batch * time, kernel * out) tap gradients, from which
        `backward` makes the input gradient. A first layer, whose input
        gradient nothing reads, stops here."""
        x = self._cache
        batch, time, _ = x.shape
        # gcols[:, t, k] is the upstream gradient that tap k's projection
        # of input step t fed
        gcols = np.zeros((batch, time, self.kernel_size, self.out_channels))
        for k, out, src in self._taps(time):
            gcols[:, src, k] = grad[:, out]
        gcols = gcols.reshape(batch * time, self.kernel_size * self.out_channels)
        x_flat = x.reshape(batch * time, self.in_channels)
        grad_taps = (x_flat.T @ gcols).reshape(self.in_channels, self.kernel_size, self.out_channels)
        self.grad_w = grad_taps.transpose(1, 0, 2)
        self.grad_b = grad.reshape(-1, self.out_channels).sum(axis=0)
        return gcols


class BatchNorm1D(Layer):
    """Per-channel batch normalization over the batch and time axes.
    Training uses batch statistics and updates the running estimates;
    inference uses the running estimates."""

    def __init__(self, channels: int):
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.grad_gamma = np.zeros_like(self.gamma)
        self.grad_beta = np.zeros_like(self.beta)
        self._cache = None

    @property
    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    @property
    def grads(self):
        return {"gamma": self.grad_gamma, "beta": self.grad_beta}

    def forward(self, x, training=False):
        if training:
            mean = x.mean(axis=(0, 1))
            var = x.var(axis=(0, 1))
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat = (x - mean) * inv_std
            self.running_mean = BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mean
            self.running_var = BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var
            self._cache = (xhat, inv_std)
        else:
            xhat = (x - self.running_mean) / np.sqrt(self.running_var + BN_EPS)
        return self.gamma * xhat + self.beta

    def backward(self, grad):
        xhat, inv_std = self._cache
        n = xhat.shape[0] * xhat.shape[1]
        self.grad_gamma = np.sum(grad * xhat, axis=(0, 1))
        self.grad_beta = np.sum(grad, axis=(0, 1))
        # gradient through the batch statistics themselves
        dxhat = grad * self.gamma
        return (inv_std / n) * (
            n * dxhat - dxhat.sum(axis=(0, 1)) - xhat * np.sum(dxhat * xhat, axis=(0, 1))
        )


class ReLU(Layer):
    def __init__(self):
        self._mask = None

    def forward(self, x, training=False):
        if training:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad):
        return grad * self._mask


class MaxPool1D(Layer):
    """Max pooling over time with ceil-mode output length ceil(T/stride).
    When windows run past the ends they see -inf padding, split evenly."""

    def __init__(self, pool_size: int, stride: int):
        if pool_size < 1 or stride < 1:
            raise ConfigError("pool_size and stride must be positive")
        self.pool_size = pool_size
        self.stride = stride
        self._cache = None

    def output_length(self, time: int) -> int:
        return -(-time // self.stride)

    def forward(self, x, training=False):
        batch, time, channels = x.shape
        out_t = self.output_length(time)
        total_pad = max((out_t - 1) * self.stride + self.pool_size - time, 0)
        left = total_pad // 2
        xpad = np.full((batch, time + total_pad, channels), -np.inf)
        xpad[:, left : left + time] = x
        windows = np.lib.stride_tricks.sliding_window_view(xpad, self.pool_size, axis=1)
        windows = windows[:, :: self.stride]  # (batch, out_t, channels, pool)
        argmax = windows.argmax(axis=3)
        if training:
            self._cache = (argmax, x.shape, left)
        return np.take_along_axis(windows, argmax[..., None], axis=3)[..., 0]

    def backward(self, grad):
        argmax, (batch, time, channels), left = self._cache
        out_t = grad.shape[1]
        total_pad = max((out_t - 1) * self.stride + self.pool_size - time, 0)
        gxpad = np.zeros((batch, time + total_pad, channels))
        b_idx, t_idx, c_idx = np.indices(grad.shape, sparse=True)
        np.add.at(gxpad, (b_idx, t_idx * self.stride + argmax, c_idx), grad)
        return gxpad[:, left : left + time]


class Dropout(Layer):
    """Inverted dropout. A training forward needs a generator to draw a
    fresh mask; passing rng=None reuses the previous mask, which keeps
    the loss surface fixed for finite-difference checks."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.mask = None

    def forward(self, x, training=False, rng=None):
        if not training or self.rate == 0.0:
            return x
        if rng is not None:
            self.mask = rng.random(x.shape) >= self.rate
        elif self.mask is None or self.mask.shape != x.shape:
            raise TrainingError("Dropout training forward needs an rng to draw a mask")
        return x * self.mask / (1.0 - self.rate)

    def backward(self, grad):
        if self.rate == 0.0:
            return grad
        return grad * self.mask / (1.0 - self.rate)


class TimeDense(Layer):
    """Dense layer applied independently at every timestep."""

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator):
        self.w = glorot_uniform(rng, (in_channels, out_channels), in_channels, out_channels)
        self.b = np.zeros(out_channels)
        self.grad_w = np.zeros_like(self.w)
        self.grad_b = np.zeros_like(self.b)
        self._cache = None

    @property
    def params(self):
        return {"w": self.w, "b": self.b}

    @property
    def grads(self):
        return {"w": self.grad_w, "b": self.grad_b}

    def forward(self, x, training=False):
        if training:
            self._cache = x
        return x @ self.w + self.b

    def backward(self, grad):
        x = self._cache
        self.grad_w = np.einsum("btc,bto->co", x, grad)
        self.grad_b = grad.sum(axis=(0, 1))
        return grad @ self.w.T


class Sigmoid(Layer):
    def __init__(self):
        self._y = None

    def forward(self, x, training=False):
        y = expit(x)
        if training:
            self._y = y
        return y

    def backward(self, grad):
        return grad * self._y * (1.0 - self._y)
