"""Feedforward layers.

Shared contract: `forward(x, training=False)` on (batch, time, channels)
float64 arrays. A training forward caches whatever `backward` needs; an
inference forward writes no instance state. `backward(grad)` consumes
the most recent training cache, replaces the layer's parameter
gradients, and returns the gradient with respect to the input.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, ShapeError, TrainingError

# BatchNorm1D's variance floor and running-estimate momentum
BN_EPS = 1e-5
BN_MOMENTUM = 0.9
# glibc's cexp(v + 0j) is its exp(v) for v up to 709; above, it rescales
EXACT_CEXP_MAX = 709.0


def expit(x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-x)), computed so that every
    value has the same bits as `scipy.special.expit`, which is that formula
    with glibc's `exp`. numpy's real `exp` rounds differently on some
    inputs; its complex `exp` calls glibc's `cexp`, which for a real
    argument up to EXACT_CEXP_MAX returns glibc's `exp`. The elements past
    that (x < -709, or NaN) take `math.exp`, glibc's `exp` as well.

    `scratch`, a complex128 array of x's shape whose imaginary part is
    zero, saves an allocation per call; it is left with that part zero."""
    if scratch is None:
        scratch = np.zeros(x.shape, dtype=np.complex128)
    e = np.negative(x, out=scratch.real)
    rare = None
    # `minimum` propagates NaN, so a NaN takes this path too
    if x.size and not np.minimum.reduce(x, axis=None) >= -EXACT_CEXP_MAX:
        rare = ~(x >= -EXACT_CEXP_MAX)
        e[rare] = 0.0  # no overflow in cexp, so its imaginary parts stay zero
    np.exp(scratch, out=scratch)
    if rare is not None:
        e[rare] = [_exp(-v) for v in x[rare].tolist()]
    e += 1.0
    return np.divide(1.0, e, out=out)


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


class Layer:
    # the names of the trained arrays; `grad_<name>` holds each gradient
    PARAMS: tuple[str, ...] = ()

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.PARAMS}

    @property
    def grads(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, "grad_" + name) for name in self.PARAMS}


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Conv1D(Layer):
    """1-D convolution over time, stride 1, zero 'same' padding so the
    output keeps the input length. Weights are (kernel, in, out)."""

    PARAMS = ("w", "b")

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

    PARAMS = ("gamma", "beta")

    def __init__(self, channels: int):
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.grad_gamma = np.zeros_like(self.gamma)
        self.grad_beta = np.zeros_like(self.beta)
        self._cache = None

    def forward(self, x, training=False):
        if training:
            # the passes of `x.mean` and `x.var`, with x - mean made once
            mean = x.mean(axis=(0, 1))
            xhat = x - mean
            squares = np.square(xhat)
            var = squares.sum(axis=(0, 1)) / (x.shape[0] * x.shape[1])
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat *= inv_std
            self.running_mean = BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mean
            self.running_var = BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var
            self._cache = (xhat, inv_std)
            y = np.multiply(self.gamma, xhat, out=squares)
        else:
            y = x - self.running_mean
            y /= np.sqrt(self.running_var + BN_EPS)
            y *= self.gamma
        y += self.beta
        return y

    def backward(self, grad):
        xhat, inv_std = self._cache
        n = xhat.shape[0] * xhat.shape[1]
        scratch = grad * xhat
        self.grad_gamma = scratch.sum(axis=(0, 1))
        self.grad_beta = grad.sum(axis=(0, 1))
        # through the batch statistics as well:
        # (inv_std / n) * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat))
        dx = grad * self.gamma
        dxhat_sum = dx.sum(axis=(0, 1))
        dxhat_xhat_sum = np.multiply(dx, xhat, out=scratch).sum(axis=(0, 1))
        dx *= n
        dx -= dxhat_sum
        dx -= np.multiply(xhat, dxhat_xhat_sum, out=scratch)
        dx *= inv_std / n
        return dx


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
    When windows run past the ends they see -inf padding, split evenly.
    A training forward keeps which tap of each window held the maximum
    (the first of equal ones), and `backward` routes the gradient there."""

    def __init__(self, pool_size: int, stride: int):
        if pool_size < 1 or stride < 1:
            raise ConfigError("pool_size and stride must be positive")
        self.pool_size = pool_size
        self.stride = stride
        self._cache = None

    def output_length(self, time: int) -> int:
        return -(-time // self.stride)

    def _taps(self, padded: np.ndarray, out_t: int) -> list[np.ndarray]:
        """Tap k of output step j is padded[:, j * stride + k], for each k."""
        return [padded[:, k : k + (out_t - 1) * self.stride + 1 : self.stride] for k in range(self.pool_size)]

    def forward(self, x, training=False):
        time = x.shape[1]
        out_t = self.output_length(time)
        total_pad = max((out_t - 1) * self.stride + self.pool_size - time, 0)
        left = total_pad // 2
        if total_pad:
            x = np.pad(x, ((0, 0), (left, total_pad - left), (0, 0)), constant_values=-np.inf)
        first, *rest = self._taps(x, out_t)
        y = first.copy()
        for tap in rest:
            np.maximum(tap, y, out=y)  # an equal tap leaves the earlier value
        if training:
            # the maximum's tap is the number of taps before it below it
            below = first < y
            argmax = below.astype(np.min_scalar_type(self.pool_size - 1))
            for tap in rest[:-1]:
                below &= tap < y
                argmax += below
            self._cache = (argmax, time, left, x.shape[1])
        return y

    def backward(self, grad):
        argmax, time, left, padded = self._cache
        batch, out_t, channels = grad.shape
        gx = np.zeros((batch, padded, channels))
        # the last tap first, so overlapping windows add into a step in
        # window order
        for k, tap in reversed(list(enumerate(self._taps(gx, out_t)))):
            tap += np.where(argmax == k, grad, 0.0)
        return gx[:, left : left + time]


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

    PARAMS = ("w", "b")

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator):
        self.w = glorot_uniform(rng, (in_channels, out_channels), in_channels, out_channels)
        self.b = np.zeros(out_channels)
        self.grad_w = np.zeros_like(self.w)
        self.grad_b = np.zeros_like(self.b)
        self._cache = None

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
