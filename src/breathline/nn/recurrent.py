"""Bidirectional LSTM over (batch, time, channels) sequences."""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from ..errors import ShapeError
from .layers import Layer, glorot_uniform


class _LSTMDirection:
    """One left-to-right LSTM pass. Gate layout along the last weight
    axis is input, forget, cell, output; the forget bias starts at 1."""

    def __init__(self, in_channels: int, units: int, rng: np.random.Generator):
        self.units = units
        self.wx = glorot_uniform(rng, (in_channels, 4 * units), in_channels, 4 * units)
        self.wh = glorot_uniform(rng, (units, 4 * units), units, 4 * units)
        self.b = np.zeros(4 * units)
        self.b[units : 2 * units] = 1.0
        self.grad_wx = np.zeros_like(self.wx)
        self.grad_wh = np.zeros_like(self.wh)
        self.grad_b = np.zeros_like(self.b)
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        batch, time, _ = x.shape
        units = self.units
        h = np.zeros((batch, units))
        c = np.zeros((batch, units))
        hs = np.empty((time, batch, units))
        gates = np.empty((time, batch, 4 * units))
        c_prevs = np.empty((time, batch, units))
        tanh_cs = np.empty((time, batch, units))
        for t in range(time):
            z = x[:, t] @ self.wx + h @ self.wh + self.b
            i = expit(z[:, :units])
            f = expit(z[:, units : 2 * units])
            g = np.tanh(z[:, 2 * units : 3 * units])
            o = expit(z[:, 3 * units :])
            c_prevs[t] = c
            c = f * c + i * g
            tc = np.tanh(c)
            h = o * tc
            gates[t] = np.concatenate([i, f, g, o], axis=1)
            tanh_cs[t] = tc
            hs[t] = h
        if training:
            self._cache = (x, gates, c_prevs, tanh_cs, hs)
        return hs.transpose(1, 0, 2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x, gates, c_prevs, tanh_cs, hs = self._cache
        batch, time, _ = x.shape
        units = self.units
        self.grad_wx = np.zeros_like(self.wx)
        self.grad_wh = np.zeros_like(self.wh)
        self.grad_b = np.zeros_like(self.b)
        gx = np.empty_like(x)
        dh_next = np.zeros((batch, units))
        dc_next = np.zeros((batch, units))
        for t in reversed(range(time)):
            i = gates[t, :, :units]
            f = gates[t, :, units : 2 * units]
            g = gates[t, :, 2 * units : 3 * units]
            o = gates[t, :, 3 * units :]
            dh = grad[:, t] + dh_next
            dc = dc_next + dh * o * (1.0 - tanh_cs[t] ** 2)
            dz = np.concatenate(
                [
                    dc * g * i * (1.0 - i),
                    dc * c_prevs[t] * f * (1.0 - f),
                    dc * i * (1.0 - g**2),
                    dh * tanh_cs[t] * o * (1.0 - o),
                ],
                axis=1,
            )
            h_prev = hs[t - 1] if t > 0 else np.zeros((batch, units))
            self.grad_wx += x[:, t].T @ dz
            self.grad_wh += h_prev.T @ dz
            self.grad_b += dz.sum(axis=0)
            gx[:, t] = dz @ self.wx.T
            dh_next = dz @ self.wh.T
            dc_next = dc * f
        return gx


class BiLSTM(Layer):
    """Forward and reversed LSTM passes concatenated on the channel axis,
    so (batch, time, in) becomes (batch, time, 2 * units)."""

    def __init__(self, in_channels: int, units: int, rng: np.random.Generator):
        self.in_channels = in_channels
        self.units = units
        self.fwd = _LSTMDirection(in_channels, units, rng)
        self.bwd = _LSTMDirection(in_channels, units, rng)

    @property
    def params(self):
        out = {}
        for tag, direction in (("fwd", self.fwd), ("bwd", self.bwd)):
            out[f"{tag}.wx"] = direction.wx
            out[f"{tag}.wh"] = direction.wh
            out[f"{tag}.b"] = direction.b
        return out

    @property
    def grads(self):
        out = {}
        for tag, direction in (("fwd", self.fwd), ("bwd", self.bwd)):
            out[f"{tag}.wx"] = direction.grad_wx
            out[f"{tag}.wh"] = direction.grad_wh
            out[f"{tag}.b"] = direction.grad_b
        return out

    def forward(self, x, training=False):
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ShapeError(f"BiLSTM expected (batch, time, {self.in_channels}), got {x.shape}")
        left = self.fwd.forward(x, training)
        right = self.bwd.forward(x[:, ::-1], training)[:, ::-1]
        return np.concatenate([left, right], axis=2)

    def backward(self, grad):
        gleft = self.fwd.backward(grad[:, :, : self.units])
        gright = self.bwd.backward(grad[:, ::-1, self.units :])[:, ::-1]
        return gleft + gright
