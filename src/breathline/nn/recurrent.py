"""Bidirectional LSTM over (batch, time, channels) sequences.

Both directions run in one time loop on stacked (2, batch, ...) arrays:
loop step s is time s for the forward direction and time `time - 1 - s`
for the backward one. Every step's input projection comes from one
matmul before the loop. Each step's products are the per-direction
(batch, ...) matmuls and elementwise operations of a loop over one
direction, in the same order, so the results are the same bits. A
training forward caches the gates and states that `backward` reads; an
inference forward caches nothing on the layer.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .layers import Layer, expit, glorot_uniform


class BiLSTM(Layer):
    """Forward and reversed LSTM passes concatenated on the channel axis,
    so (batch, time, in) becomes (batch, time, 2 * units). Gate layout
    along the last weight axis is input, forget, cell, output; the forget
    bias starts at 1. Weights are stacked by direction (forward first) and
    named `fwd.wx` ... `bwd.b`, each a view into its stack."""

    def __init__(self, in_channels: int, units: int, rng: np.random.Generator):
        self.in_channels = in_channels
        self.units = units
        self.wx = np.empty((2, in_channels, 4 * units))
        self.wh = np.empty((2, units, 4 * units))
        for d in range(2):
            self.wx[d] = glorot_uniform(rng, self.wx[d].shape, in_channels, 4 * units)
            self.wh[d] = glorot_uniform(rng, self.wh[d].shape, units, 4 * units)
        self.b = np.zeros((2, 4 * units))
        self.b[:, units : 2 * units] = 1.0
        self.grad_wx = np.zeros_like(self.wx)
        self.grad_wh = np.zeros_like(self.wh)
        self.grad_b = np.zeros_like(self.b)
        self._cache = None

    def _by_direction(self, prefix: str) -> dict[str, np.ndarray]:
        """`fwd.wx` ... `bwd.b`: direction d's slice of each stacked array
        named `prefix` + wx, wh or b."""
        out = {}
        for d, tag in enumerate(("fwd", "bwd")):
            for name in ("wx", "wh", "b"):
                out[f"{tag}.{name}"] = getattr(self, prefix + name)[d]
        return out

    @property
    def params(self):
        return self._by_direction("")

    @property
    def grads(self):
        return self._by_direction("grad_")

    def forward(self, x, training=False):
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ShapeError(f"BiLSTM expected (batch, time, {self.in_channels}), got {x.shape}")
        batch, time, _ = x.shape
        u = self.units
        # xs[s, d] is what direction d reads at step s
        xs = np.empty((time, 2, batch, self.in_channels))
        xs[:, 0] = x.transpose(1, 0, 2)
        xs[:, 1] = xs[::-1, 0]
        # one (batch, in) @ (in, 4 * units) product per step, as a loop makes
        # it (one (time * batch)-row product rounds differently at batch 1);
        # step s's gates are then computed in place in zs[s]
        zs = np.matmul(xs, self.wx)
        # hs[s + 1] and cs[s + 1] are the states after step s, hs[0] and
        # cs[0] zero
        hs = np.zeros((time + 1, 2, batch, u))
        cs = np.zeros((time + 1, 2, batch, u))
        tanh_cs = np.empty((time, 2, batch, u))
        hw, ig, tanh_g = np.empty((2, batch, 4 * u)), np.empty((2, batch, u)), np.empty((2, batch, u))
        gates = np.zeros((2, batch, 4 * u), dtype=np.complex128)  # expit's scratch
        for s in range(time):
            z = zs[s]
            i, f, g, o = (z[..., n * u : (n + 1) * u] for n in range(4))
            z += np.matmul(hs[s], self.wh, out=hw)
            z += self.b[:, None]
            # one expit over all four gates: two over the sigmoid gates alone
            # were no faster
            np.tanh(g, out=tanh_g)
            expit(z, out=z, scratch=gates)
            g[...] = tanh_g
            c = cs[s + 1]
            np.multiply(f, cs[s], out=c)
            c += np.multiply(i, g, out=ig)
            np.multiply(o, np.tanh(c, out=tanh_cs[s]), out=hs[s + 1])
        if training:
            self._cache = (xs, zs, cs, tanh_cs, hs)
        y = np.empty((batch, time, 2 * u))
        y[:, :, :u] = hs[1:, 0].transpose(1, 0, 2)
        y[:, :, u:] = hs[:0:-1, 1].transpose(1, 0, 2)
        return y

    def backward(self, grad):
        xs, zs, cs, tanh_cs, hs = self._cache
        time, _, batch, _ = zs.shape
        u = self.units
        # gs[s, d] is the upstream gradient of direction d's output at step s
        gs = np.empty((time, 2, batch, u))
        gs[:, 0] = grad[:, :, :u].transpose(1, 0, 2)
        gs[:, 1] = grad[:, ::-1, u:].transpose(1, 0, 2)
        grads = [np.zeros_like(a) for a in (self.wx, self.wh, self.b)]
        steps = [np.empty_like(a) for a in grads]
        gx = np.empty_like(xs)
        # one step's scratch, all (2, batch, ...)
        dz, one_minus = np.empty((2, 2, batch, 4 * u))
        one_minus[..., 2 * u : 3 * u] = 1.0
        dh, dc, tmp, dg = np.empty((4, 2, batch, u))
        dh_next, dc_next = np.zeros((2, 2, batch, u))
        for s in range(time - 1, -1, -1):
            z, tc = zs[s], tanh_cs[s]
            i, f, g, o = (z[..., n * u : (n + 1) * u] for n in range(4))
            np.add(gs[s], dh_next, out=dh)
            # dc = dc_next + dh * o * (1 - tanh(c)**2)
            np.subtract(1.0, np.square(tc, out=tmp), out=tmp)
            np.multiply(dh, o, out=dc)
            dc *= tmp
            dc += dc_next
            np.multiply(dc, f, out=dc_next)
            # each gate's gradient as a loop multiplies it: input
            # dc * g * i * (1 - i), forget dc * c_prev * f * (1 - f), cell
            # dc * i * (1 - g**2) (then times 1.0), output dh * tanh(c) * o * (1 - o)
            np.subtract(1.0, z[..., : 2 * u], out=one_minus[..., : 2 * u])
            np.subtract(1.0, o, out=one_minus[..., 3 * u :])
            np.subtract(1.0, np.square(g, out=dg), out=dg)
            for n, (d, a) in enumerate(((dc, g), (dc, cs[s]), (dc, i), (dh, tc))):
                np.multiply(d, a, out=dz[..., n * u : (n + 1) * u])
            dz[..., : 2 * u] *= z[..., : 2 * u]
            dz[..., 2 * u : 3 * u] *= dg
            dz[..., 3 * u :] *= o
            dz *= one_minus
            np.matmul(dz, self.wh.transpose(0, 2, 1), out=dh_next)
            np.matmul(dz, self.wx.transpose(0, 2, 1), out=gx[s])
            for total, step, left in zip(grads, steps, (xs[s], hs[s])):
                total += np.matmul(left.transpose(0, 2, 1), dz, out=step)
            grads[2] += np.sum(dz, axis=1, out=steps[2])
        self.grad_wx, self.grad_wh, self.grad_b = grads
        return gx[:, 0].transpose(1, 0, 2) + gx[::-1, 1].transpose(1, 0, 2)
