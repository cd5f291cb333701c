"""Independent reference implementations used only by the tests.

These deliberately avoid the package's code paths: definition-level
loops, a DFT-matrix spectrogram, exhaustive threshold enumeration for
ranking metrics, an accelerated projected-gradient QP solver for the
SVC dual, exhaustive decision-tree split search, and the detector's
layers written one plain numpy step at a time.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit


def naive_zcr(frames: np.ndarray) -> np.ndarray:
    out = np.zeros(frames.shape[0])
    for t in range(frames.shape[0]):
        changes = 0
        for i in range(frames.shape[1] - 1):
            a = 1 if frames[t, i] >= 0 else -1
            b = 1 if frames[t, i + 1] >= 0 else -1
            if a != b:
                changes += 1
        out[t] = changes / (frames.shape[1] - 1)
    return out


def naive_rmse_db(frames: np.ndarray) -> np.ndarray:
    out = np.zeros(frames.shape[0])
    for t in range(frames.shape[0]):
        acc = 0.0
        for v in frames[t]:
            acc += float(v) * float(v)
        rms = math.sqrt(acc / frames.shape[1])
        out[t] = 20.0 * math.log10(max(rms, 1e-5))
    return out


def _naive_mel_scale(hz: float) -> float:
    if hz < 1000.0:
        return 3.0 * hz / 200.0
    return 15.0 + 27.0 * math.log(hz / 1000.0) / math.log(6.4)


def _naive_mel_inverse(mel: float) -> float:
    if mel < 15.0:
        return 200.0 * mel / 3.0
    return 1000.0 * 6.4 ** ((mel - 15.0) / 27.0)


def naive_mel_db(frames: np.ndarray, n_mels: int, sample_rate: int) -> np.ndarray:
    """Hann window, explicit DFT matrix, triangular mel filters."""
    window = frames.shape[1]
    fft_size = 1
    while fft_size < window:
        fft_size *= 2
    hann = np.array([0.5 - 0.5 * math.cos(2.0 * math.pi * i / window) for i in range(window)])
    padded = np.zeros((frames.shape[0], fft_size))
    padded[:, :window] = frames * hann
    bins = fft_size // 2 + 1
    n = np.arange(fft_size)
    k = np.arange(bins)
    dft = np.exp(-2j * math.pi * np.outer(n, k) / fft_size)  # (fft_size, bins)
    power = np.abs(padded @ dft) ** 2

    edges = [_naive_mel_inverse(m) for m in np.linspace(0.0, _naive_mel_scale(sample_rate / 2.0), n_mels + 2)]
    bin_freqs = [sample_rate * i / fft_size for i in range(bins)]
    filters = np.zeros((n_mels, bins))
    for m in range(n_mels):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        for b, f in enumerate(bin_freqs):
            if lo < f < center:
                filters[m, b] = (f - lo) / (center - lo)
            elif center <= f < hi:
                filters[m, b] = (hi - f) / (hi - center)
        # the peak bin exactly at the center gets weight 1 via the falling edge
    mel_power = power @ filters.T
    return 10.0 * np.log10(np.maximum(mel_power, 1e-10))


def enum_pr_points(scores, truths) -> list[tuple[float, float]]:
    """(recall, precision) after classifying positive iff score >= t,
    for each distinct score t in descending order."""
    scores = list(map(float, scores))
    truths = list(map(bool, truths))
    num_pos = sum(truths)
    points = []
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, truths) if s >= t and y)
        fp = sum(1 for s, y in zip(scores, truths) if s >= t and not y)
        points.append((tp / num_pos, tp / (tp + fp)))
    return points


def enum_auprc(scores, truths) -> float:
    terms = []
    prev_recall = 0.0
    for recall, precision in enum_pr_points(scores, truths):
        terms.append((recall - prev_recall) * precision)
        prev_recall = recall
    return math.fsum(terms)


def enum_eer(scores, truths) -> float:
    scores = list(map(float, scores))
    truths = list(map(bool, truths))
    num_pos = sum(truths)
    num_neg = len(truths) - num_pos
    points = [(0.0, 1.0)]
    for t in sorted(set(scores), reverse=True):
        fp = sum(1 for s, y in zip(scores, truths) if s >= t and not y)
        fn = sum(1 for s, y in zip(scores, truths) if s < t and y)
        points.append((fp / num_neg, fn / num_pos))
    for (f1, r1), (f2, r2) in zip(points, points[1:]):
        d1, d2 = f1 - r1, f2 - r2
        if d2 >= 0.0:
            if d2 == 0.0:
                return f2
            if d1 == 0.0:
                return f1
            t = -d1 / (d2 - d1)
            return f1 + t * (f2 - f1)
    raise AssertionError("no crossing found")


def project_box_hyperplane(v: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Euclidean projection onto {0 <= a <= C, y'a = 0}.

    a(lam) = clip(v - lam*y, 0, C) and g(lam) = y'a(lam) is continuous,
    piecewise linear and non-increasing, so the root is found exactly on
    the bracketing segment between breakpoints (y is +-1, giving 2n of
    them)."""
    bps = np.unique(np.concatenate([y * v, y * v - c * y]))
    vals = np.array([y @ np.clip(v - b * y, 0.0, c) for b in bps])
    k = int(np.argmax(vals <= 0.0))
    if vals[k] == 0.0:
        lam = bps[k]
    else:
        lam = bps[k - 1] + (bps[k] - bps[k - 1]) * vals[k - 1] / (vals[k - 1] - vals[k])
    return np.clip(v - lam * y, 0.0, c)


def qp_dual_solve(kmat: np.ndarray, y: np.ndarray, c: float, iterations: int = 20000) -> tuple[np.ndarray, float]:
    """Accelerated projected gradient (FISTA) on the SVC dual: minimize
    0.5*a'Qa - sum(a) over the box-hyperplane set. Keeps the best
    iterate seen. Returns (alpha, objective)."""
    q = (y[:, None] * y[None, :]) * kmat
    lipschitz = float(np.linalg.eigvalsh(q).max())
    step = 1.0 / max(lipschitz, 1e-12)
    n = len(y)
    a = np.zeros(n)
    z = a.copy()
    t = 1.0
    best_a, best_obj = a.copy(), 0.0
    for it in range(iterations):
        grad = q @ z - 1.0
        a_next = project_box_hyperplane(z - step * grad, y, c)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = a_next + ((t - 1.0) / t_next) * (a_next - a)
        a, t = a_next, t_next
        if it % 100 == 99:
            obj = 0.5 * a @ q @ a - a.sum()
            if obj < best_obj:
                best_obj, best_a = float(obj), a.copy()
    obj = 0.5 * a @ q @ a - a.sum()
    if obj < best_obj:
        best_obj, best_a = float(obj), a.copy()
    return best_a, best_obj


def exhaustive_best_split(x: np.ndarray, is_real: np.ndarray):
    """All (feature, midpoint) candidates; returns the minimizing
    (feature, threshold, weighted_gini) with first-wins tie-breaking."""

    def gini(labels):
        n = len(labels)
        if n == 0:
            return 0.0
        p = sum(labels) / n
        return 1.0 - p * p - (1.0 - p) * (1.0 - p)

    n = len(is_real)
    best = None
    for f in range(x.shape[1]):
        for thr in [
            (a + b) / 2.0
            for a, b in zip(sorted(set(x[:, f])), sorted(set(x[:, f]))[1:])
        ]:
            left = [bool(r) for v, r in zip(x[:, f], is_real) if v <= thr]
            right = [bool(r) for v, r in zip(x[:, f], is_real) if v > thr]
            w = (len(left) * gini(left) + len(right) * gini(right)) / n
            if best is None or w < best[2] - 1e-12:
                best = (f, thr, w)
    return best


def central_difference(f, array: np.ndarray, flat_index: int, eps: float = 1e-6) -> float:
    flat = array.reshape(-1)
    original = flat[flat_index]
    flat[flat_index] = original + eps
    up = f()
    flat[flat_index] = original - eps
    down = f()
    flat[flat_index] = original
    return (up - down) / (2.0 * eps)


# --- layer oracles: the detector's layers one plain numpy step at a time;
# the package's layers must give the same bits ---


class LoopLSTMDirection:
    """One left-to-right LSTM pass over (batch, time, in), one time step
    and one gate at a time. Gate layout along the last weight axis is
    input, forget, cell, output."""

    def __init__(self, wx: np.ndarray, wh: np.ndarray, b: np.ndarray):
        self.wx, self.wh, self.b = wx.copy(), wh.copy(), b.copy()
        self.units = wh.shape[0]
        self._cache = None

    def forward(self, x, training=False):
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

    def backward(self, grad):
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


class LoopBiLSTM:
    """Two `LoopLSTMDirection`s, the second over reversed time, outputs
    concatenated on the channel axis; made from the weights of `params`,
    a dict with the package BiLSTM's parameter names."""

    def __init__(self, params: dict):
        self.fwd = LoopLSTMDirection(params["fwd.wx"], params["fwd.wh"], params["fwd.b"])
        self.bwd = LoopLSTMDirection(params["bwd.wx"], params["bwd.wh"], params["bwd.b"])
        self.units = self.fwd.units

    def _named(self, prefix: str) -> dict:
        return {
            f"{tag}.{name}": getattr(direction, prefix + name)
            for tag, direction in (("fwd", self.fwd), ("bwd", self.bwd))
            for name in ("wx", "wh", "b")
        }

    @property
    def params(self):
        return self._named("")

    @property
    def grads(self):
        return self._named("grad_")

    def forward(self, x, training=False):
        left = self.fwd.forward(x, training)
        right = self.bwd.forward(x[:, ::-1], training)[:, ::-1]
        return np.concatenate([left, right], axis=2)

    def backward(self, grad):
        gleft = self.fwd.backward(grad[:, :, : self.units])
        gright = self.bwd.backward(grad[:, ::-1, self.units :])[:, ::-1]
        return gleft + gright


class WindowMaxPool:
    """Ceil-mode max pooling over time by sliding windows on a -inf padded
    copy (padding split evenly, the extra step on the right); ties go to
    the first maximum, and the backward pass scatters with `np.add.at`."""

    params = grads = property(lambda self: {})

    def __init__(self, pool_size: int, stride: int):
        self.pool_size, self.stride = pool_size, stride

    def forward(self, x, training=False):
        batch, time, channels = x.shape
        out_t = -(-time // self.stride)
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


class TwoPassBatchNorm:
    """Batch normalization over the batch and time axes with `mean` and
    `var` as separate passes and the textbook backward expression."""

    def __init__(self, gamma, beta, running_mean, running_var, eps: float, momentum: float):
        self.gamma, self.beta = gamma.copy(), beta.copy()
        self.running_mean, self.running_var = running_mean.copy(), running_var.copy()
        self.eps, self.momentum = eps, momentum

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
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat = (x - mean) * inv_std
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
            self._cache = (xhat, inv_std)
        else:
            xhat = (x - self.running_mean) / np.sqrt(self.running_var + self.eps)
        return self.gamma * xhat + self.beta

    def backward(self, grad):
        xhat, inv_std = self._cache
        n = xhat.shape[0] * xhat.shape[1]
        self.grad_gamma = np.sum(grad * xhat, axis=(0, 1))
        self.grad_beta = np.sum(grad, axis=(0, 1))
        dxhat = grad * self.gamma
        return (inv_std / n) * (
            n * dxhat - dxhat.sum(axis=(0, 1)) - xhat * np.sum(dxhat * xhat, axis=(0, 1))
        )
