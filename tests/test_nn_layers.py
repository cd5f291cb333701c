"""Layer-level forward conventions and finite-difference gradient checks."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit as scipy_expit
from oracles import LoopBiLSTM, TwoPassBatchNorm, WindowMaxPool, central_difference

from breathline.errors import TrainingError
from breathline.nn.layers import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNorm1D,
    Conv1D,
    Dropout,
    MaxPool1D,
    ReLU,
    Sigmoid,
    TimeDense,
    expit,
)
from breathline.nn.optim import Adam
from breathline.nn.recurrent import BiLSTM

# relative error with a floor of 1 in the denominator, so near-zero
# gradients are judged absolutely
def _fd_assert(loss, array, analytic, picker, n=8):
    flat_grad = analytic.reshape(-1)
    idxs = picker.choice(array.size, size=min(n, array.size), replace=False)
    for i in idxs:
        fd = central_difference(loss, array, int(i))
        err = abs(flat_grad[int(i)] - fd) / max(1.0, abs(flat_grad[int(i)]))
        assert err < 1e-4, f"index {i}: analytic {flat_grad[int(i)]}, fd {fd}"


def test_conv_same_padding_tap_layout():
    rng = np.random.default_rng(0)
    conv = Conv1D(1, 1, 3, rng)
    conv.w = np.array([[[10.0]], [[1.0]], [[0.1]]])  # taps on x[t-1], x[t], x[t+1]
    conv.b = np.array([0.0])
    x = np.array([[[1.0], [2.0], [3.0], [4.0]]])
    np.testing.assert_allclose(conv.forward(x).ravel(), [1.2, 12.3, 23.4, 34.0])


def test_conv_gradients():
    rng = np.random.default_rng(1)
    conv = Conv1D(3, 4, 3, rng)
    x = rng.normal(size=(2, 9, 3))
    upstream = rng.normal(size=(2, 9, 4))

    def loss():
        return float(np.sum(conv.forward(x, training=True) * upstream))

    loss()
    dx = conv.backward(upstream)
    picker = np.random.default_rng(2)
    _fd_assert(loss, conv.w, conv.grad_w, picker)
    _fd_assert(loss, conv.b, conv.grad_b, picker)
    _fd_assert(loss, x, dx, picker)


def _loop_conv(x, w, b, upstream):
    """'same' convolution and its gradients, one output step and one tap
    at a time: tap k at output step t reads x[t + k - (kernel - 1) // 2],
    zero outside the input."""
    kernel = w.shape[0]
    left = (kernel - 1) // 2
    batch, time, _ = x.shape
    y = np.empty((batch, time, w.shape[2]))
    dx = np.zeros_like(x)
    grad_w = np.zeros_like(w)
    for n in range(batch):
        for t in range(time):
            y[n, t] = b
            for k in range(kernel):
                src = t + k - left
                if 0 <= src < time:
                    y[n, t] += x[n, src] @ w[k]
                    dx[n, src] += w[k] @ upstream[n, t]
                    grad_w[k] += np.outer(x[n, src], upstream[n, t])
    return y, dx, grad_w


# odd and even kernels; time lengths shorter than, equal to and longer than
# the kernel. From kernel 6 on, a tap can be shifted past the end of a
# 2-step input, where plain `[:time - shift]` slices select the wrong span.
CONV_CASES = [(kernel, time) for kernel in range(1, 8) for time in sorted({1, 2, kernel - 1, kernel, 9})]


@pytest.mark.parametrize("kernel, time", CONV_CASES)
def test_conv_matches_loop_oracle(kernel, time):
    rng = np.random.default_rng(100 * kernel + time)
    conv = Conv1D(3, 4, kernel, rng)
    conv.b = rng.normal(size=4)
    x = rng.normal(size=(2, time, 3))
    upstream = rng.normal(size=(2, time, 4))
    y = conv.forward(x, training=True)
    dx = conv.backward(upstream)
    want_y, want_dx, want_grad_w = _loop_conv(x, conv.w, conv.b, upstream)
    for got, want in [(y, want_y), (dx, want_dx), (conv.grad_w, want_grad_w)]:
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.array_equal(conv.grad_b, upstream.reshape(-1, 4).sum(axis=0))
    if kernel == 1:  # one tap is one dense projection per step, exactly
        x2, g2 = x.reshape(-1, 3), upstream.reshape(-1, 4)
        assert np.array_equal(y.reshape(-1, 4), x2 @ conv.w[0] + conv.b)
        assert np.array_equal(dx.reshape(-1, 3), g2 @ conv.w[0].T)
        assert np.array_equal(conv.grad_w[0], x2.T @ g2)


def test_conv_training_memory_has_no_im2col_copy():
    """conv0's shape at batch 8: a training forward plus backward holds the
    narrow (batch * time, kernel * out) tap matrices and the input
    gradient, never a (batch * time, kernel * in) copy of the input
    (20 MB here, and a second one for the input gradient)."""
    rng = np.random.default_rng(15)
    conv = Conv1D(130, 16, 3, rng)
    x = rng.normal(size=(8, 800, 130))
    upstream = rng.normal(size=(8, 800, 16))
    tracemalloc.start()
    try:
        conv.forward(x, training=True)
        conv.backward(upstream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= x.nbytes + 8 * 2**20


def test_dense_gradients():
    rng = np.random.default_rng(3)
    dense = TimeDense(4, 2, rng)
    x = rng.normal(size=(2, 5, 4))
    upstream = rng.normal(size=(2, 5, 2))

    def loss():
        return float(np.sum(dense.forward(x, training=True) * upstream))

    loss()
    dx = dense.backward(upstream)
    picker = np.random.default_rng(4)
    _fd_assert(loss, dense.w, dense.grad_w, picker)
    _fd_assert(loss, dense.b, dense.grad_b, picker)
    _fd_assert(loss, x, dx, picker)


def test_maxpool_shapes_and_routing():
    pool = MaxPool1D(3, 4)
    assert pool.output_length(800) == 200
    assert MaxPool1D(3, 5).output_length(200) == 40
    x = np.array([[[1.0], [5.0], [2.0], [8.0], [3.0], [9.0], [4.0]]])
    y = pool.forward(x, training=True)
    np.testing.assert_allclose(y.ravel(), [5.0, 9.0])
    grad = pool.backward(np.ones_like(y))
    np.testing.assert_allclose(grad.ravel(), [0, 1, 0, 0, 0, 1, 0])


def test_maxpool_gradients():
    rng = np.random.default_rng(5)
    pool = MaxPool1D(3, 4)
    x = rng.normal(size=(2, 11, 3))
    upstream = rng.normal(size=(2, 3, 3))

    def loss():
        return float(np.sum(pool.forward(x, training=True) * upstream))

    loss()
    dx = pool.backward(upstream)
    _fd_assert(loss, x, dx, np.random.default_rng(6), n=12)


def test_batchnorm_training_normalizes():
    bn = BatchNorm1D(2)
    x = np.random.default_rng(7).normal(3.0, 2.0, (4, 10, 2))
    out = bn.forward(x, training=True)
    np.testing.assert_allclose(out.mean(axis=(0, 1)), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=(0, 1)), 1.0, atol=1e-4)


def test_batchnorm_eval_uses_running_stats():
    bn = BatchNorm1D(2)
    rng = np.random.default_rng(8)
    for _ in range(50):
        bn.forward(rng.normal(3.0, 2.0, (4, 10, 2)), training=True)
    x = rng.normal(3.0, 2.0, (2, 6, 2))
    got = bn.forward(x, training=False)
    manual = (x - bn.running_mean) / np.sqrt(bn.running_var + BN_EPS) * bn.gamma + bn.beta
    np.testing.assert_allclose(got, manual, atol=1e-12)
    # running stats converge toward the stream statistics
    np.testing.assert_allclose(bn.running_mean, 3.0, atol=0.3)
    np.testing.assert_allclose(bn.running_var, 4.0, atol=0.8)


def test_batchnorm_gradients():
    rng = np.random.default_rng(9)
    bn = BatchNorm1D(3)
    bn.gamma = rng.normal(1.0, 0.1, 3)
    bn.beta = rng.normal(0.0, 0.1, 3)
    x = rng.normal(size=(2, 7, 3))
    upstream = rng.normal(size=(2, 7, 3))

    def loss():
        return float(np.sum(bn.forward(x, training=True) * upstream))

    loss()
    dx = bn.backward(upstream)
    picker = np.random.default_rng(10)
    _fd_assert(loss, bn.gamma, bn.grad_gamma, picker)
    _fd_assert(loss, bn.beta, bn.grad_beta, picker)
    _fd_assert(loss, x, dx, picker)


def test_dropout_mask_scale_and_determinism():
    drop = Dropout(0.2)
    x = np.ones((4, 50, 8))
    y1 = drop.forward(x, training=True, rng=np.random.default_rng(11))
    y2 = drop.forward(x, training=True, rng=np.random.default_rng(11))
    np.testing.assert_array_equal(y1, y2)  # same seed, same mask
    kept = y1[y1 != 0.0]
    np.testing.assert_allclose(kept, 1.25)  # survivors scaled by 1/(1-rate)
    assert abs((y1 == 0).mean() - 0.2) < 0.05
    # inference is the identity
    np.testing.assert_array_equal(drop.forward(x, training=False), x)


def test_dropout_backward_masks_gradient():
    drop = Dropout(0.5)
    x = np.ones((1, 10, 4))
    y = drop.forward(x, training=True, rng=np.random.default_rng(12))
    grad = drop.backward(np.ones_like(y))
    np.testing.assert_array_equal(grad != 0.0, y != 0.0)


def test_dropout_training_requires_rng():
    with pytest.raises(TrainingError):
        Dropout(0.2).forward(np.ones((1, 4, 2)), training=True)


def test_relu_and_sigmoid():
    relu = ReLU()
    x = np.array([[[-1.0], [0.0], [2.0]]])
    np.testing.assert_allclose(relu.forward(x, training=True).ravel(), [0.0, 0.0, 2.0])
    np.testing.assert_allclose(relu.backward(np.ones((1, 3, 1))).ravel(), [0.0, 0.0, 1.0])

    sig = Sigmoid()
    np.testing.assert_allclose(sig.forward(np.zeros((1, 1, 1))), 0.5)
    y = sig.forward(np.array([[[0.3]]]), training=True)
    grad = sig.backward(np.ones((1, 1, 1)))
    np.testing.assert_allclose(grad, y * (1.0 - y), rtol=1e-12)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def test_expit_is_scipy_expit_bit_for_bit():
    rng = np.random.default_rng(0)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001],
                    dtype=np.uint64).view(np.float64)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308, *nans])
    samples = {
        "normal": rng.normal(0.0, 3.0, 200_000),
        "uniform": rng.uniform(-760.0, 760.0, 200_000),
        # across glibc cexp's rescale point (x = -709) and exp's overflow (x = -709.78)
        "rescale": np.linspace(-712.0, -705.0, 200_001),
        "special": special,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # scipy's expit warns on none of these
        for name, x in samples.items():
            assert np.array_equal(_bits(expit(x)), _bits(scipy_expit(x))), name

    x = samples["uniform"][:2560].reshape(64, 40)
    x[::5, ::3] = special[np.arange(x[::5, ::3].size) % special.size].reshape(x[::5, ::3].shape)
    # strided input and output
    out = np.full((64, 40), 7.0)
    odd = out[:, 1::2]
    assert expit(x[:, ::2], out=odd) is odd
    assert np.array_equal(_bits(odd), _bits(scipy_expit(x[:, ::2])))
    assert (out[:, ::2] == 7.0).all()
    # in place, with a scratch reused across calls
    scratch = np.zeros(x.shape, dtype=np.complex128)
    for _ in range(2):
        y = x.copy()
        assert expit(y, out=y, scratch=scratch) is y
        assert np.array_equal(_bits(y), _bits(scipy_expit(x)))
        assert (scratch.imag == 0.0).all()
    assert expit(np.empty((0, 3))).shape == (0, 3)


def test_bilstm_shapes_and_gradients():
    rng = np.random.default_rng(13)
    lstm = BiLSTM(3, 4, rng)
    x = rng.normal(size=(2, 5, 3))
    assert lstm.forward(x).shape == (2, 5, 8)
    upstream = rng.normal(size=(2, 5, 8))

    def loss():
        return float(np.sum(lstm.forward(x, training=True) * upstream))

    loss()
    dx = lstm.backward(upstream)
    picker = np.random.default_rng(14)
    params, grads = lstm.params, lstm.grads
    assert list(params) == ["fwd.wx", "fwd.wh", "fwd.b", "bwd.wx", "bwd.wh", "bwd.b"] == list(grads)
    for name in params:
        _fd_assert(loss, params[name], grads[name], picker, n=6)
    _fd_assert(loss, x, dx, picker, n=10)


# The layers against tests/oracles.py's step-at-a-time versions, bit for
# bit. Shapes: the default detector's layers at a training batch of 8
# chunks of 800 frames and an inference batch of 32, batch 1, time 1.
LSTM_SHAPES = [(8, 40, 8), (32, 40, 8), (1, 40, 8), (8, 1, 8), (1, 1, 8)]


@pytest.mark.parametrize("batch, time, channels", LSTM_SHAPES)
def test_bilstm_matches_loop_oracle(batch, time, channels):
    rng = np.random.default_rng(batch * 1000 + time)
    lstm = BiLSTM(channels, 32, rng)
    lstm.b[...] = rng.normal(size=lstm.b.shape)
    oracle = LoopBiLSTM(lstm.params)
    x = rng.normal(size=(batch, time, channels))
    upstream = rng.normal(size=(batch, time, 64))
    assert np.array_equal(lstm.forward(x), oracle.forward(x))
    assert lstm._cache is None  # an inference forward keeps nothing
    assert np.array_equal(lstm.forward(x, training=True), oracle.forward(x, training=True))
    assert np.array_equal(lstm.backward(upstream), oracle.backward(upstream))
    for name, grad in oracle.grads.items():
        assert np.array_equal(lstm.grads[name], grad), name


def test_bilstm_parameters_are_views_into_the_direction_stacks():
    lstm = BiLSTM(3, 4, np.random.default_rng(0))
    for name, param in lstm.params.items():
        param[...] = 7.0  # how Adam and load_model write
    assert np.all(lstm.wx == 7.0) and np.all(lstm.wh == 7.0) and np.all(lstm.b == 7.0)


# pooling: the detector's two pools at the training and inference batches,
# batch 1 and time 1, windows past both ends (pool 7, stride 3 on 11
# steps pads 2 left and 3 right), overlapping and single-step windows
POOL_CASES = [
    ((8, 800, 16), 3, 4),
    ((8, 200, 8), 3, 5),
    ((32, 800, 16), 3, 4),
    ((32, 200, 8), 3, 5),
    ((1, 1, 3), 3, 4),
    ((1, 5, 3), 3, 5),
    ((2, 11, 3), 7, 3),
    ((2, 11, 3), 9, 2),
    ((2, 12, 3), 4, 4),
    ((2, 6, 3), 1, 1),
]


@pytest.mark.parametrize("shape, pool_size, stride", POOL_CASES)
def test_maxpool_matches_window_oracle(shape, pool_size, stride):
    rng = np.random.default_rng(pool_size * 100 + shape[1])
    x = rng.normal(size=shape)
    x[:, ::2] = np.round(x[:, ::2])  # ties, which go to the first maximum
    pool, oracle = MaxPool1D(pool_size, stride), WindowMaxPool(pool_size, stride)
    assert np.array_equal(pool.forward(x), oracle.forward(x))
    assert pool._cache is None
    y = pool.forward(x, training=True)
    assert np.array_equal(y, oracle.forward(x, training=True))
    upstream = rng.normal(size=y.shape)
    assert np.array_equal(pool.backward(upstream), oracle.backward(upstream))


@pytest.mark.parametrize("shape", [(8, 800, 16), (8, 200, 8), (32, 800, 16), (1, 1, 3), (1, 7, 3)])
def test_batchnorm_matches_two_pass_oracle(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    bn = BatchNorm1D(shape[2])
    bn.gamma[...] = rng.normal(1.0, 0.3, shape[2])
    bn.beta[...] = rng.normal(0.0, 0.3, shape[2])
    oracle = TwoPassBatchNorm(bn.gamma, bn.beta, bn.running_mean, bn.running_var, BN_EPS, BN_MOMENTUM)
    for _ in range(3):
        x = rng.normal(2.0, 3.0, shape)
        upstream = rng.normal(size=shape)
        assert np.array_equal(bn.forward(x, training=True), oracle.forward(x, training=True))
        assert np.array_equal(bn.backward(upstream), oracle.backward(upstream))
        assert np.array_equal(bn.grad_gamma, oracle.grad_gamma)
        assert np.array_equal(bn.grad_beta, oracle.grad_beta)
        assert np.array_equal(bn.running_mean, oracle.running_mean)
        assert np.array_equal(bn.running_var, oracle.running_var)
        assert np.array_equal(bn.forward(x), oracle.forward(x))


def test_adam_zero_gradient_is_a_noop():
    params = {"w": np.array([1.0, 2.0])}
    Adam(params, learning_rate=0.1).step({"w": np.zeros(2)})
    np.testing.assert_array_equal(params["w"], [1.0, 2.0])


def test_adam_first_step_is_gradient_scale_invariant():
    p1 = {"w": np.array([1.0])}
    p2 = {"w": np.array([1.0])}
    Adam(p1, learning_rate=0.001).step({"w": np.array([0.5])})
    Adam(p2, learning_rate=0.001).step({"w": np.array([1.0])})
    np.testing.assert_allclose(1.0 - p1["w"][0], 1.0 - p2["w"][0], rtol=1e-6)
    np.testing.assert_allclose(1.0 - p1["w"][0], 0.001, rtol=1e-6)


def test_adam_steady_state_step_magnitude():
    params = {"w": np.array([0.0])}
    opt = Adam(params, learning_rate=0.001)
    for _ in range(1000):
        prev = params["w"][0]
        opt.step({"w": np.array([2.0])})
    np.testing.assert_allclose(abs(params["w"][0] - prev), 0.001, rtol=1e-6)
