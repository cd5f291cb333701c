"""Detector model: shapes, chunked prediction, and the BLNN container."""

import dataclasses
import json
import struct
import threading

import numpy as np
import pytest

from breathline.errors import ConfigError, FormatError, ShapeError
from breathline.nn.model import BATCH_CHUNKS, BreathDetectorModel, ModelConfig, load_model, save_model

# small but structurally complete: two conv blocks, strides 4*5
SMALL = ModelConfig(
    n_mels=4,
    conv_filters=(4, 3),
    conv_kernels=(3, 1),
    pool_strides=(4, 5),
    lstm_units=4,
    chunk_frames=40,
    seed=0,
)


def test_default_config_shapes():
    cfg = ModelConfig()
    assert cfg.frames_per_step == 20 and cfg.chunk_frames // cfg.frames_per_step == 40
    model = BreathDetectorModel(cfg)
    x = np.random.default_rng(0).normal(size=(2, 800, 130))
    y = model.forward(x)
    assert y.shape == (2, 40)
    assert np.all((y > 0.0) & (y < 1.0))


def test_zeroed_output_head_yields_half():
    model = BreathDetectorModel(SMALL)
    params = model.parameters()
    params["dense.w"][...] = 0.0
    params["dense.b"][...] = 0.0
    x = np.random.default_rng(1).normal(size=(3, 40, 6))
    np.testing.assert_allclose(model.forward(x), 0.5)


def test_identical_batch_rows_identical_outputs():
    model = BreathDetectorModel(SMALL)
    row = np.random.default_rng(2).normal(size=(40, 6))
    y = model.forward(np.stack([row, row]))
    np.testing.assert_array_equal(y[0], y[1])


def test_inference_is_deterministic():
    model = BreathDetectorModel(SMALL)
    x = np.random.default_rng(3).normal(size=(2, 40, 6))
    np.testing.assert_array_equal(model.forward(x), model.forward(x))


def test_predict_file_step_counts():
    model = BreathDetectorModel(ModelConfig())
    rng = np.random.default_rng(4)
    assert model.predict_file(rng.normal(size=(1600, 130))).shape == (80,)
    # 900 frames: one full chunk plus a zero-padded partial, 45 steps kept
    assert model.predict_file(rng.normal(size=(900, 130))).shape == (45,)
    assert model.predict_file(rng.normal(size=(10, 130))).shape == (1,)


def test_predict_file_matches_forward_on_whole_chunk():
    model = BreathDetectorModel(SMALL)
    feats = np.random.default_rng(5).normal(size=(40, 6))
    np.testing.assert_array_equal(model.predict_file(feats), model.forward(feats[None])[0])


def test_predict_file_batches_zero_padded_chunks():
    """More than BATCH_CHUNKS chunks and a partial tail: the float32 frames are
    zero-padded to whole chunks and go through forward BATCH_CHUNKS at a time."""
    model = BreathDetectorModel(SMALL)
    chunk = SMALL.chunk_frames
    num_frames = 2 * BATCH_CHUNKS * chunk + 3 * chunk + 17
    feats = np.random.default_rng(9).normal(size=(num_frames, 6)).astype(np.float32)
    num_chunks = -(-num_frames // chunk)
    padded = np.zeros((num_chunks * chunk, 6))
    padded[:num_frames] = feats
    chunks = padded.reshape(num_chunks, chunk, 6)
    want = np.concatenate([model.forward(chunks[i : i + BATCH_CHUNKS]) for i in range(0, num_chunks, BATCH_CHUNKS)])
    got = model.predict_file(feats)
    assert got.shape == (-(-num_frames // SMALL.frames_per_step),)
    np.testing.assert_array_equal(got, want.reshape(-1)[: len(got)])


def test_forward_input_validation():
    model = BreathDetectorModel(SMALL)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((2, 40, 5)))
    with pytest.raises(ShapeError):
        model.forward(np.zeros((40, 6)))


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(chunk_frames=801)  # not divisible by 20
    with pytest.raises(ConfigError):
        ModelConfig(conv_filters=(16,), conv_kernels=(3, 1))
    with pytest.raises(ConfigError):
        ModelConfig(n_mels=-2)
    with pytest.raises(ConfigError):
        ModelConfig(conv_filters=(), conv_kernels=(), pool_strides=())


def test_save_load_bit_exact(tmp_path):
    model = BreathDetectorModel(SMALL)
    # make running stats non-trivial before saving
    model.forward(np.random.default_rng(6).normal(size=(4, 40, 6)), training=True, rng=np.random.default_rng(0))
    path = tmp_path / "model.bin"
    save_model(path, model)
    back = load_model(path)
    assert back.config == model.config
    for name, arr in model.parameters().items():
        np.testing.assert_array_equal(back.parameters()[name], arr)
    for name, arr in model.buffers().items():
        np.testing.assert_array_equal(back.buffers()[name], arr)
    x = np.random.default_rng(7).normal(size=(2, 40, 6))
    np.testing.assert_array_equal(back.forward(x), model.forward(x))

    # the features the detector was trained on travel with it
    hop5 = BreathDetectorModel(dataclasses.replace(SMALL, window_ms=25.0, hop_ms=5.0))
    save_model(path, hop5)
    back = load_model(path).config
    assert back == hop5.config and (back.window_ms, back.hop_ms, back.n_mels, back.step_ms) == (25.0, 5.0, 4, 100.0)


def _rewrite_header(raw: bytes, mutate) -> bytes:
    (header_len,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + header_len])
    mutate(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + header_len :]


def test_container_error_paths(tmp_path):
    model = BreathDetectorModel(SMALL)
    path = tmp_path / "model.bin"
    save_model(path, model)
    raw = path.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"RIFF" + raw[4:])
    with pytest.raises(FormatError, match="not a model file"):
        load_model(bad)

    ver = tmp_path / "ver.bin"
    ver.write_bytes(_rewrite_header(raw, lambda h: h.update(version=99)))
    with pytest.raises(FormatError, match="version"):
        load_model(ver)

    ghost = tmp_path / "ghost.bin"
    ghost.write_bytes(_rewrite_header(raw, lambda h: h["tensors"][0].update(name="ghost.w")))
    with pytest.raises(FormatError, match="unknown tensor|missing tensors"):
        load_model(ghost)

    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(raw[:-8])
    with pytest.raises(FormatError, match="truncated"):
        load_model(trunc)


def test_seed_controls_initialization():
    a = BreathDetectorModel(SMALL)
    b = BreathDetectorModel(SMALL)
    c = BreathDetectorModel(ModelConfig(**{**SMALL.__dict__, "seed": 1}))
    pa, pb, pc = a.parameters(), b.parameters(), c.parameters()
    for name in pa:
        np.testing.assert_array_equal(pa[name], pb[name])
    assert any(not np.array_equal(pa[n], pc[n]) for n in pa)


def test_threaded_inference_matches_serial():
    model = BreathDetectorModel(SMALL)
    rng = np.random.default_rng(8)
    inputs = [rng.normal(size=(120, 6)) for _ in range(4)]
    serial = [model.predict_file(f) for f in inputs]
    results = [None] * 4

    def work(i):
        results[i] = model.predict_file(inputs[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got, want in zip(results, serial):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("config", [SMALL, ModelConfig(conv_kernels=(1, 1), seed=4)], ids=["small", "kernel 1"])
def test_backward_gradients_equal_the_full_chain(config):
    """`backward` stops at the first conv layer's parameter gradients; every
    gradient equals the one a full chain, input gradient included, sets,
    bit for bit."""
    rng = np.random.default_rng(21)
    x = rng.normal(size=(3, config.chunk_frames, config.input_dim))
    grad = rng.normal(size=(3, config.chunk_frames // config.frames_per_step))
    model = BreathDetectorModel(config)
    model.forward(x, training=True, rng=np.random.default_rng(5))
    assert model.backward(grad) is None
    got = {name: g.tobytes() for name, g in model.gradients().items()}
    model.forward(x, training=True, rng=np.random.default_rng(5))
    g = grad[:, :, None]
    for _, layer in reversed(model._layers):
        g = layer.backward(g)
    assert g.shape == x.shape
    assert got == {name: g.tobytes() for name, g in model.gradients().items()}
