import struct
import tracemalloc

import numpy as np
import pytest

from breathline.audio_io import MAX_SAMPLE_RATE, AudioBuffer, load_wav, resample, write_wav
from breathline.errors import ConfigError, FormatError, UnsupportedFormatError


def test_roundtrip_float32(tmp_path):
    rng = np.random.default_rng(0)
    buf = AudioBuffer(rng.uniform(-1, 1, 1234), 16000)
    path = tmp_path / "a.wav"
    write_wav(path, buf, encoding="float32")
    back = load_wav(path)
    assert back.sample_rate == 16000
    # float32 write quantizes once; reading returns exactly those values
    np.testing.assert_array_equal(back.samples, buf.samples.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("encoding", ["float32", "pcm16"])
def test_file_layout(tmp_path, encoding):
    samples = np.array([0.5, -0.25, 1.0, -1.0, 0.0])
    path = tmp_path / "a.wav"
    write_wav(path, AudioBuffer(samples, 8000), encoding=encoding)
    if encoding == "float32":
        fmt = struct.pack("<HHIIHH", 3, 1, 8000, 32000, 4, 32)
        chunks = b"fmt " + struct.pack("<I", 16) + fmt + b"fact" + struct.pack("<II", 4, 5)
        data = samples.astype("<f4").tobytes()
    else:
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        chunks = b"fmt " + struct.pack("<I", 16) + fmt
        data = np.array([16384, -8192, 32767, -32768, 0], dtype="<i2").tobytes()
    body = chunks + b"data" + struct.pack("<I", len(data)) + data
    assert path.read_bytes() == b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def test_write_memory_is_one_payload_array(tmp_path):
    """The float32 payload is written from the converted array, with no
    bytes copies of it for the chunk or the file."""
    buf = AudioBuffer(np.random.default_rng(2).uniform(-1, 1, 5 * 60 * 16000), 16000)
    tracemalloc.start()
    try:
        write_wav(tmp_path / "a.wav", buf, encoding="float32")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= buf.num_samples * 4 + 2**20


def test_roundtrip_pcm16_within_1_lsb(tmp_path):
    rng = np.random.default_rng(1)
    buf = AudioBuffer(rng.uniform(-0.9, 0.9, 4000), 8000)
    path = tmp_path / "a.wav"
    write_wav(path, buf, encoding="pcm16")
    back = load_wav(path)
    assert np.max(np.abs(back.samples - buf.samples)) <= 1.0 / 32768.0


def test_zero_file_and_full_scale_negative(tmp_path):
    # 1s of silence at 16k, and the -32768 code must map to -1.0 exactly
    path = tmp_path / "z.wav"
    write_wav(path, AudioBuffer(np.zeros(16000), 16000), encoding="pcm16")
    back = load_wav(path)
    assert back.samples.shape == (16000,)
    assert np.all(back.samples == 0.0)

    raw = np.array([-32768, 32767, 0, -16384], dtype="<i2")
    blob = _pcm16_wav(raw.tobytes(), channels=1, rate=16000)
    p = tmp_path / "hand.wav"
    p.write_bytes(blob)
    hand = load_wav(p)
    assert hand.samples[0] == -1.0
    assert hand.samples[2] == 0.0


def test_stereo_downmix_cancels(tmp_path):
    frames = np.zeros(100, dtype="<i2")
    left = np.full(100, 16384, dtype="<i2")
    right = -left
    interleaved = np.empty(200, dtype="<i2")
    interleaved[0::2] = left
    interleaved[1::2] = right
    p = tmp_path / "st.wav"
    p.write_bytes(_pcm16_wav(interleaved.tobytes(), channels=2, rate=16000))
    buf = load_wav(p)
    assert buf.samples.shape == (100,)
    assert np.all(buf.samples == 0.0)


def _pcm16_wav(data: bytes, channels: int, rate: int) -> bytes:
    block = 2 * channels
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * block, block, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _with_sample_rate(blob: bytes, rate: int) -> bytes:
    return blob[:24] + struct.pack("<I", rate) + blob[28:]


@pytest.mark.parametrize("rate", [0, MAX_SAMPLE_RATE + 1, 4294967291])
def test_sample_rate_out_of_range(tmp_path, rate):
    p = tmp_path / "x.wav"
    p.write_bytes(_with_sample_rate(_pcm16_wav(np.zeros(50, dtype="<i2").tobytes(), 1, 16000), rate))
    with pytest.raises(FormatError, match="sample rate"):
        load_wav(p)
    p.write_bytes(_with_sample_rate(p.read_bytes(), MAX_SAMPLE_RATE))
    assert load_wav(p).sample_rate == MAX_SAMPLE_RATE


def test_bad_magic_and_truncation(tmp_path):
    p = tmp_path / "x.wav"
    p.write_bytes(b"OGGS" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_wav(p)
    good = _pcm16_wav(np.zeros(50, dtype="<i2").tobytes(), 1, 16000)
    p.write_bytes(good[:40])
    with pytest.raises(FormatError):
        load_wav(p)


def test_unsupported_codec(tmp_path):
    fmt = struct.pack("<HHIIHH", 2, 1, 16000, 32000, 2, 16)  # ADPCM code 2
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", 4) + b"\x00" * 4
    p = tmp_path / "adpcm.wav"
    p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(UnsupportedFormatError):
        load_wav(p)


def test_buffer_validation():
    with pytest.raises(ConfigError):
        AudioBuffer(np.zeros((2, 2)), 16000)
    with pytest.raises(ConfigError):
        AudioBuffer(np.zeros(10), 0)
    with pytest.raises(ConfigError):
        AudioBuffer(np.array([0.0, np.nan]), 16000)


def test_resample_identity_and_length():
    buf = AudioBuffer(np.random.default_rng(2).normal(0, 0.1, 8000), 8000)
    same = resample(buf, 8000)
    np.testing.assert_array_equal(same.samples, buf.samples)
    up = resample(buf, 16000)
    assert abs(len(up.samples) - 16000) <= 1
    assert abs(up.duration_ms - buf.duration_ms) <= 1000.0 / 16000.0


def test_resample_preserves_tone_bin():
    # 200 Hz tone downsampled 48k -> 16k keeps its DFT peak at 200 Hz
    t = np.arange(48000) / 48000.0
    buf = AudioBuffer(0.5 * np.sin(2 * np.pi * 200.0 * t), 48000)
    out = resample(buf, 16000)
    spectrum = np.abs(np.fft.rfft(out.samples))
    peak_hz = np.argmax(spectrum) * 16000.0 / len(out.samples)
    assert abs(peak_hz - 200.0) <= 16000.0 / len(out.samples)


def test_write_rejects_unknown_encoding(tmp_path):
    buf = AudioBuffer(np.zeros(10), 16000)
    with pytest.raises(ConfigError):
        write_wav(tmp_path / "x.wav", buf, encoding="mp3")
