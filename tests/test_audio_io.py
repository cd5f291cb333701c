import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from breathline.audio_io import MAX_SAMPLE_RATE, READ_FRAMES, AudioBuffer, load_wav, open_wav, resample, write_wav
from breathline.errors import BreathlineError, ConfigError, FormatError, UnsupportedFormatError


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


@pytest.mark.parametrize("claim", [256 * 2**20, 0xFFFFFFF0], ids=["256 MiB", "4 GiB"])
def test_a_chunk_size_past_the_end_of_the_file_allocates_nothing(tmp_path, claim):
    """A 64-byte WAV whose data chunk claims far more than the file holds
    fails as a FormatError naming the chunk, before anything the claimed
    size is allocated."""
    good = _pcm16_wav(np.zeros(10, dtype="<i2").tobytes(), 1, 16000)
    p = tmp_path / "x.wav"
    p.write_bytes(good[:40] + struct.pack("<I", claim) + good[44:])
    assert p.stat().st_size == 64
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"x.wav: truncated WAV file: the data chunk claims {claim} bytes, 20 are left"):
            load_wav(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _size_fields(blob: bytes) -> list[int]:
    """Byte offsets of the RIFF size and of every chunk's size field."""
    offsets, pos = [4], 12
    while pos + 8 <= len(blob):
        offsets.append(pos + 4)
        size = struct.unpack("<I", blob[pos + 4 : pos + 8])[0]
        pos += 8 + size + size % 2
    return offsets


def wav_corruptions(valid: bytes):
    """`valid` cut at any byte, with one byte changed, or with one size
    field (RIFF or chunk) set to any uint32."""

    def with_byte(change):
        index, xor = change
        return valid[:index] + bytes([valid[index] ^ xor]) + valid[index + 1 :]

    def with_size(change):
        offset, size = change
        return valid[:offset] + struct.pack("<I", size) + valid[offset + 4 :]

    truncated = st.integers(0, len(valid) - 1).map(lambda n: valid[:n])
    flipped = st.tuples(st.integers(0, len(valid) - 1), st.integers(1, 255)).map(with_byte)
    resized = st.tuples(st.sampled_from(_size_fields(valid)), st.integers(0, 2**32 - 1)).map(with_size)
    return st.one_of(truncated, flipped, resized)


@pytest.fixture(scope="module")
def valid_wavs(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    buf = AudioBuffer(np.random.default_rng(3).uniform(-1, 1, 1000), 16000)
    blobs = {}
    for encoding in ("pcm16", "float32"):
        write_wav(root / f"{encoding}.wav", buf, encoding=encoding)
        blobs[encoding] = (root / f"{encoding}.wav").read_bytes()
    return blobs


@pytest.mark.parametrize("encoding", ["pcm16", "float32"])
@given(data=st.data())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_corrupted_wav_loads_or_raises_breathline_error(tmp_path_factory, valid_wavs, encoding, data):
    """Any truncation, byte change or chunk size either loads or raises a
    BreathlineError, and reading never holds more than twice the file
    plus 1 MiB, whatever size a header claims. `open_wav` agrees: it
    raises a BreathlineError too, or every span it reads is the loaded
    samples' slice, bit for bit."""
    blob = data.draw(wav_corruptions(valid_wavs[encoding]))
    path = tmp_path_factory.getbasetemp() / f"corrupt-{encoding}.wav"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        try:
            want = load_wav(path).samples
        except BreathlineError:
            want = None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(blob) + 2**20
    try:
        with open_wav(path) as source:
            bound = st.integers(0, source.num_samples + 2)
            spans = data.draw(st.lists(st.tuples(bound, bound).map(sorted), min_size=1, max_size=4))
            got = [source.read(lo, hi) for lo, hi in spans]
    except BreathlineError:
        assert want is None
    else:
        assert want is not None
        for (lo, hi), samples in zip(spans, got):
            assert samples.dtype == np.float64 and samples.tobytes() == want[lo:hi].tobytes()


def _wav(payload: np.ndarray, channels: int) -> bytes:
    """A 16 kHz WAV of interleaved '<i2' (PCM) or '<f4' (IEEE float) samples."""
    tag, width = (1, 2) if payload.dtype == np.dtype("<i2") else (3, 4)
    fmt = struct.pack("<HHIIHH", tag, channels, 16000, 16000 * channels * width, channels * width, 8 * width)
    data = payload.tobytes()
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("channels", [1, 2], ids=["mono", "stereo"])
@pytest.mark.parametrize("kind", ["pcm16", "float32", "loud float32"])
def test_every_span_reads_as_the_loaded_samples(tmp_path, kind, channels):
    """Spans within a read piece, across pieces, past the end and empty
    are the slices of `load_wav`'s samples, and those are the decoded
    payload: scaled by 1/32768, channels averaged, divided by a peak
    above 1."""
    frames = READ_FRAMES + 4465
    rng = np.random.default_rng(channels)
    if kind == "pcm16":
        payload = rng.integers(-32768, 32768, frames * channels).astype("<i2")
        want = payload.astype(np.float64) / 32768.0
    else:
        payload = rng.uniform(-3.0 if kind.startswith("loud") else -1.0, 1.0, frames * channels).astype("<f4")
        want = payload.astype(np.float64)
    want = want.reshape(-1, channels).mean(axis=1)
    if kind.startswith("loud"):
        want /= np.max(np.abs(want))
    path = tmp_path / "a.wav"
    path.write_bytes(_wav(payload, channels))
    loaded = load_wav(path).samples
    assert loaded.tobytes() == want.tobytes()
    spans = [(0, frames), (0, 1), (5, 5), (READ_FRAMES - 7, READ_FRAMES + 9), (100, 2 * READ_FRAMES), (frames - 3, frames + 10)]
    with open_wav(path) as source:
        assert (source.num_samples, source.sample_rate) == (frames, 16000)
        for lo, hi in spans:
            assert source.read(lo, hi).tobytes() == loaded[lo:hi].tobytes(), (lo, hi)


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
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="finite"):
            AudioBuffer(np.array([0.0, bad]), 16000)
    with pytest.raises(ConfigError, match=r"\[-1, 1\]"):
        AudioBuffer(np.array([0.0, -1.5]), 16000)
    assert AudioBuffer(np.zeros(0), 16000).num_samples == 0


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


@pytest.mark.parametrize("rate", [8000, 11025, 22050, 32000, 44100, 44101, 48000, 96000])
def test_resample_matches_scipy_resample_poly(rate):
    """The numpy polyphase filter is SciPy's resample_poly with its
    default Kaiser window, clipped: same length, values within 1e-12,
    and no samples from no samples. 44101 Hz is coprime with 16 kHz, so
    its 16000 phases come in groups."""
    from scipy.signal import resample_poly

    g = math.gcd(16000, rate)
    rng = np.random.default_rng(rate)
    for n in (0, 1, 5, 1000, 2 * rate):
        x = rng.uniform(-1, 1, n)
        want = np.clip(resample_poly(x, 16000 // g, rate // g), -1.0, 1.0)
        got = resample(AudioBuffer(x, rate), 16000).samples
        assert got.shape == want.shape, n
        if n:
            assert np.max(np.abs(got - want)) <= 1e-12, n


def test_resample_memory_is_output_plus_blocks():
    """60 s at 44.1 kHz: the input is read through strided views, never
    copied whole, so the peak is the output plus a bounded working set."""
    buf = AudioBuffer(np.random.default_rng(3).uniform(-1, 1, 60 * 44100), 44100)
    tracemalloc.start()
    try:
        out = resample(buf, 16000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.samples.nbytes + 4 * 2**20


def test_resample_filter_memory_is_the_filter_plus_small_pieces():
    """1 s at 383999 Hz, coprime with 16 kHz, takes a filter of 7,679,981
    taps (58.6 MiB). Its taps are computed in pieces in place, so the
    peak stays within a quarter of the filter's own bytes above it, where
    whole-length temporaries took 366 MiB."""
    rate = 383999
    buf = AudioBuffer(np.random.default_rng(5).uniform(-1, 1, rate), rate)
    filter_bytes = 8 * (20 * rate + 1)
    tracemalloc.start()
    try:
        resample(buf, 16000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * filter_bytes


def test_load_wav_memory_is_payload_plus_one_array(tmp_path):
    """Scaling and the finiteness and range checks allocate no array the
    length of the file beyond the float64 samples."""
    path = tmp_path / "a.wav"
    write_wav(path, AudioBuffer(np.random.default_rng(4).uniform(-1, 1, 60 * 16000), 16000), encoding="float32")
    tracemalloc.start()
    try:
        back = load_wav(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= back.num_samples * 4 + back.samples.nbytes + 2**20


def test_load_wav_rejects_non_finite_and_normalises_loud_float(tmp_path):
    path = tmp_path / "a.wav"
    write_wav(path, AudioBuffer(np.array([0.5, -0.25, 1.0]), 16000), encoding="float32")
    blob = path.read_bytes()
    for bad in (math.nan, math.inf, -math.inf):
        path.write_bytes(blob[:-4] + struct.pack("<f", bad))
        with pytest.raises(FormatError, match="non-finite sample values"):
            load_wav(path)
    path.write_bytes(blob[:-4] + struct.pack("<f", -2.0))
    np.testing.assert_array_equal(load_wav(path).samples, [0.25, -0.125, -1.0])


def test_write_rejects_unknown_encoding(tmp_path):
    buf = AudioBuffer(np.zeros(10), 16000)
    with pytest.raises(ConfigError):
        write_wav(tmp_path / "x.wav", buf, encoding="mp3")
