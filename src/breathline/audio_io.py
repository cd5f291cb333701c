"""WAV ingestion, writing, and resampling.

Everything downstream works on mono float samples at a canonical 16 kHz
rate; files are converted on ingest. The RIFF parser, `open_wav`, is
deliberately hand-rolled so that unsupported encodings are rejected with
a message naming the encoding instead of being silently mangled. It
gives a `WavSource`, whose spans are read from the file as needed;
`load_wav` reads one whole into an `AudioBuffer`. Both have `read(lo, hi)`,
so feature extraction takes either; `open_canonical` gives either at 16 kHz.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, FormatError, UnsupportedFormatError

CANONICAL_RATE = 16000
# the highest WAV sample rate read; resampling it to CANONICAL_RATE takes
# a polyphase filter of at most about 8M taps
MAX_SAMPLE_RATE = 384000

# int16 full scale; -32768 maps to -1.0 exactly
PCM16_SCALE = 32768.0

# the resampling filter is SciPy resample_poly's default: a Kaiser-
# windowed sinc with this beta, of 20 * max(up, down) + 1 taps
KAISER_BETA = 5.0
# resampler working set: one phase group's filter matrix holds about
# FILTER_ELEMENTS values, one block of input windows about BLOCK_ELEMENTS
FILTER_ELEMENTS = 1 << 20
BLOCK_ELEMENTS = 1 << 18
# the filter's taps are computed this many at a time, so its temporaries
# stay small beside the filter itself (8 bytes per tap)
FILTER_PIECE = 1 << 16
# frames decoded at a time by a WavSource read and by a float32 file's
# scan at open (at most about 2 MiB of buffers per piece)
READ_FRAMES = 1 << 16

_FORMAT_NAMES = {
    0x0001: "PCM",
    0x0002: "ADPCM",
    0x0003: "IEEE float",
    0x0006: "A-law",
    0x0007: "mu-law",
    0xFFFE: "WAVE_FORMAT_EXTENSIBLE",
}


@dataclass
class AudioBuffer:
    """Mono audio: float samples in [-1, 1] plus a sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ConfigError(f"AudioBuffer requires a 1-D sample array, got shape {self.samples.shape}")
        if int(self.sample_rate) <= 0:
            raise ConfigError(f"sample rate must be positive, got {self.sample_rate}")
        self.sample_rate = int(self.sample_rate)
        low, high = _sample_range(self.samples)
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ConfigError("audio samples must be finite")
        if max(-low, high) > 1.0 + 1e-9:
            raise ConfigError("audio samples must lie in [-1, 1]; normalize before constructing")

    @property
    def num_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration_ms(self) -> float:
        return 1000.0 * self.num_samples / self.sample_rate

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Samples [lo, hi), a view: the same call as `WavSource.read`."""
        return self.samples[lo:hi]

    def close(self) -> None:
        """Nothing to release: the same call as `WavSource.close`."""


def _sample_range(samples: np.ndarray) -> tuple[float, float]:
    """(min, max) of the samples, (0, 0) when empty. NaN and inf carry
    through both reductions, and neither allocates a full-length array."""
    if not samples.size:
        return 0.0, 0.0
    return float(samples.min()), float(samples.max())


def _check_chunk(fh, path, size: int, what: str) -> None:
    """Raise unless a chunk body of `size` bytes fits in the bytes left in
    the file, so a header that promises more allocates nothing."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise FormatError(f"{path}: truncated WAV file: the {what} chunk claims {size} bytes, {left} are left")


class WavSource:
    """An open WAV file read span by span: `read(lo, hi)` reads just the
    bytes of samples [lo, hi) with positioned reads, so any thread may read
    any span, and converts them as `load_wav` does. Use it as a context
    manager, or `close` it."""

    def __init__(self, path, fh, offset: int, num_samples: int, sample_rate: int, channels: int, dtype: str):
        self.path, self._fh, self._offset = path, fh, offset
        self.num_samples, self.sample_rate, self._channels, self._dtype = num_samples, sample_rate, channels, dtype
        self._peak = 1.0  # samples are divided by a larger peak

    @property
    def duration_ms(self) -> float:
        return 1000.0 * self.num_samples / self.sample_rate

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Samples [lo, hi) as float64, cut at the end of the file as a
        slice is, in pieces of READ_FRAMES frames."""
        hi = min(hi, self.num_samples)
        lo = min(lo, hi)
        out = np.empty(hi - lo)
        for a in range(lo, hi, READ_FRAMES):
            b = min(a + READ_FRAMES, hi)
            out[a - lo : b - lo] = self._decode(a, b)
        if self._peak > 1.0:
            out /= self._peak
        return out

    def _decode(self, lo: int, hi: int) -> np.ndarray:
        """Frames [lo, hi) as mono float64, before any peak division."""
        raw = np.empty((hi - lo) * self._channels, self._dtype)
        view = memoryview(raw).cast("B")
        start = self._offset + lo * raw.itemsize * self._channels
        done = 0
        while done < len(view):
            got = os.preadv(self._fh.fileno(), [view[done:]], start + done)
            if not got:
                raise FormatError(f"{self.path}: truncated WAV file: it ends before sample {hi} of {self.num_samples}")
            done += got
        samples = raw.astype(np.float64)
        if self._dtype == "<i2":
            samples /= PCM16_SCALE
        if self._channels == 2:
            samples = samples.reshape(-1, 2).mean(axis=1)
        return samples

    def _scan(self) -> None:
        """Check a float32 payload for non-finite values and find its peak,
        one piece at a time."""
        peak = 0.0
        for lo in range(0, self.num_samples, READ_FRAMES):
            low, high = _sample_range(self._decode(lo, min(lo + READ_FRAMES, self.num_samples)))
            if not (math.isfinite(low) and math.isfinite(high)):
                raise FormatError(f"{self.path}: non-finite sample values")
            peak = max(peak, -low, high)
        self._peak = peak

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _read_header(fh, path) -> tuple:
    """Parse the RIFF headers: (data offset, frames, sample rate, channels,
    sample dtype). The file position ends past the last chunk."""
    header = fh.read(12)
    if len(header) < 12 or header[:4] != b"RIFF" or header[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None  # (offset, size)
    while True:
        chunk_hdr = fh.read(8)
        if len(chunk_hdr) == 0:
            break
        if len(chunk_hdr) < 8:
            raise FormatError(f"{path}: truncated chunk header")
        chunk_id, size = struct.unpack("<4sI", chunk_hdr)
        if chunk_id == b"fmt ":
            if size < 16:
                raise FormatError(f"{path}: fmt chunk too small ({size} bytes)")
            _check_chunk(fh, path, size, "fmt")
            fmt = struct.unpack("<HHIIHH", fh.read(size)[:16])
        elif chunk_id == b"data":
            _check_chunk(fh, path, size, "data")
            data = fh.tell(), size
            fh.seek(size, 1)
        else:
            fh.seek(size, 1)
        if size % 2:  # chunks are word-aligned
            fh.seek(1, 1)

    if fmt is None:
        raise FormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise FormatError(f"{path}: missing data chunk")

    audio_format, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if audio_format not in (1, 3):
        name = _FORMAT_NAMES.get(audio_format, f"format tag {audio_format:#06x}")
        raise UnsupportedFormatError(f"{path}: unsupported WAV encoding: {name}")
    if channels not in (1, 2):
        raise UnsupportedFormatError(f"{path}: unsupported WAV encoding: {channels} channels")
    if audio_format == 1 and bits != 16:
        raise UnsupportedFormatError(f"{path}: unsupported WAV encoding: {bits}-bit PCM")
    if audio_format == 3 and bits != 32:
        raise UnsupportedFormatError(f"{path}: unsupported WAV encoding: {bits}-bit IEEE float")
    if not 1 <= sample_rate <= MAX_SAMPLE_RATE:
        raise FormatError(f"{path}: sample rate {sample_rate} Hz is outside 1..{MAX_SAMPLE_RATE}")

    offset, size = data
    frames = size // (bits // 8 * channels)  # a partial last frame is dropped
    return offset, frames, sample_rate, channels, "<i2" if audio_format == 1 else "<f4"


def open_wav(path) -> WavSource:
    """Open a RIFF/WAVE file for reading spans of its samples.

    Supports 16-bit PCM and 32-bit IEEE float, 1-2 channels. Only the
    headers are read; a float32 payload is also scanned once, in pieces,
    for non-finite values and its peak.
    """
    fh = open(path, "rb")
    try:
        source = WavSource(path, fh, *_read_header(fh, path))
        if source._dtype == "<f4":
            source._scan()
        return source
    except BaseException:
        fh.close()
        raise


def load_wav(path) -> AudioBuffer:
    """Load a RIFF/WAVE file as a mono buffer scaled to [-1, 1].

    Supports what `open_wav` does. Stereo is averaged down to mono.
    16-bit samples are scaled by 1/32768, and a float file whose peak
    exceeds 1 is divided by its peak.
    """
    with open_wav(path) as source:
        return AudioBuffer(source.read(0, source.num_samples), source.sample_rate)


def open_canonical(path) -> WavSource | AudioBuffer:
    """A WAV file's audio at CANONICAL_RATE from one open, to be closed: a
    16 kHz file's `WavSource`, else its samples read whole and resampled."""
    source = open_wav(path)
    if source.sample_rate == CANONICAL_RATE:
        return source
    with source:
        return resample(AudioBuffer(source.read(0, source.num_samples), source.sample_rate), CANONICAL_RATE)


def write_wav(path, buffer: AudioBuffer, encoding: str = "float32") -> None:
    """Write a mono buffer as 'float32' or 'pcm16' WAV."""
    # the payload array is written as it is, so writing holds one array
    # of the output width besides the buffer
    if encoding == "pcm16":
        scaled = buffer.samples * PCM16_SCALE
        np.round(scaled, out=scaled)
        payload = np.clip(scaled, -32768, 32767, out=scaled).astype("<i2")
        del scaled
        audio_format, bits = 1, 16
    elif encoding == "float32":
        payload = buffer.samples.astype("<f4")
        audio_format, bits = 3, 32
    else:
        raise ConfigError(f"unknown WAV encoding {encoding!r}; use 'pcm16' or 'float32'")

    channels = 1
    byte_rate = buffer.sample_rate * channels * bits // 8
    block_align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", audio_format, channels, buffer.sample_rate, byte_rate, block_align, bits)
    chunks = [(b"fmt ", fmt)]
    if audio_format == 3:  # non-PCM formats carry a fact chunk
        chunks.append((b"fact", struct.pack("<I", buffer.num_samples)))
    chunks.append((b"data", payload))

    sizes = [memoryview(chunk).nbytes for _, chunk in chunks]
    body_len = sum(8 + size + size % 2 for size in sizes)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + body_len) + b"WAVE")
        for (chunk_id, chunk), size in zip(chunks, sizes):
            fh.write(chunk_id + struct.pack("<I", size))
            fh.write(chunk)
            if size % 2:
                fh.write(b"\x00")


def _lowpass(up: int, down: int) -> tuple[np.ndarray, int]:
    """resample_poly's default filter and its half length:
    `firwin(2*half_len + 1, 1/max_rate, window=("kaiser", 5.0)) * up`,
    with half_len = 10 * max_rate, as a sinc times np.kaiser normalised
    to a DC gain of `up`."""
    max_rate = max(up, down)
    half_len = 10 * max_rate
    cutoff = 1.0 / max_rate
    # both factors are symmetric bit for bit, so compute the first half
    # (np.kaiser's expression with n - alpha = m) in place, FILTER_PIECE
    # taps at a time, and mirror it
    h = np.empty(2 * half_len + 1)
    for lo in range(0, half_len + 1, FILTER_PIECE):
        m = np.arange(float(lo - half_len), float(min(lo + FILTER_PIECE - half_len, 1)))
        piece = h[lo : lo + len(m)]
        np.multiply(cutoff, np.sinc(cutoff * m), out=piece)
        piece *= np.i0(KAISER_BETA * np.sqrt(1 - (m / half_len) ** 2.0)) / np.i0(KAISER_BETA)
    h[half_len + 1 :] = h[half_len - 1 :: -1]
    h /= h.sum()
    h *= up
    return h, half_len


def _resample_poly(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """SciPy's `resample_poly(x, up, down)` for 1-D float64 x, with its
    zero padding, alignment and ceil(n * up / down) output length.

    Output m is the sum over inputs i of x[i] * h[m*down + offset - i*up].
    The outputs are laid out in rows of k*up, and row r reads the inputs
    from r*k*down on, so each column takes the same taps in every row:
    a block of rows is one matmul of strided input windows by a matrix
    that holds each column's reversed taps at its input offset. A matmul
    takes about taps*up/down columns, which keeps its windows within
    about two filter lengths; a row with more (a large `up`, from rates
    coprime with the target) goes in groups of columns.
    """
    n_in = x.size
    n_out = -(-n_in * up // down)
    h, half_len = _lowpass(up, down)
    n_pre_pad = down - half_len % down
    offset = (half_len + n_pre_pad) // down * down - n_pre_pad
    taps = -(-h.size // up)
    columns = max(1, min(taps * up // down, FILTER_ELEMENTS // (2 * taps + 1)))
    k = max(1, columns // up)
    row_len, stride = k * up, k * down
    rows = -(-n_out // row_len)
    out = np.empty((rows, row_len))
    for c0 in range(0, row_len, columns):
        c1 = min(c0 + columns, row_len)
        d = np.arange(c0, c1) * down + offset  # column c takes h[d[c] - j*up] from input r*stride + j
        first = -((h.size - 1 - d[0]) // up)
        width = int(d[-1] // up - first + 1)
        tap = d - (first + np.arange(width))[:, None] * up
        taps_matrix = np.where((tap >= 0) & (tap < h.size), h[tap % h.size], 0.0)
        # rows whose windows reach past an end of the input are their own
        # blocks, read from a small zero-padded copy; the rest are views
        head = min(rows, max(0, -(first // stride)))
        tail = min(rows, max(head, (n_in - first - width) // stride + 1))
        step = max(1, BLOCK_ELEMENTS // width)
        for r0, r1 in itertools.pairwise(sorted({0, *range(head, tail, step), tail, rows})):
            lo = r0 * stride + first
            hi = (r1 - 1) * stride + first + width
            if 0 <= lo and hi <= n_in:
                seg = x[lo:hi]
            else:
                seg = np.zeros(hi - lo)
                a, b = max(lo, 0), min(hi, n_in)
                if a < b:
                    seg[a - lo : b - lo] = x[a:b]
            item = seg.strides[0]
            windows = as_strided(seg, shape=(r1 - r0, width), strides=(stride * item, item), writeable=False)
            np.matmul(windows, taps_matrix, out=out[r0:r1, c0:c1])
    return out.reshape(-1)[:n_out]


def resample(buffer: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Band-limited (Kaiser-windowed sinc polyphase) resampling, equal to
    SciPy's resample_poly with its default window within 1e-12.

    Output length is ceil(n * target / source), keeping total duration
    within one output sample period of the input duration.
    """
    if target_rate <= 0:
        raise ConfigError(f"target rate must be positive, got {target_rate}")
    if target_rate == buffer.sample_rate:
        return buffer
    g = math.gcd(target_rate, buffer.sample_rate)
    out = _resample_poly(buffer.samples, target_rate // g, buffer.sample_rate // g)
    return AudioBuffer(np.clip(out, -1.0, 1.0, out=out), target_rate)
