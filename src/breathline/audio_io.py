"""WAV ingestion, writing, and resampling.

Everything downstream works on mono float buffers at a canonical 16 kHz
rate; files are converted on ingest. The RIFF parser is deliberately
hand-rolled so that unsupported encodings are rejected with a message
naming the encoding instead of being silently mangled.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import resample_poly

from .errors import ConfigError, FormatError, UnsupportedFormatError

CANONICAL_RATE = 16000
# the highest WAV sample rate read; resampling it to CANONICAL_RATE takes
# a polyphase filter of at most about 8M taps
MAX_SAMPLE_RATE = 384000

# int16 full scale; -32768 maps to -1.0 exactly
PCM16_SCALE = 32768.0

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
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ConfigError("audio samples must be finite")
        if self.samples.size and float(np.max(np.abs(self.samples))) > 1.0 + 1e-9:
            raise ConfigError("audio samples must lie in [-1, 1]; normalize before constructing")

    @property
    def num_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration_ms(self) -> float:
        return 1000.0 * self.num_samples / self.sample_rate


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated WAV file while reading {what}")
    return data


def load_wav(path) -> AudioBuffer:
    """Load a RIFF/WAVE file as a mono buffer scaled to [-1, 1].

    Supports 16-bit PCM and 32-bit IEEE float, 1-2 channels. Stereo is
    averaged down to mono. 16-bit samples are scaled by 1/32768.
    """
    with open(path, "rb") as fh:
        header = fh.read(12)
        if len(header) < 12 or header[:4] != b"RIFF" or header[8:12] != b"WAVE":
            raise FormatError(f"{path}: not a RIFF/WAVE file")

        fmt = None
        data = None
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
                body = _read_exact(fh, size, "fmt chunk")
                fmt = struct.unpack("<HHIIHH", body[:16])
            elif chunk_id == b"data":
                data = _read_exact(fh, size, "data chunk")
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

    bytes_per_sample = bits // 8
    frame_bytes = bytes_per_sample * channels
    if len(data) % frame_bytes:
        data = data[: len(data) - len(data) % frame_bytes]

    if audio_format == 1:
        raw = np.frombuffer(data, dtype="<i2").astype(np.float64) / PCM16_SCALE
    else:
        raw = np.frombuffer(data, dtype="<f4").astype(np.float64)

    if channels == 2:
        raw = raw.reshape(-1, 2).mean(axis=1)

    if raw.size and not np.all(np.isfinite(raw)):
        raise FormatError(f"{path}: non-finite sample values")
    peak = float(np.max(np.abs(raw))) if raw.size else 0.0
    if peak > 1.0:
        raw = raw / peak
    return AudioBuffer(raw, sample_rate)


def write_wav(path, buffer: AudioBuffer, encoding: str = "float32") -> None:
    """Write a mono buffer as 'float32' or 'pcm16' WAV."""
    if encoding == "pcm16":
        scaled = np.round(buffer.samples * PCM16_SCALE)
        payload = np.clip(scaled, -32768, 32767).astype("<i2").tobytes()
        audio_format, bits = 1, 16
    elif encoding == "float32":
        payload = buffer.samples.astype("<f4").tobytes()
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

    body = b""
    for chunk_id, chunk in chunks:
        body += chunk_id + struct.pack("<I", len(chunk)) + chunk
        if len(chunk) % 2:
            body += b"\x00"
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)


def resample(buffer: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Band-limited (windowed-sinc polyphase) resampling.

    Output length is ceil(n * target / source), keeping total duration
    within one output sample period of the input duration.
    """
    if target_rate <= 0:
        raise ConfigError(f"target rate must be positive, got {target_rate}")
    if target_rate == buffer.sample_rate:
        return buffer
    g = math.gcd(target_rate, buffer.sample_rate)
    up, down = target_rate // g, buffer.sample_rate // g
    out = resample_poly(buffer.samples, up, down)
    return AudioBuffer(np.clip(out, -1.0, 1.0), target_rate)
