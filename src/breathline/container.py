"""The binary container behind the detector (`BLNN`) and SVC (`BLSV`)
files; only `BLNN` files are read back.

Layout: a 4-byte magic, a little-endian uint32 header length, a
sorted-keys UTF-8 JSON header object, then the payload. The header's
`tensors` entry indexes the payload as `{name, shape, offset}` records
sorted by name. Tensors are stored row-major and back to back in one
little-endian dtype that each file type fixes, so the dtype is not
stored.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import FormatError

_LENGTH = struct.Struct("<I")
_PREFIX = 4 + _LENGTH.size

# what each magic is called in error messages
_KINDS = {b"BLNN": "model"}


def write_container(path, magic: bytes, header: dict, tensors: dict, dtype: str) -> None:
    """Write `header` plus a tensor index, then every tensor as `dtype`."""
    index, chunks, offset = [], [], 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype=dtype)
        index.append({"name": name, "shape": list(np.shape(tensors[name])), "offset": offset})
        chunks.append(arr.tobytes())
        offset += arr.nbytes
    blob = json.dumps({**header, "tensors": index}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(magic)
        f.write(_LENGTH.pack(len(blob)))
        f.write(blob)
        f.write(b"".join(chunks))


def read_container(path, magic: bytes, version: int, dtype: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Return (header without its tensor index, {name: array}).

    Every length, the magic, the JSON, the version and the whole tensor
    index are checked before any array is built, so a malformed file
    raises FormatError and never allocates more than its own size.
    """
    kind = _KINDS.get(magic, repr(magic))
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != magic:
        raise FormatError(f"{path}: not a {kind} file")
    if len(raw) < _PREFIX:
        raise FormatError(f"{path}: truncated {kind} file: no header length")
    (header_len,) = _LENGTH.unpack_from(raw, 4)
    if len(raw) < _PREFIX + header_len:
        raise FormatError(f"{path}: truncated {kind} file: header needs {header_len} bytes")
    try:
        header = json.loads(raw[_PREFIX : _PREFIX + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: bad {kind} header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: {kind} header is not a JSON object")
    if header.get("version") != version:
        raise FormatError(f"{path}: unsupported {kind} version {header.get('version')!r}")
    payload = raw[_PREFIX + header_len :]
    entries = _check_index(path, header.pop("tensors", None), len(payload), np.dtype(dtype).itemsize)
    arrays = {
        name: np.frombuffer(payload, dtype=dtype, count=count, offset=offset).reshape(shape).copy()
        for name, shape, offset, count in entries
    }
    return header, arrays


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_int(value) and value >= 0


def _check_index(path, index, payload_len: int, itemsize: int) -> list[tuple]:
    """(name, shape, offset, count) per tensor, after checking that the
    tensors tile the payload exactly: no gap, overlap or spare byte."""
    if not isinstance(index, list):
        raise FormatError(f"{path}: header has no tensor index list")
    entries, names = [], set()
    for entry in index:
        if not isinstance(entry, dict) or set(entry) != {"name", "shape", "offset"}:
            raise FormatError(f"{path}: tensor index entry must be {{name, shape, offset}}, got {entry!r}")
        name, shape, offset = entry["name"], entry["shape"], entry["offset"]
        if not isinstance(name, str) or name in names:
            raise FormatError(f"{path}: bad or repeated tensor name {name!r}")
        if not isinstance(shape, list) or not all(_is_count(n) for n in shape) or not _is_count(offset):
            raise FormatError(f"{path}: tensor {name!r} needs non-negative integer shape and offset")
        count = 1
        for n in shape:
            count *= n
        if offset + count * itemsize > payload_len:
            raise FormatError(f"{path}: tensor {name!r} payload is truncated")
        names.add(name)
        entries.append((name, tuple(shape), offset, count))
    end = 0
    for name, _, offset, count in sorted(entries, key=lambda e: (e[2], e[3])):
        if offset != end:
            raise FormatError(f"{path}: tensor {name!r} starts at byte {offset}, expected {end}")
        end += count * itemsize
    if end != payload_len:
        raise FormatError(f"{path}: {payload_len - end} payload bytes belong to no tensor")
    return entries


def header_fields(path, header: dict, types: dict[str, type]) -> dict:
    """Pick `types`' fields out of a header, checking each is present and
    a JSON value of its type: int, float (an int is accepted), or tuple
    (a list of ints, returned as a tuple)."""
    out = {}
    for name, kind in types.items():
        value = header.get(name)
        if kind is tuple:
            ok = isinstance(value, list) and all(_is_int(v) for v in value)
            value = tuple(value) if ok else value
        else:
            ok = _is_int(value) or (kind is float and isinstance(value, float))
        if not ok:
            raise FormatError(f"{path}: header field {name!r} must be {kind.__name__}, got {value!r}")
        out[name] = value
    return out
