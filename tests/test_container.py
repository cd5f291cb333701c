"""The container reader: malformed files raise FormatError, and
`detect` reports a malformed model without a traceback."""

import copy
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import breathline
from breathline.container import read_container, write_container
from breathline.errors import FormatError
from breathline.nn.model import BreathDetectorModel, ModelConfig, load_model, save_model

TINY = ModelConfig(n_mels=2, conv_filters=(3,), conv_kernels=(3,), pool_strides=(4,),
                   lstm_units=2, chunk_frames=8, seed=0)


WRITERS = {
    "model": (lambda p: save_model(p, BreathDetectorModel(TINY)), load_model),
}


def _split(raw):
    (header_len,) = struct.unpack("<I", raw[4:8])
    return json.loads(raw[8 : 8 + header_len]), raw[8 + header_len :]


def _join(magic, header, payload):
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return magic + struct.pack("<I", len(blob)) + blob + payload


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    root = tmp_path_factory.mktemp("containers")
    out = {}
    for kind, (write, load) in WRITERS.items():
        write(root / f"{kind}.bin")
        out[kind] = (root / f"{kind}.bin").read_bytes(), load, root / f"{kind}-case.bin"
    return out


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _mutated_header(draw, header):
    """Arbitrary JSON in place of the whole header, of one top-level
    field, or of one field of one tensor index entry."""
    where = draw(st.sampled_from(["header", "field", "tensor"]))
    if where == "header":
        return draw(JSON)
    header = copy.deepcopy(header)
    target = header if where == "field" else draw(st.sampled_from(header["tensors"]))
    key = draw(st.sampled_from(sorted(target)))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(JSON)
    return header


@pytest.mark.parametrize("kind", sorted(WRITERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_container_raises_format_error(containers, kind, data):
    raw, load, path = containers[kind]
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1), label="prefix length")
    path.write_bytes(raw[:cut])
    with pytest.raises(FormatError):
        load(path)

    header, payload = _split(raw)
    path.write_bytes(_join(raw[:4], data.draw(_mutated_header(header), label="header"), payload))
    try:
        load(path)
    except FormatError:
        pass


def _set_index(field, *values):
    def mutate(header):
        for entry, value in zip(header["tensors"], values):
            entry[field] = value
        return header
    return mutate


@pytest.mark.parametrize("mutate, payload_extra", [
    (_set_index("shape", [-2, -3]), b""),  # same element count as (2, 3)
    (_set_index("shape", [True, 6]), b""),
    (_set_index("shape", [2, 3.0]), b""),
    (_set_index("offset", 0, 0), b""),  # b overlaps a, and the last 8 bytes belong to no tensor
    (_set_index("offset", 0, 56), b"\0" * 8),  # 8 bytes between a and b belong to no tensor
    (_set_index("name", "b", "b"), b""),
    (lambda h: h, b"\0"),  # one byte that no tensor owns
], ids=["negative shape", "bool in shape", "float in shape", "overlap", "gap", "repeated name", "spare byte"])
def test_tensor_index_must_tile_the_payload(tmp_path, mutate, payload_extra):
    path = tmp_path / "c.bin"
    write_container(path, b"BLSV", {"version": 1}, {"a": np.arange(6.0).reshape(2, 3), "b": [7.0]}, "<f8")
    header, arrays = read_container(path, b"BLSV", 1, "<f8")
    assert header == {"version": 1}
    np.testing.assert_array_equal(arrays["a"], np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(arrays["b"], [7.0])

    header, payload = _split(path.read_bytes())
    path.write_bytes(_join(b"BLSV", mutate(header), payload + payload_extra))
    with pytest.raises(FormatError):
        read_container(path, b"BLSV", 1, "<f8")


def _drop_config(header):
    del header["config"]
    return header


def _set_config(**fields):
    def mutate(header):
        header["config"].update(fields)
        return header
    return mutate


@pytest.mark.parametrize("mutate", [
    None, _drop_config, lambda h: [h], _set_index("shape", [-1, -2]), _set_config(pool_strides=[0]),
    _set_config(lstm_units="2"), _set_config(dropout_rate=1.5), _set_config(extra=1),
    _set_config(lstm_units=1_000_000),
], ids=["4-byte file", "no config", "list header", "negative shape", "zero stride",
        "string size", "dropout 1.5", "extra config field", "huge lstm"])
def test_detect_reports_malformed_model(tmp_path, mutate):
    path = tmp_path / "m.bin"
    save_model(path, BreathDetectorModel(TINY))
    if mutate is None:
        path.write_bytes(b"BLNN")
    else:
        header, payload = _split(path.read_bytes())
        path.write_bytes(_join(b"BLNN", mutate(header), payload))
    env = dict(os.environ, PYTHONPATH=str(Path(breathline.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "breathline", "detect", "--model", str(path),
         "--manifest", str(tmp_path / "manifest.csv"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    with pytest.raises(FormatError):
        load_model(path)
