"""The three text readers (manifest CSV, label-track TSV, settings file) on
corrupted input: each either loads or raises a BreathlineError."""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from breathline.annotations import BreathIntervalSet, load_annotations, save_annotations
from breathline.errors import BreathlineError, ConfigError, ValidationError
from breathline.evaluation import parse_experiment_config
from breathline.manifest import ManifestEntry, load_manifest, save_manifest


def corruptions(valid: bytes):
    """`valid` cut short, or with one to four bits flipped."""

    def flip(bits):
        out = bytearray(valid)
        for index, bit in bits:
            out[index] ^= 1 << bit
        return bytes(out)

    truncated = st.integers(0, len(valid) - 1).map(lambda n: valid[:n])
    flipped = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 7)), min_size=1, max_size=4).map(flip)
    return st.one_of(truncated, flipped)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    save_manifest(root / "manifest.csv", [
        ManifestEntry(id="real-0000", source="real-0000.wav", label="real", outlet="show1", speaker_id="spk0",
                      duration_ms=15000.0, annotation_path="real-0000.tsv"),
        ManifestEntry(id="fake-0000", source="fake-0000.wav", label="fake", outlet="tts1", duration_ms=15000.0),
    ])
    save_annotations(root / "labels.tsv", BreathIntervalSet([(120.0, 480.0), (3000.5, 3400.0), (9000.0, 9500.0)], 15000.0))
    (root / "settings.cfg").write_text("# pipeline\nexperiment = pipeline\nseed = 3\nthreshold = 0.5\nlearning_rate = 0.001\n")
    return {name: (root / name).read_bytes() for name in ("manifest.csv", "labels.tsv", "settings.cfg")}


READERS = {
    "manifest.csv": load_manifest,
    "labels.tsv": lambda path: load_annotations(path, 15000.0),
    "settings.cfg": parse_experiment_config,
}


@pytest.mark.parametrize("name", READERS)
@given(data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_corrupted_file_loads_or_raises_breathline_error(tmp_path_factory, valid_files, name, data):
    path = tmp_path_factory.getbasetemp() / f"corrupt-{name}"
    path.write_bytes(data.draw(corruptions(valid_files[name])))
    try:
        READERS[name](path)
    except BreathlineError:
        pass


@pytest.mark.parametrize("reader,error", [
    ("manifest.csv", ValidationError), ("labels.tsv", ValidationError), ("settings.cfg", ConfigError),
])
def test_non_utf8_byte_names_the_file(tmp_path, valid_files, reader, error):
    path = tmp_path / reader
    path.write_bytes(valid_files[reader] + b"\xff\n")
    with pytest.raises(error, match=re.escape(str(path))):
        READERS[reader](path)


def test_oversized_manifest_field_is_a_validation_error(tmp_path, valid_files):
    path = tmp_path / "manifest.csv"
    path.write_bytes(valid_files["manifest.csv"] + b"big," + b"x" * 131073 + b",real,,show1,,\n")
    with pytest.raises(ValidationError, match="field larger than field limit"):
        load_manifest(path)


@pytest.mark.parametrize("duration", ["nan", "inf", "-inf", "-1"])
def test_manifest_duration_must_be_finite_and_non_negative(tmp_path, duration):
    path = tmp_path / "manifest.csv"
    path.write_text(
        "id,source,label,speaker_id,outlet,duration_ms,annotation_path\n"
        f"a,a.wav,real,,show1,{duration},\n"
    )
    with pytest.raises(ValidationError, match=":2:.*finite and non-negative"):
        load_manifest(path)
