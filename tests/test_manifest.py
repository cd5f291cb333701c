"""Manifest CSV parsing and validation."""

import pytest

from breathline.errors import ValidationError
from breathline.manifest import ManifestEntry, load_manifest, save_manifest


def _entries():
    return [
        ManifestEntry(id="a", source="a.wav", label="real", outlet="show1", speaker_id="spk0", duration_ms=1500.0),
        ManifestEntry(id="b", source="b.wav", label="fake", outlet="tts1"),
        ManifestEntry(id="c", source="http://example.org/c.wav", label="unlabeled", outlet="misc", annotation_path="c.txt"),
    ]


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "manifest.csv"
    save_manifest(path, _entries())
    loaded = load_manifest(path)
    assert loaded == _entries()
    assert loaded[1].duration_ms is None and loaded[1].speaker_id is None


def test_header_must_match(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,file,label\nx,a.wav,real\n")
    with pytest.raises(ValidationError):
        load_manifest(path)


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    entries = _entries()
    entries[1] = ManifestEntry(id="a", source="b.wav", label="fake", outlet="tts1")
    save_manifest(path, entries)
    with pytest.raises(ValidationError, match="duplicate"):
        load_manifest(path)


def test_bad_label_names_line(tmp_path):
    path = tmp_path / "label.csv"
    path.write_text(
        "id,source,label,speaker_id,outlet,duration_ms,annotation_path\n"
        "a,a.wav,real,,show1,,\n"
        "b,b.wav,spoofed,,show1,,\n"
    )
    with pytest.raises(ValidationError, match=":3:"):
        load_manifest(path)


def test_entry_validation():
    with pytest.raises(ValidationError):
        ManifestEntry(id="", source="a.wav", label="real", outlet="x")
    with pytest.raises(ValidationError):
        ManifestEntry(id="a", source="a.wav", label="real", outlet="")
    with pytest.raises(ValidationError):
        ManifestEntry(id="a", source="a.wav", label="real", outlet="x", duration_ms=-1.0)
