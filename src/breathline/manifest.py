"""Dataset manifests.

The corpora themselves are not redistributable, so a corpus is described
by a CSV manifest (`id,source,label,speaker_id,outlet,duration_ms,
annotation_path`) whose sources are local paths.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

from .errors import ValidationError

LABELS = ("real", "fake", "unlabeled")
MANIFEST_FIELDS = ["id", "source", "label", "speaker_id", "outlet", "duration_ms", "annotation_path"]


@dataclass
class ManifestEntry:
    id: str
    source: str
    label: str
    outlet: str
    speaker_id: Optional[str] = None
    duration_ms: Optional[float] = None
    annotation_path: Optional[str] = None

    def __post_init__(self):
        if not self.id:
            raise ValidationError("manifest entry id must be non-empty")
        if self.label not in LABELS:
            raise ValidationError(f"entry {self.id!r}: label must be one of {LABELS}, got {self.label!r}")
        if not self.outlet:
            raise ValidationError(f"entry {self.id!r}: outlet/show must be non-empty")
        if self.duration_ms is not None and not 0 <= self.duration_ms < math.inf:
            raise ValidationError(f"entry {self.id!r}: duration_ms must be finite and non-negative, got {self.duration_ms}")


def load_manifest(path) -> list[ManifestEntry]:
    """Read a manifest CSV, validating labels and id uniqueness."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header, rows = reader.fieldnames, list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: not a readable UTF-8 CSV: {exc}") from exc
    if header != MANIFEST_FIELDS:
        raise ValidationError(f"{path}: manifest header must be {','.join(MANIFEST_FIELDS)}, got {header}")
    entries = []
    for lineno, row in enumerate(rows, start=2):
        duration = row.get("duration_ms") or None
        try:
            entries.append(
                ManifestEntry(
                    id=row["id"],
                    source=row["source"],
                    label=row["label"],
                    speaker_id=row.get("speaker_id") or None,
                    outlet=row["outlet"],
                    duration_ms=float(duration) if duration is not None else None,
                    annotation_path=row.get("annotation_path") or None,
                )
            )
        except (ValidationError, ValueError) as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    seen = set()
    for entry in entries:
        if entry.id in seen:
            raise ValidationError(f"{path}: duplicate manifest id {entry.id!r}")
        seen.add(entry.id)
    return entries


def save_manifest(path, entries: list[ManifestEntry]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_FIELDS)
        for e in entries:
            writer.writerow(
                [
                    e.id,
                    e.source,
                    e.label,
                    e.speaker_id or "",
                    e.outlet,
                    "" if e.duration_ms is None else format(e.duration_ms, "g"),
                    e.annotation_path or "",
                ]
            )
