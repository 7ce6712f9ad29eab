"""Slide metadata table: parsing, validation, filtering, split derivation.

The manifest is a delimited UTF-8 text file with a header row naming ten
columns (case-insensitive, any order): fullpath, file, case_id, sub_block,
block, DIAG_SCORE, DIAG_TYPE, category, subset, Staining.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, TextIO

from .categories import (
    Category,
    EffectiveSubset,
    Subset,
    effective_subset,
)
from .fileio import write_atomic


class ManifestError(ValueError):
    """Raised for malformed or inconsistent manifest input."""


# Canonical column order used when serializing.
COLUMNS = (
    "fullpath",
    "file",
    "case_id",
    "sub_block",
    "block",
    "DIAG_SCORE",
    "DIAG_TYPE",
    "category",
    "subset",
    "Staining",
)

_CANONICAL = {name.lower(): name for name in COLUMNS}


@dataclass(frozen=True)
class SlideMeta:
    """One manifest record; `file` is the join key to embedding caches."""

    fullpath: str
    file: str
    case_id: str
    sub_block: str
    block: str
    diag_score: int
    diag_type: str
    category: Category
    subset: Subset
    staining: str
    row: int = 0  # 1-based data row number, for diagnostics
    effective: EffectiveSubset | None = None


Manifest = list[SlideMeta]


def is_path_component(name: str) -> bool:
    """True when `name` can stand as one entry of a directory: not `.` or
    `..`, and free of path separators and NUL. Slide file names and backend
    names become such entries in the cache and output directories."""
    return name not in (".", "..") and not any(c in name for c in "/\\\0")


def parse_manifest(source: str | Path | TextIO, delimiter: str = ",") -> Manifest:
    """Parse a delimited manifest into a list of SlideMeta.

    Unknown category or subset strings, duplicate file names, missing
    columns, and unparseable diagnostic scores are hard errors.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return parse_manifest(fh, delimiter=delimiter)

    reader = csv.reader(source, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise ManifestError("empty manifest: no header row") from None

    col_index: dict[str, int] = {}
    for i, name in enumerate(header):
        key = name.strip().lower()
        if key in _CANONICAL:
            if key in col_index:
                raise ManifestError(f"duplicate column {name!r} in header")
            col_index[key] = i
    missing = [c for c in COLUMNS if c.lower() not in col_index]
    if missing:
        raise ManifestError(f"missing required column(s): {', '.join(missing)}")

    records: Manifest = []
    seen_files: dict[str, int] = {}
    for row_no, row in enumerate(reader, start=1):
        if not any(cell.strip() for cell in row):
            continue
        if len(row) < len(header):
            raise ManifestError(f"row {row_no}: expected {len(header)} fields, got {len(row)}")

        def cell(name: str) -> str:
            return row[col_index[name]].strip()

        file_name = cell("file")
        if not file_name:
            raise ManifestError(f"row {row_no}: empty file name")
        if not is_path_component(file_name):
            raise ManifestError(f"row {row_no}: file name {file_name!r} is not a plain name")
        if file_name in seen_files:
            raise ManifestError(
                f"row {row_no}: duplicate file name {file_name!r}"
                f" (first seen at row {seen_files[file_name]})"
            )
        seen_files[file_name] = row_no

        score_text = cell("diag_score")
        try:
            diag_score = int(score_text)
        except ValueError:
            raise ManifestError(
                f"row {row_no}: unparseable DIAG_SCORE {score_text!r}"
            ) from None
        if not 0 <= diag_score <= 100:
            raise ManifestError(f"row {row_no}: DIAG_SCORE {diag_score} outside 0-100")

        try:
            category = Category.from_text(cell("category"))
            subset = Subset.from_text(cell("subset"))
        except ValueError as exc:
            raise ManifestError(f"row {row_no}: {exc}") from None

        records.append(
            SlideMeta(
                fullpath=cell("fullpath"),
                file=file_name,
                case_id=cell("case_id"),
                sub_block=cell("sub_block"),
                block=cell("block"),
                diag_score=diag_score,
                diag_type=cell("diag_type"),
                category=category,
                subset=subset,
                staining=cell("staining"),
                row=row_no,
            )
        )

    if not records:
        raise ManifestError("empty manifest: header only")
    return records


def serialize_manifest(manifest: Manifest, delimiter: str = ",") -> str:
    """Render a manifest back to delimited text in canonical column order."""
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    writer.writerow(COLUMNS)
    for m in manifest:
        writer.writerow(
            [
                m.fullpath,
                m.file,
                m.case_id,
                m.sub_block,
                m.block,
                str(m.diag_score),
                m.diag_type,
                m.category.to_text(),
                m.subset.to_text(),
                m.staining,
            ]
        )
    return buf.getvalue()


def write_manifest(manifest: Manifest, path: str | Path, delimiter: str = ",") -> None:
    write_atomic(path, (serialize_manifest(manifest, delimiter=delimiter).encode("utf-8"),))


def filter_categories(manifest: Manifest, keep: Iterable[Category]) -> Manifest:
    """Keep only records whose category is in `keep`, preserving order."""
    keep_set = set(keep)
    if not keep_set:
        raise ManifestError("filter_categories: empty keep set")
    kept = [m for m in manifest if m.category in keep_set]
    if not kept:
        raise ManifestError("no slides remain after category filter")
    return kept


def category_counts(manifest: Manifest) -> dict[Category, int]:
    counts = {c: 0 for c in Category}
    for m in manifest:
        counts[m.category] += 1
    return counts


def effective_split(manifest: Manifest) -> tuple[Manifest, dict[EffectiveSubset, int]]:
    """Attach the effective two-way subset to every record.

    Validation records are relabeled Test; Train and Test pass through.
    Returns the relabeled manifest and the per-partition counts.
    """
    out: Manifest = []
    counts = {EffectiveSubset.TRAIN: 0, EffectiveSubset.TEST: 0}
    for m in manifest:
        eff = effective_subset(m.subset)
        counts[eff] += 1
        out.append(replace(m, effective=eff))
    return out, counts
