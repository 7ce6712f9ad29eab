"""Slide-level feature assembly: mean aggregation and design matrices.

Design-matrix file format (little-endian):

    magic "DMAT" | u32 version=1 | u32 n | u32 d
    | n*d float32 rows | n u8 label codes | n u8 subset codes
    | per slide: u16 id length + UTF-8 bytes
    | u32 CRC-32 over everything after the magic+version prefix

`aggregate_design` is the one aggregation loop. In a pipeline run the
extract stage drives it with the matrices it has just read or generated,
so no cache is read twice; `build_design` drives it from the caches in a
cache directory, for the stage commands that run without extract, and
checks each cache as extract checks a precomputed source.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .categories import Category, EffectiveSubset
from .embeddings import EmbeddingMatrix, cache_path, check_cache, missing_caches, read_cache
from .fileio import read_framed, write_framed
from .manifest import Manifest, SlideMeta

MAGIC = b"DMAT"
VERSION = 1


class DesignError(ValueError):
    """Raised for inconsistent design-matrix inputs or corrupt files."""


@dataclass
class DesignMatrix:
    """n x d slide features with aligned labels, subsets, and slide ids."""

    rows: np.ndarray      # (n, d) float32
    labels: np.ndarray    # (n,) uint8 Category codes
    subsets: np.ndarray   # (n,) uint8 EffectiveSubset codes
    slide_ids: list[str]

    def __post_init__(self) -> None:
        self.rows = np.ascontiguousarray(self.rows, dtype=np.float32)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.uint8)
        self.subsets = np.ascontiguousarray(self.subsets, dtype=np.uint8)
        n = self.rows.shape[0]
        if not (len(self.labels) == len(self.subsets) == len(self.slide_ids) == n):
            raise DesignError("misaligned design matrix arrays")
        if np.any(self.labels == Category.OTHER.value):
            raise DesignError("design matrix contains excluded 'other' labels")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


def mean_aggregate(emb: EmbeddingMatrix) -> np.ndarray:
    """Average the patch embeddings into one slide vector.

    Accumulates in float64 in ascending patch order, starting from +0.0
    (patch counts can exceed 20k, where float32 running sums lose digits),
    then stores f32.
    """
    if emb.m < 1:
        raise DesignError("cannot aggregate an empty embedding matrix")
    if emb.d == 1:
        # numpy sums a lone contiguous column pairwise, not in patch order;
        # accumulate is sequential, and + 0.0 turns an all -0.0 column into
        # the +0.0 that a zero-started sum gives.
        acc = np.add.accumulate(emb.data[:, 0], dtype=np.float64)[-1:] + 0.0
    else:
        # With d >= 2 the reduction adds whole rows into the accumulator, in
        # patch order, casting as it goes instead of copying the matrix.
        acc = np.add.reduce(emb.data, axis=0, dtype=np.float64, initial=0.0)
    return (acc / emb.m).astype(np.float32)


def aggregate_design(manifest: Manifest, embed: Callable[[SlideMeta], EmbeddingMatrix]) -> DesignMatrix:
    """One aggregated row per manifest slide, in manifest order.

    `embed(meta)` supplies each slide's embedding matrix, all at the
    backend's d (both callers check it); it is called once per slide, in
    manifest order, and the matrix is dropped once its row is taken.
    """
    rows = None
    labels = np.empty(len(manifest), dtype=np.uint8)
    subsets = np.empty(len(manifest), dtype=np.uint8)
    slide_ids: list[str] = []
    for i, meta in enumerate(manifest):
        if meta.effective is None:
            raise DesignError(f"slide {meta.file!r} has no effective subset; run effective_split first")
        vec = mean_aggregate(embed(meta))
        if rows is None:
            rows = np.empty((len(manifest), vec.shape[0]), dtype=np.float32)
        rows[i] = vec
        labels[i] = meta.category.value
        subsets[i] = meta.effective.value
        slide_ids.append(meta.file)
    assert rows is not None
    return DesignMatrix(rows, labels, subsets, slide_ids)


def build_design(manifest: Manifest, cache_dir: str | Path, backend_name: str, dim: int) -> DesignMatrix:
    """`aggregate_design` over `<cache_dir>/<backend_name>/<slide_id>.embc`;
    each cache must hold its manifest row's slide id, label and subset at
    the backend's `dim`."""
    directory = Path(cache_dir) / backend_name
    missing = missing_caches(directory, manifest)
    if missing:
        raise DesignError(
            f"missing embedding caches under {directory}: {', '.join(missing)}"
        )

    def embed(meta: SlideMeta) -> EmbeddingMatrix:
        path = cache_path(directory, meta.file)
        return check_cache(read_cache(path), path, meta.file, meta.category, meta.effective, dim)

    return aggregate_design(manifest, embed)


def split_design(dm: DesignMatrix) -> tuple[DesignMatrix, DesignMatrix]:
    """Partition rows by effective subset, preserving within-part order."""
    train_mask = dm.subsets == EffectiveSubset.TRAIN.value
    test_mask = ~train_mask
    if not train_mask.any():
        raise DesignError("empty train partition")
    if not test_mask.any():
        raise DesignError("empty test partition")

    def part(mask: np.ndarray) -> DesignMatrix:
        idx = np.flatnonzero(mask)
        return DesignMatrix(
            dm.rows[idx],
            dm.labels[idx],
            dm.subsets[idx],
            [dm.slide_ids[i] for i in idx],
        )

    return part(train_mask), part(test_mask)


def save_design(dm: DesignMatrix, path: str | Path) -> Path:
    body = bytearray()
    body += struct.pack("<II", dm.n, dm.d)
    body += np.ascontiguousarray(dm.rows, dtype="<f4").tobytes()
    body += dm.labels.tobytes()
    body += dm.subsets.tobytes()
    for sid in dm.slide_ids:
        raw = sid.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise DesignError(f"slide id too long to serialize ({len(raw)} bytes)")
        body += struct.pack("<H", len(raw)) + raw
    return write_framed(path, MAGIC, VERSION, body)


def load_design(path: str | Path) -> DesignMatrix:
    return DesignMatrix(*read_framed(path, MAGIC, VERSION, DesignError, _parse_design))


def _parse_design(take) -> tuple:
    n, d = struct.unpack("<II", take(8, "shape"))
    rows = np.frombuffer(take(n * d * 4, "rows"), dtype="<f4").reshape(n, d).copy()
    labels = np.frombuffer(take(n, "labels"), dtype=np.uint8).copy()
    subsets = np.frombuffer(take(n, "subsets"), dtype=np.uint8).copy()
    slide_ids = []
    for _ in range(n):
        (ln,) = struct.unpack("<H", take(2, "slide id length"))
        slide_ids.append(str(take(ln, "slide id"), "utf-8"))
    return rows, labels, subsets, slide_ids
