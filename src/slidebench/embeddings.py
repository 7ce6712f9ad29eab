"""Per-slide patch embeddings: pluggable backends plus a binary cache.

Cache format (one `.embc` file per slide, little-endian throughout):

    magic "EMBC" | u32 version=1 | u16 slide_id length | slide_id UTF-8
    | u8 label code | u8 subset code | u32 m | u32 d
    | m*d float32 row-major payload | u32 CRC-32 of payload

The format is bit-exact so caches can be diffed across machines and the
real foundation-model extractors can stay fully decoupled: any process
that writes this format is a valid backend.

A cache file is only ever replaced, never rewritten in place: `write_cache`
writes `<slide>.embc.tmp` and renames it over the final name. The extract
stage relies on that when it hard-links a validated precomputed cache into
the run's cache directory, since the link shares its inode with the source.

The extract stage is the only pass over a run's embeddings: `extract`
reads and validates each precomputed cache once (or generates the
synthetic matrix), and the same in-memory matrix is linked or written into
the cache directory and mean-aggregated into its design-matrix row.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .categories import Category, EffectiveSubset
from .fileio import ByteReader, write_atomic
from .manifest import Manifest

MAGIC = b"EMBC"
VERSION = 1
CACHE_SUFFIX = ".embc"

BACKEND_KINDS = ("synthetic", "precomputed")


class CacheFormatError(ValueError):
    """Raised when a cache file is malformed, truncated, or corrupt."""


@dataclass
class EmbeddingMatrix:
    """m x d patch embeddings for one slide, with its label and subset."""

    slide_id: str
    data: np.ndarray  # (m, d) float32
    label: Category
    subset: EffectiveSubset

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2:
            raise ValueError(f"embedding data must be 2-D, got shape {self.data.shape}")
        if self.m < 1:
            raise ValueError("embedding matrix needs at least one patch")
        if not np.all(np.isfinite(self.data)):
            raise ValueError(f"slide {self.slide_id!r}: non-finite embedding values")

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class BackendSpec:
    """Configuration of an embedding backend.

    `synthetic` draws label-separated Gaussian embeddings deterministically
    from (seed, slide_id); `precomputed` reads existing cache files from
    `source_dir`.
    """

    kind: str
    dim: int
    seed: int = 0
    source_dir: str | Path | None = None
    class_separation: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("backend dim must be >= 1")
        if not math.isfinite(self.class_separation):
            raise ValueError(f"class_separation must be finite, got {self.class_separation!r}")
        if self.kind == "synthetic":
            if self.class_separation < 0:
                raise ValueError("class_separation must be >= 0")
            if self.dim < 3:
                raise ValueError("synthetic backend needs dim >= 3 for orthogonal class means")
        if self.kind == "precomputed" and not self.source_dir:
            raise ValueError("precomputed backend requires source_dir")


def slide_rng(seed: int, slide_id: str) -> np.random.Generator:
    # Stable per-slide stream: fold the slide id into the seed material.
    digest = hashlib.sha256(slide_id.encode("utf-8")).digest()
    words = list(struct.unpack("<8I", digest))
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF] + words))


@functools.cache
def class_directions(seed: int, dim: int) -> np.ndarray:
    """Three mutually orthogonal unit directions, dense across coordinates.

    Dense directions keep per-coordinate signal comparable to noise, so
    the class structure survives per-feature standardization downstream.
    Computed once per (seed, dim); the shared array is read-only.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0xC1A55]))
    basis = rng.standard_normal((3, dim))
    for i in range(3):
        for j in range(i):
            basis[i] -= (basis[i] @ basis[j]) * basis[j]
        basis[i] /= np.linalg.norm(basis[i])
    basis.flags.writeable = False
    return basis


def class_mean(label: Category, dim: int, separation: float, seed: int = 0) -> np.ndarray:
    """Synthetic class centroid: orthogonal unit direction scaled by separation."""
    if label is Category.OTHER:
        raise ValueError("no synthetic class mean for the excluded 'other' category")
    return separation * class_directions(seed, dim)[label.value]


def extract(
    backend: BackendSpec,
    slide_id: str,
    label: Category,
    subset: EffectiveSubset,
    patch_count: int | None = None,
) -> EmbeddingMatrix:
    """Produce the slide's embedding matrix through the configured backend."""
    if backend.kind == "synthetic":
        if patch_count is None or patch_count < 1:
            raise ValueError(f"slide {slide_id!r}: patch count must be >= 1")
        rng = slide_rng(backend.seed, slide_id)
        data = rng.standard_normal((patch_count, backend.dim))
        data += class_mean(label, backend.dim, backend.class_separation, seed=backend.seed)
        return EmbeddingMatrix(slide_id, data.astype(np.float32), label, subset)

    path = os.path.join(backend.source_dir, slide_id + CACHE_SUFFIX)
    try:
        emb = read_cache(path)
    except FileNotFoundError:
        raise CacheFormatError(f"missing embedding cache for slide {slide_id!r}: {path}") from None
    return check_cache(emb, path, slide_id, label, subset, backend.dim)


def check_cache(
    emb: EmbeddingMatrix,
    path: str | Path,
    slide_id: str,
    label: Category,
    subset: EffectiveSubset,
    dim: int,
) -> EmbeddingMatrix:
    """`emb`, read from `path`, if it holds the manifest row's slide id,
    label and subset at the backend's `dim`; CacheFormatError otherwise."""
    if emb.slide_id != slide_id:
        raise CacheFormatError(
            f"cache {path} holds slide {emb.slide_id!r}, expected {slide_id!r}"
        )
    if emb.label is not label or emb.subset is not subset:
        raise CacheFormatError(
            f"cache {path} label/subset ({emb.label.name}, {emb.subset.name}) "
            f"disagree with manifest ({label.name}, {subset.name})"
        )
    if emb.d != dim:
        raise CacheFormatError(f"cache {path} has d={emb.d}, backend expects {dim}")
    return emb


def cache_path(directory: str | Path, slide_id: str) -> Path:
    return Path(directory) / f"{slide_id}{CACHE_SUFFIX}"


def write_cache(emb: EmbeddingMatrix, directory: str | Path) -> Path:
    """Write one slide's embeddings; returns the file path.

    The bytes go to a fresh temp file that then replaces the final name, so
    a file already there (possibly a hard link to a precomputed source) is
    never opened for writing.
    """
    sid = emb.slide_id.encode("utf-8")
    if len(sid) > 0xFFFF:
        raise CacheFormatError(f"slide id too long to serialize ({len(sid)} bytes)")
    if emb.m > 0xFFFFFFFF or emb.d > 0xFFFFFFFF:
        raise CacheFormatError("embedding dimensions overflow the u32 header fields")
    payload = np.ascontiguousarray(emb.data, dtype="<f4").tobytes()
    header = (
        MAGIC
        + struct.pack("<I", VERSION)
        + struct.pack("<H", len(sid))
        + sid
        + struct.pack("<BB", emb.label.value, emb.subset.value)
        + struct.pack("<II", emb.m, emb.d)
    )
    crc = struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    return write_atomic(cache_path(directory, emb.slide_id), (header, payload, crc))


def read_cache(path: str | Path) -> EmbeddingMatrix:
    """Read one `.embc` file, verifying structure and payload CRC."""
    with open(path, "rb") as fh:
        reader = ByteReader(fh.read(), path, CacheFormatError)
    if reader.take(4, "magic") != MAGIC:
        raise CacheFormatError(f"{path}: bad magic")
    (version,) = struct.unpack("<I", reader.take(4, "version"))
    if version != VERSION:
        raise CacheFormatError(f"{path}: unsupported version {version}")
    (sid_len,) = struct.unpack("<H", reader.take(2, "slide id length"))
    slide_id = str(reader.take(sid_len, "slide id"), "utf-8")
    label_code, subset_code = reader.take(2, "label/subset")
    m, d = struct.unpack("<II", reader.take(8, "shape"))
    if m < 1 or d < 1:
        raise CacheFormatError(f"{path}: invalid shape ({m}, {d})")
    payload = reader.take(m * d * 4, "payload")
    (crc_stored,) = struct.unpack("<I", reader.take(4, "checksum"))
    reader.finish()
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_stored:
        raise CacheFormatError(f"{path}: payload checksum mismatch")
    data = np.frombuffer(payload, dtype="<f4").reshape(m, d)
    try:
        label = Category.from_code(label_code)
        subset = EffectiveSubset.from_code(subset_code)
    except ValueError as exc:
        raise CacheFormatError(f"{path}: {exc}") from None
    return EmbeddingMatrix(slide_id, data.copy(), label, subset)


def missing_caches(directory: str | Path, manifest: Manifest) -> list[str]:
    """The manifest's slide ids, in manifest order, that have no cache file
    in `directory` (all of them when it does not exist)."""
    on_disk = {p.stem for p in Path(directory).glob(f"*{CACHE_SUFFIX}")}
    return [m.file for m in manifest if m.file not in on_disk]
