"""Whole-file writes that replace the final name in one step, and the
frame of the binary file formats.

Every file slidebench emits (caches, design matrices, models, JSON
documents, plots) is written to `<name>.tmp` and renamed over `<name>`.
A reader, or a run killed midway, sees the previous file or the new one,
never a part; and a final name that is a hard link to someone else's
file (a linked precomputed cache) is replaced, never opened for writing.

Design matrices (`.dmat`) and models (`.modl`) share one frame: 4-byte
magic | u32 version | body | u32 CRC-32 of the body, little-endian.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Any

TEMP_SUFFIX = ".tmp"


def temp_path(path: Path) -> Path:
    """Where a file is staged before it is renamed into place."""
    return path.with_name(path.name + TEMP_SUFFIX)


def write_atomic(path: str | Path, chunks: Iterable[bytes]) -> Path:
    """Write `chunks` in order to a fresh temp file, then rename it to `path`.

    A temp name left by a killed run, possibly a hard link, is unlinked
    first. If writing fails, the temp file is removed and `path` keeps
    whatever it held before.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = temp_path(path)
    try:
        fh = open(tmp, "xb")
    except FileExistsError:
        tmp.unlink()
        fh = open(tmp, "xb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
    return path


def write_framed(path: str | Path, magic: bytes, version: int, body: bytes) -> Path:
    """Write `body` framed by `magic`, `version` and its CRC-32."""
    crc = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    return write_atomic(path, (magic + struct.pack("<I", version), body, crc))


def read_framed(
    path: str | Path,
    magic: bytes,
    version: int,
    error: type[Exception],
    parse: Callable[[Callable[[int, str], bytes]], Any],
) -> Any:
    """Check a framed file's magic, version and checksum, then return
    `parse(take)`, where `take(n, what)` gives the body's next `n` bytes.
    Faults raise `error`: a short read names its `what`, and bytes left
    after `parse` count as trailing."""
    blob = Path(path).read_bytes()
    if len(blob) < 8 or blob[:4] != magic:
        raise error(f"{path}: bad magic")
    (found,) = struct.unpack("<I", blob[4:8])
    if found != version:
        raise error(f"{path}: unsupported version {found}")
    if len(blob) < 12:
        raise error(f"{path}: truncated file")
    body, crc_stored = blob[8:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise error(f"{path}: checksum mismatch")
    off = 0

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(body):
            raise error(f"{path}: truncated {what}")
        chunk = body[off : off + n]
        off += n
        return chunk

    result = parse(take)
    if off != len(body):
        raise error(f"{path}: {len(body) - off} trailing bytes")
    return result
