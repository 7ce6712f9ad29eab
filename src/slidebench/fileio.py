"""Whole-file writes and hard links that replace the final name in one
step, the JSON document writer, and the frame of the binary file formats.

Every file slidebench emits (caches, design matrices, models, JSON
documents, plots) is written to `<name>.tmp` and renamed over `<name>`.
A reader, or a run killed midway, sees the previous file or the new one,
never a part; and a final name that is a hard link to someone else's
file (a linked precomputed cache) is replaced, never opened for writing.
`link_atomic` puts a hard link in place the same way, and
`remove_temp_files` drops the temp names a killed run left behind.

JSON documents are strict RFC 8259 JSON: `jsonable` is the one rule
that turns a value into JSON types, and it writes an infinity as `null`;
`write_json` refuses a NaN.

Design matrices (`.dmat`) and models (`.modl`) share one frame: 4-byte
magic | u32 version | body | u32 CRC-32 of the body, little-endian.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from collections.abc import Callable, Iterable, Mapping
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any

import numpy as np

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


def link_atomic(source: str | Path, path: str | Path) -> bool:
    """Make `path` a hard link to `source`, replacing any file there in one
    step; False when the filesystem cannot link it (another device, no
    link support, EMLINK), for the caller to write the file instead."""
    try:
        os.link(source, path)
        return True
    except FileExistsError:
        pass
    except OSError:
        return False
    # An earlier file holds the name: link beside it, rename over it.
    tmp = temp_path(Path(path))
    try:
        os.link(source, tmp)
    except OSError:
        return False
    os.replace(tmp, path)
    # rename() leaves both names alone when they already share an inode,
    # as on a rerun that links the same source again.
    if os.path.lexists(tmp):
        os.unlink(tmp)
    return True


def remove_temp_files(directory: str | Path) -> None:
    """Drop the temp names a killed run left in `directory`; one may be a
    hard link to another file, so only the name goes."""
    with os.scandir(directory) as entries:
        for entry in entries:
            if entry.name.endswith(TEMP_SUFFIX):
                os.unlink(entry.path)


def jsonable(value: Any) -> Any:
    """`value` in JSON types: a dataclass becomes an object of its fields,
    a mapping an object, a tuple or numpy array a list, a numpy scalar a
    number, and +-inf `null`. A NaN is kept, for `write_json` to refuse."""
    if is_dataclass(value):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Mapping):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and np.isinf(value).any():
            value = np.where(np.isinf(value), None, value)
        return value.tolist()
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and math.isinf(value):
        return None
    return value


def write_json(path: str | Path, obj: Any) -> Path:
    """Write `jsonable(obj)` as sorted-key JSON, two-space indented, with a
    final newline. A NaN anywhere raises ValueError naming `path`, and
    nothing is written."""
    try:
        text = json.dumps(jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return write_atomic(path, (text.encode("utf-8") + b"\n",))


class ByteReader:
    """Reads a byte string front to back for a binary format's parser;
    faults raise `error` with the file's `path`."""

    def __init__(self, data: bytes | memoryview, path: str | Path, error: type[Exception]):
        self._view = memoryview(data)
        self._off = 0
        self._path = path
        self._error = error

    def take(self, n: int, what: str) -> memoryview:
        """The next `n` bytes, as a view into the data, not a copy."""
        end = self._off + n
        if end > len(self._view):
            raise self._error(f"{self._path}: truncated {what}")
        chunk = self._view[self._off : end]
        self._off = end
        return chunk

    def finish(self) -> None:
        """Raise if any bytes are left unread."""
        left = len(self._view) - self._off
        if left:
            raise self._error(f"{self._path}: {left} trailing bytes")


def write_framed(path: str | Path, magic: bytes, version: int, body: bytes) -> Path:
    """Write `body` framed by `magic`, `version` and its CRC-32."""
    crc = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    return write_atomic(path, (magic + struct.pack("<I", version), body, crc))


def read_framed(
    path: str | Path,
    magic: bytes,
    version: int,
    error: type[Exception],
    parse: Callable[[Callable[[int, str], memoryview]], Any],
) -> Any:
    """Check a framed file's magic, version and checksum, then return
    `parse(take)`, where `take` is `ByteReader.take` over the body. Faults
    raise `error`: a short read names its `what`, and bytes left after
    `parse` count as trailing."""
    blob = Path(path).read_bytes()
    if len(blob) < 8 or blob[:4] != magic:
        raise error(f"{path}: bad magic")
    (found,) = struct.unpack("<I", blob[4:8])
    if found != version:
        raise error(f"{path}: unsupported version {found}")
    if len(blob) < 12:
        raise error(f"{path}: truncated file")
    body, crc_stored = memoryview(blob)[8:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise error(f"{path}: checksum mismatch")
    reader = ByteReader(body, path, error)
    result = parse(reader.take)
    reader.finish()
    return result
