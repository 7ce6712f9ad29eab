"""Whole-file writes that replace the final name in one step.

Every file slidebench emits (caches, design matrices, models, JSON
documents, plots) is written to `<name>.tmp` and renamed over `<name>`.
A reader, or a run killed midway, sees the previous file or the new one,
never a part; and a final name that is a hard link to someone else's
file (a linked precomputed cache) is replaced, never opened for writing.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from pathlib import Path

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
