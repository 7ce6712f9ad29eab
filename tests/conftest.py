"""Shared test fixtures and helpers."""

from __future__ import annotations

import os
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slidebench
from slidebench.categories import Category, EffectiveSubset, Subset
from slidebench.fixture import paper_manifest
from slidebench.manifest import serialize_manifest, write_manifest


def run_python(*args, timeout: float | None = None) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the same slidebench as this one,
    also when only pytest's own `pythonpath` setting put it on sys.path."""
    src = str(Path(slidebench.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout,
        env=dict(os.environ, PYTHONPATH=path),
    )


CSV_HEADER = "fullpath,file,case_id,sub_block,block,DIAG_SCORE,DIAG_TYPE,category,subset,Staining"


def manifest_csv(rows: list[str]) -> str:
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def simple_row(
    file: str,
    category: str = "squamous",
    subset: str = "Train",
    score: str = "100",
    staining: str = "H&E",
) -> str:
    return f"/x/{file}.tar,{file},case_1,B1-1,B,{score},lesion,{category},{subset},{staining}"


@pytest.fixture(scope="session")
def paper_manifest_csv(tmp_path_factory) -> str:
    """The 960-slide paper-shaped manifest written to disk once."""
    path = tmp_path_factory.mktemp("manifest") / "paper_manifest.csv"
    write_manifest(paper_manifest(seed=0), path)
    return str(path)


def class_dirs(d: int, dir_seed: int = 100) -> np.ndarray:
    """Three well-separated unit directions: orthogonal when d >= 3,
    a planar simplex when d == 2."""
    if d == 2:
        angles = np.asarray([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rng = np.random.default_rng(dir_seed)
    base = rng.standard_normal((3, d))
    for i in range(3):
        for j in range(i):
            base[i] -= (base[i] @ base[j]) * base[j]
        base[i] /= np.linalg.norm(base[i])
    return base


def make_blobs(n_per_class: list[int], d: int, sep: float, seed: int = 0, dir_seed: int = 100):
    """Gaussian 3-class blobs; `seed` drives noise, `dir_seed` the geometry,
    so train/test sets drawn with different seeds share class structure."""
    base = class_dirs(d, dir_seed)
    rng = np.random.default_rng(seed)
    X, y = [], []
    for c, n in enumerate(n_per_class):
        X.append(rng.standard_normal((n, d)) + sep * base[c])
        y.append(np.full(n, c, dtype=np.int64))
    return np.vstack(X), np.concatenate(y)


@pytest.fixture
def silent_server():
    """A listening socket that never accepts: connections complete in the
    kernel's backlog, and requests are never answered."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    sock.listen(16)
    yield sock
    sock.close()


def pending_connections(sock: socket.socket) -> int:
    """Accept and close every connection waiting on `sock`; their number."""
    sock.setblocking(False)
    n = 0
    while True:
        try:
            conn, _ = sock.accept()
        except BlockingIOError:
            return n
        conn.close()
        n += 1
