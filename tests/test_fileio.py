"""Output files are replaced whole: a failed write leaves the old file.
JSON documents are strict JSON."""

import json
import os
import re
from dataclasses import dataclass

import numpy as np
import pytest

from slidebench.fileio import temp_path, write_atomic, write_json


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "doc.json"
    write_atomic(path, [b"old"])

    def chunks():
        yield b"new, first half"
        raise RuntimeError("writer died")

    with pytest.raises(RuntimeError, match="writer died"):
        write_atomic(path, chunks())
    assert path.read_bytes() == b"old"
    assert sorted(tmp_path.iterdir()) == [path]


def test_leftover_temp_link_is_dropped_not_written(tmp_path):
    other = tmp_path / "other"
    other.write_bytes(b"keep")
    path = tmp_path / "sub" / "out.bin"
    path.parent.mkdir()
    os.link(other, temp_path(path))
    assert write_atomic(path, [b"new", b" bytes"]) == path
    assert path.read_bytes() == b"new bytes"
    assert other.read_bytes() == b"keep"
    assert not temp_path(path).exists()


def test_creates_parent_directories(tmp_path):
    path = tmp_path / "a" / "b" / "c.svg"
    write_atomic(path, [b"<svg/>"])
    assert path.read_bytes() == b"<svg/>"


def test_json_infinities_written_as_null(tmp_path):
    path = write_json(tmp_path / "d.json", {"curve": np.array([np.inf, 0.5, -np.inf]), "t": float("-inf")})
    assert path.read_text() == (
        '{\n  "curve": [\n    null,\n    0.5,\n    null\n  ],\n  "t": null\n}\n'
    )


@pytest.mark.parametrize("value", [float("nan"), np.array([[0.1, np.nan]]), [np.float32("nan")]])
def test_json_nan_names_the_document(tmp_path, value):
    path = tmp_path / "d.json"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        write_json(path, {"x": value})
    assert list(tmp_path.iterdir()) == []


@dataclass(frozen=True)
class _Inner:
    counts: tuple
    arr: np.ndarray


@dataclass
class _Outer:
    name: str
    score: np.float32
    inner: _Inner
    by_kind: dict


def test_json_dataclass_round_trips_to_its_fields(tmp_path):
    inner = _Inner((1, np.int64(2)), np.arange(3, dtype=np.uint8))
    doc = _Outer("x", np.float32(0.5), inner, {"k": _Inner((), np.zeros(0))})
    back = json.loads(write_json(tmp_path / "d.json", doc).read_text())
    assert back == {
        "name": "x",
        "score": 0.5,
        "inner": {"counts": [1, 2], "arr": [0, 1, 2]},
        "by_kind": {"k": {"counts": [], "arr": []}},
    }
