"""Output files are replaced whole: a failed write leaves the old file."""

import os

import pytest

from slidebench.fileio import temp_path, write_atomic


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
