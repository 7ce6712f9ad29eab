"""Versioned binary serialization of trained models.

Layout (little-endian):

    magic "MODL" | u32 version=1
    | u16 kind length + kind UTF-8 | u32 meta length + meta JSON UTF-8
    | u32 array count | per array:
        u16 name length + name | u8 dtype code | u8 ndim | ndim u32 dims
        | raw array bytes (C order)
    | u32 CRC-32 over everything after the magic+version prefix
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from ..fileio import read_framed, write_framed
from .base import BaseClassifier, ClassifierSpec
from .factory import build_classifier

MAGIC = b"MODL"
VERSION = 1
MODEL_SUFFIX = ".modl"

_DTYPES = {0: "<f8", 1: "<i4", 2: "<i8", 3: "<f4", 4: "|u1"}
_DTYPE_CODES = {np.dtype(v): k for k, v in _DTYPES.items()}


class ModelFormatError(ValueError):
    """Raised for malformed or corrupt model files, and for intact ones
    whose kind, parameters, meta keys or arrays are not a valid model."""


def save_model(model: BaseClassifier, path: str | Path) -> Path:
    if model._d is None:
        raise ValueError("classifier is not fitted")
    extra, state = model.state()
    arrays = {"classes": np.asarray(model.classes_, dtype=np.int64), **state}
    meta = {
        "kind": model.spec.kind,
        "params": dict(model.spec.params),
        "seed": model.spec.seed,
        "extra": extra,
    }
    meta_raw = json.dumps(meta, sort_keys=True).encode("utf-8")
    kind_raw = model.spec.kind.encode("utf-8")

    body = bytearray()
    body += struct.pack("<H", len(kind_raw)) + kind_raw
    body += struct.pack("<I", len(meta_raw)) + meta_raw
    body += struct.pack("<I", len(arrays))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype not in _DTYPE_CODES:
            arr = arr.astype(np.float64)
        name_raw = name.encode("utf-8")
        body += struct.pack("<H", len(name_raw)) + name_raw
        body += struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim)
        body += struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
        body += arr.tobytes()
    return write_framed(path, MAGIC, VERSION, body)


def load_model(path: str | Path) -> BaseClassifier:
    def parse(take) -> tuple[str, dict, dict[str, np.ndarray]]:
        (kind_len,) = struct.unpack("<H", take(2, "kind length"))
        kind = str(take(kind_len, "kind"), "utf-8")
        (meta_len,) = struct.unpack("<I", take(4, "meta length"))
        meta = json.loads(str(take(meta_len, "meta"), "utf-8"))
        if not isinstance(meta, dict) or meta.get("kind") != kind:
            raise ModelFormatError(f"{path}: kind mismatch between header and meta")
        (n_arrays,) = struct.unpack("<I", take(4, "array count"))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(n_arrays):
            (name_len,) = struct.unpack("<H", take(2, "array name length"))
            name = str(take(name_len, "array name"), "utf-8")
            code, ndim = struct.unpack("<BB", take(2, "array header"))
            if code not in _DTYPES:
                raise ModelFormatError(f"{path}: unknown dtype code {code}")
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "array shape")) if ndim else ()
            dtype = np.dtype(_DTYPES[code])
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(take(count * dtype.itemsize, f"array {name}"), dtype=dtype)
            arrays[name] = arr.reshape(shape).copy() if ndim else arr.copy()[0:1].reshape(())
        return kind, meta, arrays

    try:
        kind, meta, arrays = read_framed(path, MAGIC, VERSION, ModelFormatError, parse)
        model = build_classifier(ClassifierSpec(kind=kind, params=meta["params"], seed=meta["seed"]))
        model.classes_ = arrays.pop("classes")
        model.restore(meta["extra"], arrays)
    except ModelFormatError:
        raise
    except KeyError as exc:
        raise ModelFormatError(f"{path}: no meta key or array {exc.args[0]!r}") from None
    except (ValueError, TypeError, AttributeError) as exc:
        # A meta value of the wrong JSON type, e.g. `params` a list or `extra` a string.
        raise ModelFormatError(f"{path}: {exc}") from None
    return model
