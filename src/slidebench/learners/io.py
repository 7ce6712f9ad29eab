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
from .bayes import NaiveBayes
from .ensembles import AdaBoost, GradientBoosting, RandomForest
from .factory import build_classifier
from .linear import LogisticRegression
from .neighbors import KNearestNeighbor
from .trees import DecisionTree, FittedTree

MAGIC = b"MODL"
VERSION = 1
MODEL_SUFFIX = ".modl"

_DTYPES = {0: "<f8", 1: "<i4", 2: "<i8", 3: "<f4", 4: "|u1"}
_DTYPE_CODES = {np.dtype(v): k for k, v in _DTYPES.items()}


class ModelFormatError(ValueError):
    """Raised for malformed or corrupt model files."""


def _tree_arrays(tree: FittedTree, prefix: str, arrays: dict[str, np.ndarray]) -> None:
    arrays[f"{prefix}feature"] = tree.feature
    arrays[f"{prefix}threshold"] = tree.threshold
    arrays[f"{prefix}left"] = tree.left
    arrays[f"{prefix}right"] = tree.right
    arrays[f"{prefix}value"] = tree.value


def _tree_from(prefix: str, arrays: dict[str, np.ndarray]) -> FittedTree:
    return FittedTree(
        feature=arrays[f"{prefix}feature"],
        threshold=arrays[f"{prefix}threshold"],
        left=arrays[f"{prefix}left"],
        right=arrays[f"{prefix}right"],
        value=arrays[f"{prefix}value"],
    )


def _collect_state(model: BaseClassifier) -> tuple[dict, dict[str, np.ndarray]]:
    arrays: dict[str, np.ndarray] = {"classes": np.asarray(model.classes_, dtype=np.int64)}
    extra: dict = {}
    if isinstance(model, LogisticRegression):
        arrays.update(W=model.W_, b=model.b_, scaler_mean=model.scaler_.mean, scaler_scale=model.scaler_.scale)
    elif isinstance(model, KNearestNeighbor):
        arrays.update(X=model._X, codes=model._codes)
    elif isinstance(model, NaiveBayes):
        arrays.update(priors=model.priors_, means=model.means_, vars=model.vars_)
        extra["d"] = model._d
    elif isinstance(model, DecisionTree):
        _tree_arrays(model.tree_, "", arrays)
        extra["d"] = model._d
    elif isinstance(model, RandomForest):
        for i, tree in enumerate(model.trees_):
            _tree_arrays(tree, f"t{i}/", arrays)
        extra.update(d=model._d, n_trees=len(model.trees_))
    elif isinstance(model, GradientBoosting):
        for r, stage in enumerate(model.rounds_):
            for c, tree in enumerate(stage):
                _tree_arrays(tree, f"r{r}/c{c}/", arrays)
        arrays["train_loss"] = np.asarray(model.train_loss_)
        extra.update(d=model._d, n_rounds=len(model.rounds_), n_classes=len(model.classes_))
    elif isinstance(model, AdaBoost):
        for i, tree in enumerate(model.trees_):
            _tree_arrays(tree, f"t{i}/", arrays)
        arrays["alphas"] = np.asarray(model.alphas_)
        extra.update(d=model._d, n_trees=len(model.trees_))
    else:
        raise ModelFormatError(f"cannot serialize {type(model).__name__}")
    return extra, arrays


def _restore_state(model: BaseClassifier, extra: dict, arrays: dict[str, np.ndarray]) -> None:
    from .base import Standardizer

    model.classes_ = arrays["classes"]
    if isinstance(model, LogisticRegression):
        model.W_ = arrays["W"]
        model.b_ = arrays["b"]
        model.scaler_ = Standardizer(mean=arrays["scaler_mean"], scale=arrays["scaler_scale"])
        model._d = model.W_.shape[0]
    elif isinstance(model, KNearestNeighbor):
        model._X = arrays["X"]
        model._codes = arrays["codes"]
        model._sq = (model._X * model._X).sum(axis=1)
        model._d = model._X.shape[1]
    elif isinstance(model, NaiveBayes):
        model.priors_ = arrays["priors"]
        model.means_ = arrays["means"]
        model.vars_ = arrays["vars"]
        model._d = extra["d"]
    elif isinstance(model, DecisionTree):
        model.tree_ = _tree_from("", arrays)
        model._d = extra["d"]
    elif isinstance(model, RandomForest):
        model.trees_ = [_tree_from(f"t{i}/", arrays) for i in range(extra["n_trees"])]
        model._d = extra["d"]
    elif isinstance(model, GradientBoosting):
        model.rounds_ = [
            [_tree_from(f"r{r}/c{c}/", arrays) for c in range(extra["n_classes"])]
            for r in range(extra["n_rounds"])
        ]
        model.train_loss_ = arrays["train_loss"].tolist()
        model._d = extra["d"]
    elif isinstance(model, AdaBoost):
        model.trees_ = [_tree_from(f"t{i}/", arrays) for i in range(extra["n_trees"])]
        model.alphas_ = arrays["alphas"].tolist()
        model._d = extra["d"]
    else:
        raise ModelFormatError(f"cannot restore {type(model).__name__}")


def save_model(model: BaseClassifier, path: str | Path) -> Path:
    extra, arrays = _collect_state(model)
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
        kind = take(kind_len, "kind").decode("utf-8")
        (meta_len,) = struct.unpack("<I", take(4, "meta length"))
        meta = json.loads(take(meta_len, "meta").decode("utf-8"))
        if meta.get("kind") != kind:
            raise ModelFormatError(f"{path}: kind mismatch between header and meta")
        (n_arrays,) = struct.unpack("<I", take(4, "array count"))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(n_arrays):
            (name_len,) = struct.unpack("<H", take(2, "array name length"))
            name = take(name_len, "array name").decode("utf-8")
            code, ndim = struct.unpack("<BB", take(2, "array header"))
            if code not in _DTYPES:
                raise ModelFormatError(f"{path}: unknown dtype code {code}")
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "array shape")) if ndim else ()
            dtype = np.dtype(_DTYPES[code])
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(take(count * dtype.itemsize, f"array {name}"), dtype=dtype)
            arrays[name] = arr.reshape(shape).copy() if ndim else arr.copy()[0:1].reshape(())
        return kind, meta, arrays

    kind, meta, arrays = read_framed(path, MAGIC, VERSION, ModelFormatError, parse)
    spec = ClassifierSpec(kind=kind, params=meta["params"], seed=meta["seed"])
    model = build_classifier(spec)
    _restore_state(model, meta["extra"], arrays)
    return model
