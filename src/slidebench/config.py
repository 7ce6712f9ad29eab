"""Run configuration: JSON schema, validation, CLI overrides."""

from __future__ import annotations

import json
import zlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

from .embeddings import BackendSpec
from .fileio import jsonable
from .learners import KINDS, ClassifierSpec, default_grid
from .learners.base import _is_int
from .manifest import is_path_component


class ConfigError(ValueError):
    """Raised for invalid or incomplete run configuration."""


def _check_int(name: str, value, low: int | None = None) -> None:
    """Reject a non-integer (`true` too, as for classifier counts) or one below `low`."""
    if not _is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{name} must be >= {low}")


@dataclass(frozen=True)
class BackendConfig:
    """One embedding backend entry: spec fields plus run plumbing."""

    name: str
    kind: str
    dim: int
    class_separation: float = 6.0
    seed: int | None = None        # derived from the run seed when absent
    source_dir: str | None = None
    patch_count_min: int = 16
    patch_count_max: int = 48

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("backend name must be non-empty")
        if not is_path_component(self.name):
            raise ConfigError(f"backend name {self.name!r} is not a plain name")
        for name in ("dim", "patch_count_min", "patch_count_max"):
            _check_int(f"backend {self.name!r}: {name}", getattr(self, name))
        if self.seed is not None:
            _check_int(f"backend {self.name!r}: seed", self.seed)
        if not 1 <= self.patch_count_min <= self.patch_count_max:
            raise ConfigError("patch count range must satisfy 1 <= min <= max")
        try:
            self.spec(run_seed=0)  # the run seed only picks the spec's seed
        except ValueError as exc:
            raise ConfigError(f"backend {self.name!r}: {exc}") from None

    def spec(self, run_seed: int) -> BackendSpec:
        seed = self.seed if self.seed is not None else derive_seed(run_seed, self.name)
        return BackendSpec(
            kind=self.kind,
            dim=self.dim,
            seed=seed,
            source_dir=self.source_dir,
            class_separation=self.class_separation,
        )


def derive_seed(run_seed: int, tag: str) -> int:
    return (run_seed * 1_000_003 + zlib.crc32(tag.encode("utf-8"))) & 0x7FFFFFFF


@dataclass(frozen=True)
class RunConfig:
    """A validated run configuration. Frozen, with tuples and read-only
    mappings for its containers, so every value goes through
    `__post_init__`: derive a changed config with `dataclasses.replace`.
    Lists and dicts are accepted and stored in those forms."""

    manifest: str
    out_dir: str
    cache_dir: str
    seed: int
    backends: tuple[BackendConfig, ...]
    delimiter: str = ","
    classifiers: tuple[str, ...] = KINDS
    grids: Mapping[str, Mapping[str, tuple]] = field(default_factory=dict)
    cv_folds: int = 5
    selected_classifier: str = "logistic_regression"
    venkatraman_permutations: int = 2000
    learning_curve_sizes: tuple[int, ...] = ()
    learning_curve_repeats: int = 5
    tracker_jsonl: str = "events.jsonl"
    webhook_url: str | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        for name in ("backends", "classifiers", "learning_curve_sizes"):
            value = getattr(self, name)
            if isinstance(value, (str, bytes)):
                # tuple("knn") would silently split it into characters.
                raise ConfigError(f"{name} must be a list, not a string")
            object.__setattr__(self, name, tuple(value))
        if self.seed is None:
            raise ConfigError("seed is mandatory")
        _check_int("seed", self.seed)
        _check_int("cv_folds", self.cv_folds, 2)
        _check_int("venkatraman_permutations", self.venkatraman_permutations, 1)
        _check_int("learning_curve_repeats", self.learning_curve_repeats, 1)
        _check_int("jobs", self.jobs, 1)
        for size in self.learning_curve_sizes:
            _check_int("learning_curve_sizes", size, 1)
        if not self.backends:
            raise ConfigError("at least one backend is required")
        names = [b.name for b in self.backends]
        if len(set(names)) != len(names):
            raise ConfigError("backend names must be unique")
        unknown = [c for c in self.classifiers if c not in KINDS]
        if unknown:
            raise ConfigError(f"unknown classifier kind(s): {', '.join(unknown)}")
        if len(set(self.classifiers)) != len(self.classifiers):
            raise ConfigError("classifier kinds must be unique")
        if self.selected_classifier not in self.classifiers:
            raise ConfigError(
                f"selected classifier {self.selected_classifier!r} is not in the classifier list"
            )
        sizes = self.learning_curve_sizes
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigError("learning_curve_sizes must be strictly increasing")
        if not self.tracker_jsonl or not is_path_component(self.tracker_jsonl):
            # The event log is written at `<out_dir>/<tracker_jsonl>`.
            raise ConfigError(f"tracker_jsonl {self.tracker_jsonl!r} is not a plain name")
        self._check_grids()

    def _check_grids(self) -> None:
        """Reject, before any stage runs, grids the train stage would fail on,
        and store the grids read-only."""
        if not isinstance(self.grids, Mapping):
            raise ConfigError("grids must map classifier kinds to parameter axes")
        frozen = {}
        for kind, axes in self.grids.items():
            if kind not in KINDS:
                raise ConfigError(f"grids: unknown classifier kind {kind!r}")
            if not isinstance(axes, Mapping):
                raise ConfigError(f"grids.{kind} must map parameter names to value lists")
            for name, values in axes.items():
                if not isinstance(values, (list, tuple)) or not values:
                    raise ConfigError(f"grids.{kind}.{name} must be a non-empty list")
            frozen[kind] = MappingProxyType({name: tuple(values) for name, values in axes.items()})
        object.__setattr__(self, "grids", MappingProxyType(frozen))
        for kind in self.grids:
            try:
                self.classifier_grid(kind)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"grids.{kind}: {exc}") from None

    def classifier_grid(self, kind: str) -> list[ClassifierSpec]:
        """The specs the train stage cross-validates for one classifier kind."""
        seed = derive_seed(self.seed, f"train:{kind}")
        return default_grid(kind, seed=seed, overrides=self.grids.get(kind))

    def to_dict(self) -> dict:
        """Every field, nested configs as dicts and tuples as lists: the
        JSON that `config_from_dict` reads back to an equal config."""
        return jsonable(self)

    def run_id(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return f"{zlib.crc32(blob):08x}{len(blob):04x}"


def config_from_dict(raw: dict) -> RunConfig:
    try:
        backends = [BackendConfig(**b) for b in raw.get("backends", [])]
        known = {f for f in RunConfig.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        kwargs = {k: v for k, v in raw.items() if k != "backends"}
        for required in ("manifest", "out_dir", "cache_dir", "seed"):
            if required not in kwargs:
                raise ConfigError(f"missing required config key {required!r}")
        return RunConfig(backends=backends, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"malformed config: {exc}") from None


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(raw)
