"""The benchmark's workloads: paper-shaped inputs generated from a seed.

Each workload writes a manifest from `fixture.paper_manifest(seed, ...)`
and, for precomputed backends, `.embc` source caches; `run_pipeline`
receives only those files and a config pointing at them.
"""

from __future__ import annotations

import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path

from slidebench import fixture
from slidebench.categories import CLASSIFIED_CATEGORIES, Category, Subset
from slidebench.config import BackendConfig, config_from_dict, derive_seed
from slidebench.embeddings import BackendSpec, extract, write_cache
from slidebench.learners import KINDS
from slidebench.manifest import effective_split, filter_categories, write_manifest
from slidebench.runner import patch_count

# Grids keep the defaults' shape (stage counts shared across folds by
# staged CV) at sizes that fit several calls into one measured run. The
# gradient-descent iteration count of logistic regression swings with the
# data: across seeds it moved +-30% at l2 = 0 and up to 9x at l2 = 1 on
# the ingest shape, but stayed within +-10% at l2 = 0.01. The fit grid
# loosens the tolerance, which keeps logistic regression a small, steady
# share as in the paper-size fit, and the ingest grid keeps l2 = 0.01.
FIT_GRIDS = {
    "logistic_regression": {"l2": [0.0, 0.01], "tol": [1e-4]},
    "decision_tree": {"max_depth": [2, 4, 8]},
    "random_forest": {"n_estimators": [5, 10]},
    "gradient_boosting": {"n_estimators": [5, 10], "learning_rate": [0.1]},
    "adaboost": {"n_estimators": [5, 10]},
}
PROBE_GRIDS = {"logistic_regression": {"l2": [0.01]}}


@dataclass(frozen=True)
class Workload:
    name: str
    category_counts: tuple[int, int, int, int]   # basaloid, melanocytic, squamous, other
    subset_counts: tuple[int, int, int]          # train, validation, test
    dims: tuple[int, int]
    backend_kind: str
    class_separation: float
    patches: tuple[int, int]
    classifiers: tuple[str, ...]
    grids: dict = field(default_factory=dict)
    jobs: int = 1

    def manifest(self, seed: int):
        cats = dict(zip((Category.BASALOID, Category.MELANOCYTIC, Category.SQUAMOUS, Category.OTHER),
                        self.category_counts))
        subs = dict(zip((Subset.TRAIN, Subset.VALIDATION, Subset.TEST), self.subset_counts))
        return fixture.paper_manifest(seed, cats, subs)

    def backends(self, work: Path) -> list[BackendConfig]:
        names = ("uni", "virchow2")
        return [
            BackendConfig(
                name=f"{n}-{self.backend_kind[:3]}",
                kind=self.backend_kind,
                dim=d,
                class_separation=self.class_separation,
                source_dir=str(work / "source" / n) if self.backend_kind == "precomputed" else None,
                patch_count_min=self.patches[0],
                patch_count_max=self.patches[1],
            )
            for n, d in zip(names, self.dims)
        ]

    def prepare(self, work: Path, seed: int) -> None:
        """Write the generated inputs of one run into `work`."""
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        manifest = self.manifest(seed)
        write_manifest(manifest, work / "manifest.csv")
        if self.backend_kind != "precomputed":
            return
        slides, _ = effective_split(filter_categories(manifest, CLASSIFIED_CATEGORIES))
        for i, backend in enumerate(self.backends(work)):
            spec = BackendSpec("synthetic", backend.dim, derive_seed(seed, f"source:{i}"),
                               class_separation=self.class_separation)
            for meta in slides:
                m = patch_count(backend, spec.seed, meta.file)
                write_cache(extract(spec, meta.file, meta.category, meta.effective, patch_count=m),
                            backend.source_dir)

    def source_mb(self) -> float:
        """Upper bound on the source caches `prepare` writes."""
        if self.backend_kind != "precomputed":
            return 0.0
        slides = sum(self.category_counts[:3])
        return slides * self.patches[1] * sum(self.dims) * 4 / 1e6

    def config(self, work: Path, seed: int):
        return config_from_dict({
            "manifest": str(work / "manifest.csv"),
            "out_dir": str(work / "run" / "out"),
            "cache_dir": str(work / "run" / "cache"),
            "seed": seed,
            "jobs": self.jobs,
            "classifiers": list(self.classifiers),
            "selected_classifier": "logistic_regression",
            "grids": {k: v for k, v in self.grids.items() if k in self.classifiers},
            "backends": [asdict(b) for b in self.backends(work)],
        })


FIT = dict(
    category_counts=(16, 33, 41, 31),
    subset_counts=(62, 14, 14),
    dims=(128, 160),
    backend_kind="synthetic",
    class_separation=0.4,
    patches=(16, 48),
    classifiers=KINDS,
    grids=FIT_GRIDS,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit_serial", jobs=1, **FIT),
        Workload("fit_jobs2", jobs=2, **FIT),
        Workload(
            "probe_precomputed",
            category_counts=(126, 263, 325, 246),
            subset_counts=(498, 108, 108),
            dims=(128, 160),
            backend_kind="precomputed",
            class_separation=0.1,
            patches=(16, 48),
            classifiers=("logistic_regression", "knn", "naive_bayes"),
            grids=PROBE_GRIDS,
        ),
    )
}
