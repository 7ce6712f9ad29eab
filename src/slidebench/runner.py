"""Experiment orchestration: the end-to-end pipeline and its stages.

Stages run in sequence (ingest, extract, aggregate, train, compare,
plot); `run_pipeline` runs ingest and any selection of the others, and
tags each failure with its stage so the CLI can report which stage
aborted. All randomness derives from the run seed, and every emitted
report and comparison document is byte-reproducible for a fixed config.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .categories import CLASSIFIED_CATEGORIES
from .config import BackendConfig, RunConfig, derive_seed
from .design import DesignMatrix, aggregate_design, build_design, load_design, save_design, split_design
from .embeddings import CACHE_SUFFIX, extract, missing_caches, slide_rng, write_cache
from .fileio import jsonable, link_atomic, remove_temp_files, write_json
from .fixture import largest_remainder
from .learners import (
    KIND_LABELS,
    TABLE_ORDER,
    ClassifierSpec,
    build_classifier,
    cross_validate,
    save_model,
    shared_bins,
)
from .manifest import Manifest, cases_in_train_and_test, category_counts, filter_categories, parse_manifest
from .metrics import EvaluationReport, classification_report
from .rocstats import PairedScores, delong_test, paired_ttest, venkatraman_test
from .svgplot import line_plot, write_svg
from .tracker import Tracker, WebhookSink


class StageError(RuntimeError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage

    def __str__(self) -> str:
        return f"[{self.stage}] {super().__str__()}"


# -- stages -------------------------------------------------------------------

def ingest_stage(cfg: RunConfig) -> Manifest:
    """Parse and filter to the three classified categories."""
    manifest_path = Path(cfg.manifest)
    if not manifest_path.exists():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    manifest = parse_manifest(manifest_path, delimiter=cfg.delimiter)
    return filter_categories(manifest, CLASSIFIED_CATEGORIES)


def extract_stage(cfg: RunConfig, manifest: Manifest) -> dict[str, DesignMatrix]:
    """Produce and cache embeddings for every backend and slide, and
    mean-aggregate them into one design matrix per backend.

    This is the only pass over the embeddings: each slide's matrix is read
    and validated (precomputed) or generated (synthetic) once, cached, and
    aggregated from memory. A precomputed cache is hard-linked into the
    cache directory: a cache `read_cache` accepts re-encodes to the same
    bytes, so a link holds exactly what a copy would. Where the filesystem
    refuses the link, the cache is written out instead.
    """
    designs: dict[str, DesignMatrix] = {}
    for backend in cfg.backends:
        spec = backend.spec(cfg.seed)
        directory = os.path.join(cfg.cache_dir, backend.name)
        if spec.kind == "precomputed":
            missing = missing_caches(spec.source_dir, manifest)
            if missing:
                raise FileNotFoundError(
                    f"backend {backend.name!r}: {len(missing)} slide(s) missing "
                    f"from {spec.source_dir}: {', '.join(missing[:10])}"
                )
        os.makedirs(directory, exist_ok=True)
        remove_temp_files(directory)

        def embed(meta):
            if spec.kind == "synthetic":
                m = patch_count(backend, spec.seed, meta.file)
                emb = extract(spec, meta.file, meta.category, meta.effective, patch_count=m)
                write_cache(emb, directory)
                return emb
            # Precomputed caches carry their own patch counts.
            emb = extract(spec, meta.file, meta.category, meta.effective)
            name = meta.file + CACHE_SUFFIX
            if not link_atomic(os.path.join(spec.source_dir, name), os.path.join(directory, name)):
                write_cache(emb, directory)
            return emb

        designs[backend.name] = aggregate_design(manifest, embed)
    return designs


def patch_count(backend: BackendConfig, spec_seed: int, slide_id: str) -> int:
    """Deterministic per-slide synthetic patch count within the configured range."""
    lo, hi = backend.patch_count_min, backend.patch_count_max
    if lo == hi:
        return lo
    rng = slide_rng(spec_seed, f"m#{slide_id}")
    return int(rng.integers(lo, hi + 1))


def aggregate_stage(
    cfg: RunConfig, manifest: Manifest, designs: dict[str, DesignMatrix] | None = None
) -> dict[str, DesignMatrix]:
    """Save one design matrix per backend: the extract stage's `designs`,
    or, without them (stage commands run on their own), ones built from
    the caches in `cache_dir`."""
    if designs is None:
        designs = {b.name: build_design(manifest, cfg.cache_dir, b.name, b.dim) for b in cfg.backends}
    for backend in cfg.backends:
        save_design(designs[backend.name], Path(cfg.out_dir) / backend.name / "design.dmat")
    return designs


@dataclass
class FitResult:
    """What the tables and tracker events need of one fit task; the task
    has written its own documents."""

    backend: str
    kind: str
    best_cv_accuracy: float
    report: EvaluationReport


# Backend name -> (train rows, train labels, test rows, test labels, test
# slide ids) of the running train stage. Task tuples name a backend
# instead of carrying its matrices, so a pool receives each backend's
# data once per worker (through its initializer), not once per task.
_stage_data: dict[str, tuple] = {}


def _set_stage_data(data: dict[str, tuple]) -> None:
    global _stage_data
    _stage_data = data


def _fit_arrays(dm: DesignMatrix) -> tuple[np.ndarray, np.ndarray]:
    """A design's rows and labels as the float64 and int64 arrays the learners fit."""
    return dm.rows.astype(np.float64), dm.labels.astype(np.int64)


def _fit_one(args: tuple) -> FitResult:
    """Cross-validate, refit and evaluate one (backend, classifier) pair,
    and write its cv, model, report and predictions documents under
    `backend_dir`. An exception it raises names the task in its `fit_task`
    attribute, `{"backend", "kind"}`, which crosses a process pool with it."""
    backend_name, kind, grid, cv_folds, cv_seed, backend_dir = args
    try:
        rows_tr, y_tr, rows_te, y_te, ids_te = _stage_data[backend_name]
        cv = cross_validate(grid, rows_tr, y_tr, cv_folds, cv_seed)
        best_cv_accuracy = float(cv.mean_accuracy[cv.best_index])
        model = build_classifier(cv.best_spec).fit(rows_tr, y_tr)
        proba = model.predict_proba(rows_te)
        report = classification_report(y_te, proba, classifier=cv.best_spec.spec_id(), backend=backend_name)
        base = Path(backend_dir)
        best = {"params": cv.best_spec.params, "seed": cv.best_spec.seed, "mean_accuracy": best_cv_accuracy}
        write_json(base / "cv" / f"{kind}.json", {"kind": kind, "grid": cv.summary(), "best": best})
        save_model(model, base / "models" / f"{kind}.modl")
        write_json(base / "reports" / f"{kind}.json", report)
        write_json(base / "predictions" / f"{kind}.json", {
            "backend": backend_name, "kind": kind, "slide_ids": ids_te, "y_true": y_te, "proba": proba,
        })
        return FitResult(backend=backend_name, kind=kind, best_cv_accuracy=best_cv_accuracy, report=report)
    except Exception as exc:
        exc.fit_task = {"backend": backend_name, "kind": kind}
        raise


def train_evaluate_stage(
    cfg: RunConfig, designs: dict[str, DesignMatrix], tracker: Tracker | None = None
) -> dict[tuple[str, str], FitResult]:
    """Cross-validate, fit, and evaluate every (backend, classifier) pair,
    each task writing its own documents, then write the accuracy and F1
    tables over all of them."""
    data: dict[str, tuple] = {}
    tasks = []
    cv_seed = derive_seed(cfg.seed, "cv")
    for backend in cfg.backends:
        train_dm, test_dm = split_design(designs[backend.name])
        data[backend.name] = (*_fit_arrays(train_dm), *_fit_arrays(test_dm), list(test_dm.slide_ids))
        backend_dir = str(Path(cfg.out_dir) / backend.name)
        for kind in cfg.classifiers:
            tasks.append((backend.name, kind, cfg.classifier_grid(kind), cfg.cv_folds, cv_seed, backend_dir))

    _set_stage_data(data)
    try:
        # Tree fits share one binning per fold matrix for this stage only;
        # forked workers start inside the block with its still-empty cache.
        with shared_bins():
            if cfg.jobs > 1 and len(tasks) > 1:
                # Imported here: serial runs never load the process pool.
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(
                    max_workers=cfg.jobs, initializer=_set_stage_data, initargs=(data,)
                ) as pool:
                    fitted = list(pool.map(_fit_one, tasks))
            else:
                fitted = [_fit_one(t) for t in tasks]
    finally:
        _set_stage_data({})

    results = {(res.backend, res.kind): res for res in fitted}
    if tracker is not None:
        for res in fitted:
            tracker.track("train", f"{res.backend}/{res.kind}/cv_accuracy", res.best_cv_accuracy)
            tracker.track("evaluate", f"{res.backend}/{res.kind}/test_accuracy", res.report.accuracy)
    write_json(Path(cfg.out_dir) / "accuracy_table.json", accuracy_table(cfg, results))
    write_json(Path(cfg.out_dir) / "f1_table.json", f1_table(cfg, results))
    return results


def _table(cfg: RunConfig, results: dict[tuple[str, str], FitResult], metric: str, columns: list[tuple]) -> dict:
    """The `metric` table: for each configured kind in TABLE_ORDER, one row
    per `(extra, value)` of `columns`, with the classifier label, the kind,
    the `extra` columns and `value(report)` for each backend."""
    backends = [b.name for b in cfg.backends]
    rows = [
        {"classifier": KIND_LABELS[kind], "kind": kind, **extra,
         metric: {b: value(results[(b, kind)].report) for b in backends}}
        for kind in TABLE_ORDER if kind in cfg.classifiers
        for extra, value in columns
    ]
    return {"metric": metric, "backends": backends, "rows": rows}


def accuracy_table(cfg: RunConfig, results: dict[tuple[str, str], FitResult]) -> dict:
    return _table(cfg, results, "accuracy", [({}, lambda report: report.accuracy)])


def f1_table(cfg: RunConfig, results: dict[tuple[str, str], FitResult]) -> dict:
    names = [cat.to_text() for cat in CLASSIFIED_CATEGORIES]
    columns = [({"category": n}, lambda report, n=n: report.per_class[n].f1) for n in names]
    return _table(cfg, results, "f1", columns)


# -- comparison ---------------------------------------------------------------

def compare_models(
    dir_a: str | Path,
    dir_b: str | Path,
    selected_classifier: str,
    classifiers: list[str],
    permutations: int = 2000,
    seed: int = 0,
) -> dict:
    """Paired DeLong + permutation tests per category, t-test over classifiers
    (`"paired_ttest": null` with fewer than two classifiers).

    `dir_a`/`dir_b` are per-backend output directories holding reports and
    predictions; both runs must have scored identical test slides in
    identical order.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    pred_a = json.loads((dir_a / "predictions" / f"{selected_classifier}.json").read_text(encoding="utf-8"))
    pred_b = json.loads((dir_b / "predictions" / f"{selected_classifier}.json").read_text(encoding="utf-8"))
    if pred_a["slide_ids"] != pred_b["slide_ids"]:
        raise ValueError("unpaired test sets: slide ids differ between runs")
    if pred_a["y_true"] != pred_b["y_true"]:
        raise ValueError("unpaired test sets: labels differ between runs")

    y = np.asarray(pred_a["y_true"], dtype=np.int64)
    proba_a = np.asarray(pred_a["proba"], dtype=np.float64)
    proba_b = np.asarray(pred_b["proba"], dtype=np.float64)

    categories = []
    for cat in CLASSIFIED_CATEGORIES:
        ps = PairedScores(y == cat.value, proba_a[:, cat.value], proba_b[:, cat.value])
        dl = delong_test(ps)
        vk = venkatraman_test(ps, permutations=permutations, seed=derive_seed(seed, f"venkatraman:{cat.value}"))
        categories.append({"category": cat.to_text(), "delong": jsonable(dl), "venkatraman": jsonable(vk)})

    acc_a, acc_b = [], []
    for kind in TABLE_ORDER:
        if kind not in classifiers:
            continue
        ra = json.loads((dir_a / "reports" / f"{kind}.json").read_text(encoding="utf-8"))
        rb = json.loads((dir_b / "reports" / f"{kind}.json").read_text(encoding="utf-8"))
        acc_a.append(ra["accuracy"])
        acc_b.append(rb["accuracy"])
    tt = paired_ttest(np.asarray(acc_a), np.asarray(acc_b)) if len(acc_a) >= 2 else None

    return {
        "backend_a": dir_a.name,
        "backend_b": dir_b.name,
        "selected_classifier": selected_classifier,
        "categories": categories,
        "paired_ttest": None if tt is None else {
            **jsonable(tt),
            "n_pairs": len(acc_a),
            "accuracy_a": acc_a,
            "accuracy_b": acc_b,
        },
    }


def compare_stage(cfg: RunConfig) -> dict | None:
    if len(cfg.backends) != 2:
        return None
    out = Path(cfg.out_dir)
    doc = compare_models(
        out / cfg.backends[0].name,
        out / cfg.backends[1].name,
        cfg.selected_classifier,
        cfg.classifiers,
        permutations=cfg.venkatraman_permutations,
        seed=cfg.seed,
    )
    write_json(out / "comparison.json", doc)
    return doc


# -- learning curve -----------------------------------------------------------

@dataclass
class LearningCurve:
    """Its fields are the curve document's keys."""

    classifier: str
    sizes: list[int]
    train_accuracy: list[float]
    test_accuracy: list[float]
    repeats: int


def stratified_subsample(labels: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Subsample preserving class proportions; returns sorted row indices."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    if size > n:
        raise ValueError(f"subsample size {size} exceeds available rows {n}")
    if size == n:
        return np.arange(n)
    classes = np.unique(labels)
    quotas = [size * (labels == c).sum() / n for c in classes]
    counts = largest_remainder(quotas, size)
    # Every class keeps at least one row.
    for i, c in enumerate(counts):
        if c == 0:
            counts[i] = 1
            counts[int(np.argmax(counts))] -= 1
    picked = []
    for c, k in zip(classes, counts):
        idx = np.flatnonzero(labels == c)
        picked.append(rng.choice(idx, size=k, replace=False))
    return np.sort(np.concatenate(picked))


def default_curve_sizes(n_train: int, n_classes: int = 3) -> list[int]:
    anchors = [20, 40, 80, 140, 220, 320, 420]
    sizes = [s for s in anchors if n_classes <= s < n_train]
    sizes.append(n_train)
    return sizes


def learning_curve(
    cfg: RunConfig,
    backend_name: str,
    spec: ClassifierSpec,
    sizes: list[int] | None = None,
    repeats: int | None = None,
) -> LearningCurve:
    """Train/test accuracy versus stratified training-set size."""
    design_path = Path(cfg.out_dir) / backend_name / "design.dmat"
    if not design_path.exists():
        raise FileNotFoundError(f"design matrix not found: {design_path} (run aggregate first)")
    dm = load_design(design_path)
    train_dm, test_dm = split_design(dm)
    X_tr, y_tr = _fit_arrays(train_dm)
    X_te, y_te = _fit_arrays(test_dm)
    n_train = train_dm.n
    n_classes = np.unique(y_tr).size

    if repeats is None:
        repeats = cfg.learning_curve_repeats
    if sizes is None:
        sizes = list(cfg.learning_curve_sizes) or default_curve_sizes(n_train, n_classes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    if sizes[0] < n_classes:
        raise ValueError(f"smallest size {sizes[0]} is below the class count {n_classes}")
    if sizes[-1] > n_train:
        raise ValueError(f"size {sizes[-1]} exceeds the training count {n_train}")
    if sizes[-1] < n_train:
        sizes = sizes + [n_train]

    train_means, test_means = [], []
    for si, size in enumerate(sizes):
        tr_runs, te_runs = [], []
        n_effective = repeats if size < n_train else 1
        for r in range(n_effective):
            rng = np.random.default_rng(derive_seed(cfg.seed, f"curve:{si}:{r}"))
            idx = stratified_subsample(y_tr, size, rng)
            model = build_classifier(spec).fit(X_tr[idx], y_tr[idx])
            tr_runs.append(float(np.mean(model.predict(X_tr[idx]) == y_tr[idx])))
            te_runs.append(float(np.mean(model.predict(X_te) == y_te)))
        train_means.append(float(np.mean(tr_runs)))
        test_means.append(float(np.mean(te_runs)))
    return LearningCurve(
        classifier=spec.spec_id(),
        sizes=list(sizes),
        train_accuracy=train_means,
        test_accuracy=test_means,
        repeats=repeats,
    )


# -- plots ---------------------------------------------------------------------

def emit_report_plots(report: dict, out_dir: str | Path, stem: str) -> list[Path]:
    """ROC and PR SVGs from a serialized evaluation report."""
    roc, pr = [], []
    for name, curve in sorted(report["roc_curves"].items()):
        auc = report["per_class"][name]["auroc"]
        label = f"{name} (AUROC={auc:.3f})" if auc is not None else name
        roc.append((label, np.asarray(curve["fpr"]), np.asarray(curve["tpr"])))
    for name, curve in sorted(report["pr_curves"].items()):
        pr.append((name, np.asarray(curve["recall"]), np.asarray(curve["precision"])))
    written = []
    for suffix, series, title, x_label, y_label in (
        ("roc", roc, "ROC curves", "False positive rate", "True positive rate"),
        ("pr", pr, "Precision-recall curves", "Recall", "Precision"),
    ):
        if series:
            svg = line_plot(
                series,
                title=f"{title}: {stem}",
                x_label=x_label,
                y_label=y_label,
                x_range=(0.0, 1.0),
                y_range=(0.0, 1.0),
                diagonal=suffix == "roc",
            )
            written.append(write_svg(svg, Path(out_dir) / f"{stem}_{suffix}.svg"))
    return written


def emit_curve_plot(curve: LearningCurve, out_dir: str | Path, stem: str) -> Path:
    sizes = np.asarray(curve.sizes, dtype=np.float64)
    svg = line_plot(
        [
            ("train accuracy", sizes, np.asarray(curve.train_accuracy)),
            ("test accuracy", sizes, np.asarray(curve.test_accuracy)),
        ],
        title=f"Learning curve: {stem}",
        x_label="Training set size",
        y_label="Accuracy",
        y_range=(0.0, 1.05),
    )
    return write_svg(svg, Path(out_dir) / f"{stem}_learning_curve.svg")


def plot_stage(cfg: RunConfig) -> list[Path]:
    written = []
    out = Path(cfg.out_dir)
    for backend in cfg.backends:
        report_dir = out / backend.name / "reports"
        for kind in cfg.classifiers:
            report = json.loads((report_dir / f"{kind}.json").read_text(encoding="utf-8"))
            written.extend(emit_report_plots(report, out / backend.name / "plots", kind))
    return written


# -- all-in-one ----------------------------------------------------------------

STAGES = ("ingest", "extract", "aggregate", "train", "compare", "plot")


def run_pipeline(cfg: RunConfig, stages: tuple[str, ...] = STAGES) -> Path:
    """Run ingest, then each other stage named in `stages`, in pipeline
    order; returns the output directory. A stage whose input no earlier
    stage of this call produced reads it from disk: aggregate builds the
    designs from `cache_dir`, compare and plot read `out_dir`."""
    if not set(stages) <= set(STAGES) or ("train" in stages and "aggregate" not in stages):
        raise ValueError(f"stages must come from {STAGES}, with aggregate wherever train is: {stages}")
    selected = [name for name in STAGES if name == "ingest" or name in stages]
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_id = cfg.run_id()
    meta_path = out / "run_meta.json"
    webhook = WebhookSink(cfg.webhook_url) if cfg.webhook_url else None
    found: dict = {}  # what the run has learned so far, kept in each later run_meta.json

    def meta(status: str, **fields) -> dict:
        doc = {"run_id": run_id, "status": status, **found, **fields, "config": cfg}
        if selected != list(STAGES):
            doc["stages"] = selected
        if webhook is not None and webhook.disabled:
            doc["webhook_disabled"] = True
        return doc

    write_json(meta_path, meta("running"))
    tracker = Tracker(run_id, out / cfg.tracker_jsonl, webhook=webhook)
    stage = "ingest"
    try:
        manifest = ingest_stage(cfg)
        found["cases_in_train_and_test"] = cases_in_train_and_test(manifest)
        counts = category_counts(manifest)
        tracker.track("ingest", "slides_total", len(manifest))
        for cat in CLASSIFIED_CATEGORIES:
            tracker.track("ingest", f"slides_{cat.to_text()}", counts[cat])

        designs = None
        if "extract" in stages:
            stage = "extract"
            designs = extract_stage(cfg, manifest)
            tracker.track("extract", "backends_cached", len(cfg.backends))

        if "aggregate" in stages:
            stage = "aggregate"
            designs = aggregate_stage(cfg, manifest, designs)
            for backend in cfg.backends:
                tracker.track("aggregate", f"{backend.name}/design_rows", designs[backend.name].n)

        if "train" in stages:
            stage = "train"
            train_evaluate_stage(cfg, designs, tracker)

        if "compare" in stages:
            stage = "compare"
            comparison = compare_stage(cfg)
            if comparison is not None and comparison["paired_ttest"] is not None:
                tracker.track("compare", "paired_ttest_p", comparison["paired_ttest"]["p"])

        if "plot" in stages:
            stage = "plot"
            plot_stage(cfg)
    except BaseException as exc:
        # Any exception marks the run failed, KeyboardInterrupt included,
        # which passes through untagged. A fit task's failure also names
        # the task.
        message = str(exc)
        if hasattr(exc, "fit_task"):
            found["task"] = exc.fit_task
            message = f"{exc.fit_task['backend']}/{exc.fit_task['kind']}: {message}"
        write_json(meta_path, meta("failed", stage=stage, error=type(exc).__name__, message=message))
        if isinstance(exc, Exception):
            raise StageError(stage, message) from exc
        raise

    write_json(meta_path, meta("complete"))
    return out
