"""Pipeline orchestration: stages, comparison, learning curve, CLI."""

import collections
import dataclasses
import errno
import functools
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from slidebench import cli
from slidebench.categories import Category, Subset
from slidebench.config import BackendConfig, ConfigError, RunConfig, config_from_dict, load_config
from slidebench.design import load_design
from slidebench.embeddings import BackendSpec, cache_path, extract, write_cache
from slidebench.fileio import write_json
from slidebench.fixture import paper_manifest
from slidebench.learners import BaseClassifier, ClassifierSpec
from slidebench.manifest import parse_manifest, write_manifest
from slidebench.runner import (
    StageError,
    compare_models,
    ingest_stage,
    learning_curve,
    run_pipeline,
)
from slidebench.tracker import WebhookSink

from conftest import pending_connections, run_python

SMALL_COUNTS = {
    Category.BASALOID: 20,
    Category.MELANOCYTIC: 30,
    Category.SQUAMOUS: 40,
    Category.OTHER: 10,
}
SMALL_SUBSETS = {Subset.TRAIN: 63, Subset.VALIDATION: 13, Subset.TEST: 14}

FAST_GRIDS = {
    "logistic_regression": {"l2": [1e-2], "max_iter": [300]},
    "knn": {"k": [3]},
    "decision_tree": {"max_depth": [4]},
    "random_forest": {"n_estimators": [10]},
    "gradient_boosting": {"n_estimators": [10], "learning_rate": [0.1]},
    "adaboost": {"n_estimators": [10]},
}


def small_config(tmp_path: Path, seps=(1.2, 1.2), dims=(16, 16), seed=7, **overrides) -> RunConfig:
    tmp_path.mkdir(parents=True, exist_ok=True)
    manifest_path = tmp_path / "manifest.csv"
    if not manifest_path.exists():
        write_manifest(
            paper_manifest(seed=5, category_counts=SMALL_COUNTS, subset_counts=SMALL_SUBSETS),
            manifest_path,
        )
    backends = [
        BackendConfig(
            name=f"bk{i}", kind="synthetic", dim=dims[i],
            class_separation=seps[i], patch_count_min=4, patch_count_max=8,
        )
        for i in range(len(seps))
    ]
    kwargs = dict(
        manifest=str(manifest_path),
        out_dir=str(tmp_path / "out"),
        cache_dir=str(tmp_path / "cache"),
        seed=seed,
        backends=backends,
        grids=FAST_GRIDS,
        learning_curve_repeats=2,
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    cfg = small_config(tmp)
    out = run_pipeline(cfg)
    return cfg, out


class TestRunPipeline:
    def test_outputs_exist(self, completed_run):
        cfg, out = completed_run
        assert (out / "accuracy_table.json").exists()
        assert (out / "f1_table.json").exists()
        assert (out / "comparison.json").exists()
        assert (out / "events.jsonl").exists()
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["status"] == "complete"
        for backend in ("bk0", "bk1"):
            assert (out / backend / "design.dmat").exists()
            for kind in cfg.classifiers:
                assert (out / backend / "models" / f"{kind}.modl").exists()
                assert (out / backend / "reports" / f"{kind}.json").exists()
                assert (out / backend / "predictions" / f"{kind}.json").exists()
                assert (out / backend / "plots" / f"{kind}_roc.svg").exists()
                assert (out / backend / "plots" / f"{kind}_pr.svg").exists()

    def test_accuracy_table_shape(self, completed_run):
        _, out = completed_run
        table = json.loads((out / "accuracy_table.json").read_text())
        assert table["metric"] == "accuracy"
        assert table["backends"] == ["bk0", "bk1"]
        assert len(table["rows"]) == 7
        kinds = [row["kind"] for row in table["rows"]]
        assert len(set(kinds)) == 7
        for row in table["rows"]:
            assert set(row["accuracy"]) == {"bk0", "bk1"}
            for v in row["accuracy"].values():
                assert 0.0 <= v <= 1.0

    def test_f1_table_shape(self, completed_run):
        _, out = completed_run
        table = json.loads((out / "f1_table.json").read_text())
        assert len(table["rows"]) == 21  # 7 classifiers x 3 categories
        categories = {row["category"] for row in table["rows"]}
        assert categories == {"basaloid", "melanocytic", "squamous"}

    def test_comparison_table4_shape(self, completed_run):
        _, out = completed_run
        doc = json.loads((out / "comparison.json").read_text())
        assert [c["category"] for c in doc["categories"]] == ["basaloid", "melanocytic", "squamous"]
        for cat in doc["categories"]:
            assert set(cat["delong"]) == {"auc_a", "auc_b", "z", "p"}
            assert set(cat["venkatraman"]) == {"roc_difference", "p", "permutations"}
            assert 0.0 <= cat["delong"]["p"] <= 1.0
        tt = doc["paired_ttest"]
        assert tt["df"] == 6
        assert tt["n_pairs"] == 7

    def test_events_logged(self, completed_run):
        _, out = completed_run
        lines = (out / "events.jsonl").read_text().splitlines()
        assert len(lines) > 10
        events = [json.loads(l) for l in lines]
        phases = {e["phase"] for e in events}
        assert {"ingest", "extract", "aggregate", "train", "evaluate"} <= phases

    def test_missing_manifest_fails_before_compute(self, tmp_path):
        cfg = dataclasses.replace(small_config(tmp_path), manifest=str(tmp_path / "absent.csv"))
        with pytest.raises(StageError, match=r"\[ingest\]"):
            run_pipeline(cfg)
        meta = json.loads((Path(cfg.out_dir) / "run_meta.json").read_text())
        assert meta["status"] == "failed"
        assert meta["stage"] == "ingest"
        assert meta["error"] == "FileNotFoundError"
        assert not (Path(cfg.out_dir) / "accuracy_table.json").exists()

    @pytest.mark.parametrize("stages", [("ingest", "evaluate"), ("ingest", "train")])
    def test_unknown_or_unfed_stage_rejected(self, tmp_path, stages):
        cfg = small_config(tmp_path)
        with pytest.raises(ValueError, match="stages must come from"):
            run_pipeline(cfg, stages)
        assert not Path(cfg.out_dir).exists()

    def test_completed_meta_records_status_and_config_only(self, completed_run):
        cfg, out = completed_run
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta == {"run_id": cfg.run_id(), "status": "complete", "config": cfg.to_dict()}

    def test_silent_webhook_disabled_and_recorded(self, tmp_path, monkeypatch, silent_server):
        from slidebench import runner

        sink = functools.partial(WebhookSink, attempts=2, backoff=0.01, timeout=0.2)
        monkeypatch.setattr(runner, "WebhookSink", sink)
        url = f"http://127.0.0.1:{silent_server.getsockname()[1]}/hook"
        cfg = small_config(
            tmp_path, classifiers=["knn", "naive_bayes"], selected_classifier="knn", webhook_url=url
        )
        out = run_pipeline(cfg)
        # The first event's two attempts; every later event was dropped.
        assert pending_connections(silent_server) == 2
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta == {
            "run_id": cfg.run_id(), "status": "complete", "config": cfg.to_dict(),
            "webhook_disabled": True,
        }

    def test_every_document_is_strict_json(self, tmp_path):
        def no_constant(token):
            raise AssertionError(f"non-JSON token {token}")

        cfg = small_config(tmp_path, classifiers=["knn", "naive_bayes"], selected_classifier="knn")
        run_pipeline(cfg)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert cli.main(["aggregate", "--config", str(path)]) == 0
        assert cli.main(["learning-curve", "--config", str(path), "--classifier", "knn", "--sizes", "20"]) == 0
        docs = {
            p.relative_to(cfg.out_dir).as_posix(): json.loads(p.read_text(), parse_constant=no_constant)
            for p in Path(cfg.out_dir).rglob("*.json")
        }
        assert {"run_meta.json", "comparison.json", "bk0/curves/knn.json", "bk1/reports/naive_bayes.json"} <= set(docs)
        assert docs["run_meta.json"]["config"] == cfg.to_dict()
        # The first ROC threshold is +inf.
        assert {c["thresholds"][0] for c in docs["bk0/reports/knn.json"]["roc_curves"].values()} == {None}

    def test_non_finite_probabilities_fail_train(self, tmp_path, monkeypatch):
        from slidebench.learners.bayes import NaiveBayes

        monkeypatch.setattr(NaiveBayes, "predict_proba", lambda self, X: np.full((len(X), 3), np.nan))
        cfg = small_config(tmp_path, classifiers=["knn", "naive_bayes"], selected_classifier="knn")
        with pytest.raises(StageError, match=r"^\[train\] bk0/naive_bayes: 27 of 27 probability rows are not finite$"):
            run_pipeline(cfg)
        out = Path(cfg.out_dir)
        meta = json.loads((out / "run_meta.json").read_text())
        assert (meta["status"], meta["stage"], meta["error"]) == ("failed", "train", "ValueError")
        assert not list(out.glob("*/*/naive_bayes.json"))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_fit_task_names_itself(self, tmp_path, monkeypatch, capsys, jobs):
        # With jobs=2 the error is raised in a forked worker and pickled back.
        from slidebench.learners import KNearestNeighbor

        fit = KNearestNeighbor.fit

        def blow_up_at_d20(model, X, y):
            if X.shape[1] == 20:
                raise FloatingPointError("solver blew up")
            return fit(model, X, y)

        monkeypatch.setattr(KNearestNeighbor, "fit", blow_up_at_d20)
        cfg = small_config(tmp_path, dims=(16, 20), classifiers=["knn", "naive_bayes"],
                           selected_classifier="knn", jobs=jobs)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert cli.main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "[train] bk1/knn: solver blew up\n"
        meta = json.loads((Path(cfg.out_dir) / "run_meta.json").read_text())
        assert (meta["status"], meta["stage"], meta["error"], meta["message"]) == (
            "failed", "train", "FloatingPointError", "bk1/knn: solver blew up"
        )

    def test_interrupt_marks_run_failed(self, tmp_path, monkeypatch):
        from slidebench import runner

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "aggregate_stage", interrupted)
        cfg = small_config(tmp_path, classifiers=["knn"], selected_classifier="knn")
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(cfg)
        meta = json.loads((Path(cfg.out_dir) / "run_meta.json").read_text())
        assert (meta["status"], meta["stage"], meta["error"]) == ("failed", "aggregate", "KeyboardInterrupt")


def precomputed_config(tmp_path: Path, names=("pre",)) -> tuple[RunConfig, list[Path]]:
    """A run with one precomputed backend per name, over source caches
    written under `tmp_path/source/<name>`; returns the config and the
    source files."""
    cfg = small_config(tmp_path, seps=(1.2,), dims=(16,), classifiers=["knn", "naive_bayes"],
                       selected_classifier="knn")
    backends, files = [], []
    for i, name in enumerate(names):
        source = tmp_path / "source" / name
        spec = BackendSpec("synthetic", 16, seed=3 + i, class_separation=1.2)
        files += [
            write_cache(extract(spec, meta.file, meta.category, meta.effective, patch_count=5), source)
            for meta in ingest_stage(cfg)
        ]
        backends.append(BackendConfig(name=name, kind="precomputed", dim=16, source_dir=str(source)))
    return dataclasses.replace(cfg, backends=backends), files


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestPrecomputedPipeline:
    def test_caches_are_links_to_sources(self, tmp_path):
        cfg, sources = precomputed_config(tmp_path)
        before = {p: p.read_bytes() for p in sources}
        run_pipeline(cfg)
        cache = Path(cfg.cache_dir) / "pre"
        assert sorted(p.name for p in cache.iterdir()) == sorted(p.name for p in sources)
        for src in sources:
            assert (cache / src.name).read_bytes() == before[src]
            assert os.path.samefile(cache / src.name, src)

    def test_copy_when_link_fails(self, tmp_path, monkeypatch):
        cfg, sources = precomputed_config(tmp_path)
        out, cache = Path(cfg.out_dir), Path(cfg.cache_dir) / "pre"
        run_pipeline(cfg)
        linked = tree_bytes(out)
        shutil.rmtree(out)
        shutil.rmtree(cfg.cache_dir)

        def cross_device(src, dst, **kwargs):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

        monkeypatch.setattr(os, "link", cross_device)
        run_pipeline(cfg)
        for src in sources:
            assert (cache / src.name).read_bytes() == src.read_bytes()
            assert not os.path.samefile(cache / src.name, src)
        copied = tree_bytes(out)
        del linked[cfg.tracker_jsonl], copied[cfg.tracker_jsonl]
        assert copied == linked

    def test_synthetic_rerun_leaves_sources_alone(self, tmp_path):
        cfg, sources = precomputed_config(tmp_path)
        before = {p: p.read_bytes() for p in sources}
        run_pipeline(cfg)
        cache = Path(cfg.cache_dir) / "pre"
        # A killed run may leave a temp link to a source behind.
        os.link(sources[0], cache / f"{sources[0].name}.tmp")
        synthetic = BackendConfig(name="pre", kind="synthetic", dim=16, patch_count_min=4, patch_count_max=8)
        run_pipeline(dataclasses.replace(cfg, backends=[synthetic]))
        assert {p: p.read_bytes() for p in sources} == before
        assert not os.path.samefile(cache / sources[0].name, sources[0])
        assert not list(cache.glob("*.tmp"))

    def test_corrupt_source_fails_extract(self, tmp_path):
        cfg, sources = precomputed_config(tmp_path)
        blob = bytearray(sources[3].read_bytes())
        blob[-8] ^= 0x01  # a payload byte; the CRC is the last four
        sources[3].write_bytes(bytes(blob))
        with pytest.raises(StageError, match=r"\[extract\].*checksum mismatch"):
            run_pipeline(cfg)
        meta = json.loads((Path(cfg.out_dir) / "run_meta.json").read_text())
        assert (meta["status"], meta["stage"], meta["error"]) == ("failed", "extract", "CacheFormatError")

    def test_failed_run_meta_says_why(self, tmp_path):
        cfg, sources = precomputed_config(tmp_path)
        blob = bytearray(sources[3].read_bytes())
        blob[-8] ^= 0x01
        sources[3].write_bytes(bytes(blob))
        with pytest.raises(StageError):
            run_pipeline(cfg)
        meta = json.loads((Path(cfg.out_dir) / "run_meta.json").read_text())
        assert meta["message"] == f"{sources[3]}: payload checksum mismatch"

    def test_each_source_read_once(self, tmp_path, monkeypatch):
        from slidebench import design, embeddings

        cfg, sources = precomputed_config(tmp_path, names=("pre", "alt"))
        reads = collections.Counter()

        def spy(read_cache):
            def counted(path):
                reads[Path(path)] += 1
                return read_cache(path)
            return counted

        monkeypatch.setattr(embeddings, "read_cache", spy(embeddings.read_cache))
        monkeypatch.setattr(design, "read_cache", spy(design.read_cache))
        run_pipeline(cfg)
        assert reads == {src: 1 for src in sources}

    def test_source_deleted_after_scan_fails_extract(self, tmp_path, monkeypatch):
        from slidebench import runner

        cfg, sources = precomputed_config(tmp_path)
        missing_caches = runner.missing_caches

        def scan_then_delete(directory, manifest):
            report = missing_caches(directory, manifest)
            sources[5].unlink()
            return report

        monkeypatch.setattr(runner, "missing_caches", scan_then_delete)
        with pytest.raises(StageError, match=r"\[extract\] missing embedding cache for slide"):
            run_pipeline(cfg)
        meta = json.loads((Path(cfg.out_dir) / "run_meta.json").read_text())
        assert (meta["status"], meta["stage"], meta["error"]) == ("failed", "extract", "CacheFormatError")

    def test_leftover_temp_files(self, tmp_path):
        cfg, sources = precomputed_config(tmp_path)
        cache = Path(cfg.cache_dir) / "pre"
        cache.mkdir(parents=True)
        (cache / f"{sources[0].name}.tmp").write_bytes(b"partial")
        os.link(sources[1], cache / f"{sources[1].name}.tmp")
        run_pipeline(cfg)
        assert json.loads((Path(cfg.out_dir) / "run_meta.json").read_text())["status"] == "complete"
        assert not list(cache.glob("*.tmp"))
        assert all(os.path.samefile(cache / src.name, src) for src in sources)

    def test_rerun_into_linked_cache(self, tmp_path):
        # rename() is a no-op between two links to one inode; no temp name stays.
        cfg, sources = precomputed_config(tmp_path)
        run_pipeline(cfg)
        run_pipeline(cfg)
        cache = Path(cfg.cache_dir) / "pre"
        assert sorted(p.name for p in cache.iterdir()) == sorted(p.name for p in sources)


class TestStageCommands:
    @pytest.mark.parametrize("kind", ["synthetic", "precomputed"])
    def test_aggregate_command_rebuilds_pipeline_design(self, tmp_path, kind):
        # The pipeline aggregates the matrices extract holds in memory; the
        # stage command reads them back from cache_dir. Same bytes.
        if kind == "synthetic":
            cfg = small_config(tmp_path, classifiers=["knn", "naive_bayes"], selected_classifier="knn")
        else:
            cfg, _ = precomputed_config(tmp_path, names=("pre", "alt"))
        run_pipeline(cfg)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        rebuilt = tmp_path / "rebuilt"
        assert cli.main(["aggregate", "--config", str(path), "--out-dir", str(rebuilt)]) == 0
        for backend in cfg.backends:
            ours = (Path(cfg.out_dir) / backend.name / "design.dmat").read_bytes()
            assert (rebuilt / backend.name / "design.dmat").read_bytes() == ours

    def test_missing_cache_fails_aggregate(self, tmp_path, capsys):
        # `train` rebuilds the designs from cache_dir, so the aggregate
        # stage is the one that fails.
        cfg = small_config(tmp_path, classifiers=["knn", "naive_bayes"], selected_classifier="knn")
        run_pipeline(cfg)
        next((Path(cfg.cache_dir) / "bk0").glob("*.embc")).unlink()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert cli.main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("[aggregate] missing embedding caches")
        meta = json.loads((Path(cfg.out_dir) / "run_meta.json").read_text())
        assert (meta["status"], meta["stage"], meta["error"], meta["stages"]) == (
            "failed", "aggregate", "DesignError", ["ingest", "aggregate", "train"]
        )

    def _extracted(self, tmp_path):
        cfg = small_config(tmp_path, seps=(1.2,), dims=(16,), classifiers=["knn", "naive_bayes"],
                           selected_classifier="knn")
        run_pipeline(cfg, ("ingest", "extract"))
        return cfg, [meta.file for meta in ingest_stage(cfg)]

    def _assert_aggregate_fails(self, cfg, match):
        with pytest.raises(StageError, match=match):
            run_pipeline(cfg, ("ingest", "aggregate", "train"))
        meta = json.loads((Path(cfg.out_dir) / "run_meta.json").read_text())
        assert (meta["status"], meta["stage"], meta["error"]) == ("failed", "aggregate", "CacheFormatError")

    def test_swapped_cache_fails_aggregate(self, tmp_path):
        # The stage commands check each cache against its manifest row, as
        # extract checks a precomputed source.
        cfg, ids = self._extracted(tmp_path)
        a, b = (cache_path(Path(cfg.cache_dir) / "bk0", sid) for sid in (ids[1], ids[3]))
        blob_a = a.read_bytes()
        a.write_bytes(b.read_bytes())
        b.write_bytes(blob_a)
        self._assert_aggregate_fails(
            cfg, rf"\[aggregate\] cache .*{a.name} holds slide '{ids[3]}', expected '{ids[1]}'"
        )

    def test_category_edited_after_extract_fails_aggregate(self, tmp_path):
        cfg, ids = self._extracted(tmp_path)
        rows = parse_manifest(cfg.manifest)
        i = next(i for i, m in enumerate(rows) if m.file == ids[2])
        other = next(c for c in (Category.BASALOID, Category.SQUAMOUS) if c is not rows[i].category)
        rows[i] = dataclasses.replace(rows[i], category=other)
        write_manifest(rows, cfg.manifest)
        self._assert_aggregate_fails(
            cfg, rf"\[aggregate\] cache .*{ids[2]}\.embc label/subset .* disagree with manifest"
        )

    def test_any_stage_error_exits_two(self, tmp_path, capsys):
        cfg = small_config(tmp_path, classifiers=["knn", "naive_bayes"], selected_classifier="knn")
        run_pipeline(cfg)
        report_path = Path(cfg.out_dir) / "bk0" / "reports" / "knn.json"
        report = json.loads(report_path.read_text())
        del report["roc_curves"]
        report_path.write_text(json.dumps(report))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert cli.main(["plot", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("[plot]")
        meta = json.loads((Path(cfg.out_dir) / "run_meta.json").read_text())
        assert (meta["status"], meta["stage"], meta["error"]) == ("failed", "plot", "KeyError")

    def test_missing_report_fails_plot(self, tmp_path, capsys):
        cfg = small_config(tmp_path, classifiers=["knn", "naive_bayes"], selected_classifier="knn")
        run_pipeline(cfg)
        (Path(cfg.out_dir) / "bk1" / "reports" / "naive_bayes.json").unlink()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert cli.main(["plot", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("[plot]")
        meta = json.loads((Path(cfg.out_dir) / "run_meta.json").read_text())
        assert (meta["status"], meta["stage"], meta["error"]) == ("failed", "plot", "FileNotFoundError")


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        cfg1 = small_config(tmp_path / "a")
        cfg2 = small_config(tmp_path / "b")
        out1 = run_pipeline(cfg1)
        out2 = run_pipeline(cfg2)
        for rel in ["accuracy_table.json", "f1_table.json", "comparison.json"]:
            b1 = (out1 / rel).read_bytes()
            b2 = (out2 / rel).read_bytes()
            assert b1 == b2, f"{rel} differs between identical runs"
        for backend in ("bk0", "bk1"):
            for kind in cfg1.classifiers:
                r1 = (out1 / backend / "reports" / f"{kind}.json").read_bytes()
                r2 = (out2 / backend / "reports" / f"{kind}.json").read_bytes()
                assert r1 == r2


class TestCompareModels:
    def test_single_classifier_run_completes(self, tmp_path):
        # A paired t-test over classifiers needs two of them; with one,
        # compare still writes the per-category tests.
        cfg = small_config(tmp_path, classifiers=["knn"], selected_classifier="knn")
        out = run_pipeline(cfg)
        assert json.loads((out / "run_meta.json").read_text())["status"] == "complete"
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["paired_ttest"] is None
        assert [c["category"] for c in doc["categories"]] == ["basaloid", "melanocytic", "squamous"]
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        assert not [e for e in events if e["phase"] == "compare"]

    def test_self_comparison_null(self, completed_run):
        cfg, out = completed_run
        doc = compare_models(
            out / "bk0", out / "bk0", cfg.selected_classifier, cfg.classifiers,
            permutations=200, seed=1,
        )
        for cat in doc["categories"]:
            assert cat["delong"]["z"] == 0.0
            assert cat["delong"]["p"] == 1.0
            assert cat["venkatraman"]["roc_difference"] == 0.0
            assert cat["venkatraman"]["p"] == 1.0
        assert doc["paired_ttest"]["t"] == 0.0
        assert doc["paired_ttest"]["p"] == 1.0

    def test_constant_accuracy_gap_gives_null_t(self, tmp_path, completed_run):
        # Every accuracy difference the same and nonzero: t is infinite,
        # which strict JSON writes as null.
        cfg, out = completed_run
        for name, accuracy in (("a", 0.5), ("b", 0.25)):
            shutil.copytree(out / "bk0" / "predictions", tmp_path / name / "predictions")
            for kind in cfg.classifiers:
                report = tmp_path / name / "reports" / f"{kind}.json"
                report.parent.mkdir(exist_ok=True)
                report.write_text(json.dumps({"accuracy": accuracy}))
        doc = compare_models(
            tmp_path / "a", tmp_path / "b", cfg.selected_classifier, cfg.classifiers, permutations=10
        )
        assert (doc["paired_ttest"]["t"], doc["paired_ttest"]["p"]) == (None, 0.0)
        text = write_json(tmp_path / "comparison.json", doc).read_text()
        assert '"t": null' in text

    def test_stronger_backend_wins(self, tmp_path):
        # Backend 0 has much stronger class separation than backend 1.
        cfg = small_config(tmp_path, seps=(1.2, 0.15), seed=19)
        out = run_pipeline(cfg)
        doc = json.loads((out / "comparison.json").read_text())
        for cat in doc["categories"]:
            assert cat["delong"]["auc_a"] > cat["delong"]["auc_b"]
            assert cat["delong"]["z"] > 0

    def test_unpaired_test_sets_rejected(self, tmp_path, completed_run):
        cfg, out = completed_run
        mangled = tmp_path / "mangled"
        (mangled / "predictions").mkdir(parents=True)
        (mangled / "reports").mkdir(parents=True)
        pred = json.loads(
            (out / "bk0" / "predictions" / f"{cfg.selected_classifier}.json").read_text()
        )
        pred["slide_ids"] = list(reversed(pred["slide_ids"]))
        (mangled / "predictions" / f"{cfg.selected_classifier}.json").write_text(json.dumps(pred))
        with pytest.raises(ValueError, match="unpaired test sets"):
            compare_models(out / "bk0", mangled, cfg.selected_classifier, cfg.classifiers)


class TestLearningCurve:
    def test_full_size_matches_pipeline_accuracy(self, completed_run):
        cfg, out = completed_run
        cv = json.loads((out / "bk0" / "cv" / "logistic_regression.json").read_text())
        spec = ClassifierSpec("logistic_regression", params=cv["best"]["params"], seed=cv["best"]["seed"])
        curve = learning_curve(cfg, "bk0", spec, sizes=[63])
        report = json.loads((out / "bk0" / "reports" / "logistic_regression.json").read_text())
        assert curve.sizes[-1] == 63
        assert curve.test_accuracy[-1] == pytest.approx(report["accuracy"], abs=1e-12)

    def test_unsorted_sizes_rejected(self, completed_run):
        cfg, _ = completed_run
        spec = ClassifierSpec("naive_bayes")
        with pytest.raises(ValueError, match="strictly increasing"):
            learning_curve(cfg, "bk0", spec, sizes=[40, 20])

    def test_size_exceeding_training_rejected(self, completed_run):
        cfg, _ = completed_run
        spec = ClassifierSpec("naive_bayes")
        with pytest.raises(ValueError, match="exceeds the training count"):
            learning_curve(cfg, "bk0", spec, sizes=[64])

    def test_sizes_below_class_count_rejected(self, completed_run):
        cfg, _ = completed_run
        spec = ClassifierSpec("naive_bayes")
        with pytest.raises(ValueError, match="class count"):
            learning_curve(cfg, "bk0", spec, sizes=[2, 63])

    def test_curve_arrays_aligned(self, completed_run):
        cfg, _ = completed_run
        spec = ClassifierSpec("naive_bayes")
        curve = learning_curve(cfg, "bk0", spec, sizes=[10, 30], repeats=2)
        # Full training size is appended automatically.
        assert curve.sizes == [10, 30, 63]
        assert len(curve.train_accuracy) == len(curve.test_accuracy) == 3


class TestParallelPath:
    def test_runner_import_loads_no_pool_or_http_client(self):
        # Only a `jobs > 1` train stage starts the pool, and only a
        # configured webhook sends HTTP.
        code = ("import sys, slidebench.runner; "
                "print([m for m in ('urllib.request', 'concurrent.futures.process') if m in sys.modules])")
        res = run_python("-c", code)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_jobs_two_matches_serial(self, tmp_path):
        cfg_serial = small_config(tmp_path / "s", seed=23)
        cfg_par = small_config(tmp_path / "p", seed=23, jobs=2)
        out_s = run_pipeline(cfg_serial)
        out_p = run_pipeline(cfg_par)
        a = json.loads((out_s / "accuracy_table.json").read_text())
        b = json.loads((out_p / "accuracy_table.json").read_text())
        assert a == b


class TestConfig:
    def test_load_with_overrides(self, tmp_path):
        cfg = small_config(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = load_config(path, {"seed": 99})
        assert loaded.seed == 99
        assert loaded.backends[0].name == "bk0"

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"manifest": "x", "backends": []}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = small_config(tmp_path)
        raw = cfg.to_dict()
        raw["tipo"] = 1
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(path)

    def test_duplicate_backend_names(self, tmp_path):
        with pytest.raises(ConfigError, match="unique"):
            small_config(tmp_path, seps=(1.0, 1.0)).backends[0]
            RunConfig(
                manifest="m", out_dir="o", cache_dir="c", seed=1,
                backends=[
                    BackendConfig(name="x", kind="synthetic", dim=8),
                    BackendConfig(name="x", kind="synthetic", dim=8),
                ],
            )

    def test_duplicate_classifier_kinds_rejected_when_loading(self, tmp_path):
        # Two train tasks for one kind would write the same four documents.
        raw = small_config(tmp_path).to_dict()
        raw.update(classifiers=["knn", "knn", "naive_bayes"], selected_classifier="knn")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="^classifier kinds must be unique$"):
            load_config(path)

    def test_decreasing_curve_sizes_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="strictly increasing"):
            small_config(tmp_path, learning_curve_sizes=[50, 20])

    # Each of these used to pass config validation; the invalid spec, the
    # empty and the scalar axis then failed only in the train stage, and the
    # misspelled kind was ignored in favour of the default grid.
    def test_invalid_grid_spec_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="var_floor_ratio must be >= 0"):
            small_config(tmp_path, grids={"naive_bayes": {"var_floor_ratio": [-1.0]}})

    def test_infinite_grid_value_rejected_when_loading(self, tmp_path):
        # Loaded, the config's naive Bayes fits gave NaN probabilities,
        # written as bare NaN tokens in the reports.
        raw = small_config(tmp_path).to_dict()
        raw["grids"] = {"naive_bayes": {"var_floor_ratio": [math.inf]}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        assert '"var_floor_ratio": [Infinity]' in path.read_text()
        with pytest.raises(ConfigError, match="var_floor_ratio must be >= 0 and finite, got inf"):
            load_config(path)

    def test_unknown_grid_parameter_rejected(self, tmp_path):
        # Were the name ignored, the default 100 trees would be fit while
        # the reports named n_trees=10.
        raw = small_config(tmp_path).to_dict()
        raw["grids"] = {"random_forest": {"n_trees": [10]}}
        with pytest.raises(ConfigError, match="random_forest has no parameter 'n_trees'"):
            config_from_dict(raw)

    def test_unknown_grid_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown classifier kind 'decison_tree'"):
            small_config(tmp_path, grids={"decison_tree": {"max_depth": [2]}})

    def test_empty_grid_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="grids.knn.k must be a non-empty list"):
            small_config(tmp_path, grids={"knn": {"k": []}})

    def test_scalar_grid_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="grids.knn.k must be a non-empty list"):
            small_config(tmp_path, grids={"knn": {"k": 3}})

    @pytest.mark.parametrize("name, value", [
        ("classifiers", "knn"),
        ("classifiers", b"knn"),
        ("backends", "bk0"),
        ("learning_curve_sizes", "20"),
    ])
    def test_string_in_place_of_list_rejected(self, tmp_path, name, value):
        # A string is iterable, so it used to be split into its characters.
        with pytest.raises(ConfigError, match=f"{name} must be a list, not a string"):
            small_config(tmp_path, selected_classifier="knn", **{name: value})

    def test_string_classifiers_rejected_when_loading(self, tmp_path):
        raw = small_config(tmp_path).to_dict()
        raw.update(classifiers="knn", selected_classifier="knn")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="classifiers must be a list, not a string"):
            load_config(path)

    def test_grid_errors_raised_when_loading(self, tmp_path):
        raw = small_config(tmp_path).to_dict()
        raw["grids"] = {"knn": {"k": ["three"]}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="grids.knn"):
            load_config(path)

    @pytest.mark.parametrize("name", ["a/b", "a\\b", "a\0b", ".", ".."])
    def test_backend_name_must_be_plain(self, name):
        # Backend names become directories: `<cache_dir>/<name>/`.
        with pytest.raises(ConfigError, match="is not a plain name"):
            BackendConfig(name=name, kind="synthetic", dim=8)

    @pytest.mark.parametrize("name", ["../escaped.jsonl", "/tmp/events.jsonl", "logs/events.jsonl", "", ".."])
    def test_tracker_jsonl_must_be_plain(self, tmp_path, name):
        # The event log is written at `<out_dir>/<tracker_jsonl>`.
        with pytest.raises(ConfigError, match="is not a plain name"):
            small_config(tmp_path, tracker_jsonl=name)

    @pytest.mark.parametrize("fields, message", [
        ({"dim": 2}, "synthetic backend needs dim >= 3"),
        ({"class_separation": -1.0}, "class_separation must be >= 0"),
        ({"dim": 0}, "backend dim must be >= 1"),
        ({"kind": "magic"}, "unknown backend kind 'magic'"),
        ({"kind": "precomputed"}, "precomputed backend requires source_dir"),
        ({"kind": "precomputed", "source_dir": ""}, "precomputed backend requires source_dir"),
        ({"class_separation": float("nan")}, "class_separation must be finite, got nan"),
        ({"class_separation": float("inf")}, "class_separation must be finite, got inf"),
        ({"kind": "precomputed", "source_dir": "s", "class_separation": float("nan")},
         "class_separation must be finite, got nan"),
    ])
    def test_backend_checked_as_its_spec(self, fields, message):
        # A backend the extract stage could not build is rejected with the
        # config, before ingest runs or run_meta.json is written.
        with pytest.raises(ConfigError, match=f"^backend 'b': {message}"):
            BackendConfig(**{"name": "b", "kind": "synthetic", "dim": 8, **fields})

    @pytest.mark.parametrize("key, value", [
        ("seed", "7"),
        ("seed", 7.0),
        ("cv_folds", 2.5),
        ("cv_folds", True),
        ("venkatraman_permutations", 10.5),
        ("learning_curve_repeats", 2.0),
        ("jobs", 1.5),
        ("jobs", True),
        ("learning_curve_sizes", [20, 40.5]),
        ("backends.dim", 8.0),
        ("backends.patch_count_min", 2.5),
        ("backends.patch_count_max", 8.5),
        ("backends.seed", "4"),
    ])
    def test_non_integer_rejected_when_loading(self, tmp_path, key, value):
        raw = small_config(tmp_path).to_dict()
        owner, _, name = key.rpartition(".")
        (raw["backends"][0] if owner else raw)[name] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=f"{name} must be an integer, got "):
            load_config(path)

    def test_workload_style_names_accepted(self):
        assert BackendConfig(name="uni-pre", kind="synthetic", dim=8).name == "uni-pre"

    def test_containers_cannot_be_mutated(self, tmp_path):
        cfg = small_config(tmp_path, learning_curve_sizes=[20, 40])
        with pytest.raises(AttributeError):
            cfg.classifiers.append("bogus")
        with pytest.raises(AttributeError):
            cfg.backends.append(cfg.backends[0])
        with pytest.raises(AttributeError):
            cfg.learning_curve_sizes.append(10)
        with pytest.raises(TypeError):
            cfg.grids["naive_bayes"] = {"var_floor_ratio": [-1.0]}
        with pytest.raises(TypeError):
            cfg.grids["knn"]["k"] = [0]
        with pytest.raises(AttributeError):
            cfg.grids["knn"]["k"].append(0)

    def test_caller_containers_are_copied(self, tmp_path):
        grids = {"knn": {"k": [3]}}
        classifiers = ["knn", "naive_bayes"]
        cfg = small_config(tmp_path, grids=grids, classifiers=classifiers, selected_classifier="knn")
        grids["knn"]["k"].append(0)
        grids["decison_tree"] = {}
        classifiers.append("bogus")
        assert cfg.grids == {"knn": {"k": (3,)}}
        assert cfg.classifiers == ("knn", "naive_bayes")

    def test_to_dict_emits_the_loaded_json(self, tmp_path):
        raw = json.loads(json.dumps(small_config(tmp_path, learning_curve_sizes=[20, 40]).to_dict()))
        cfg = config_from_dict(raw)
        assert cfg.to_dict() == raw  # lists stay lists: [3] != (3,)
        assert dataclasses.replace(cfg, seed=cfg.seed).to_dict() == raw

    def test_to_dict_has_every_field(self, tmp_path):
        # Every field feeds run_id, so none may be left out of to_dict.
        raw = small_config(tmp_path).to_dict()
        assert set(raw) == {f.name for f in dataclasses.fields(RunConfig)}
        for backend in raw["backends"]:
            assert set(backend) == {f.name for f in dataclasses.fields(BackendConfig)}

    def test_fields_cannot_be_assigned(self, tmp_path):
        cfg = small_config(tmp_path)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.grids = {"naive_bayes": {"var_floor_ratio": [-1.0]}}

    def test_replace_validates_again(self, tmp_path):
        cfg = small_config(tmp_path)
        with pytest.raises(ConfigError, match="var_floor_ratio must be >= 0"):
            dataclasses.replace(cfg, grids={"naive_bayes": {"var_floor_ratio": [-1.0]}})


class TestTrainStageTasks:
    def test_tasks_carry_no_matrices(self, tmp_path, monkeypatch):
        # Each backend's matrices reach the fits once, as stage data; a task
        # names its backend, so a pool pickles no ndarray per task.
        from slidebench import runner

        tasks, returned = [], []
        fit_one = runner._fit_one

        def recording_fit_one(args):
            tasks.append(args)
            returned.append(fit_one(args))
            return returned[-1]

        monkeypatch.setattr(runner, "_fit_one", recording_fit_one)
        cfg = small_config(tmp_path, classifiers=["knn", "naive_bayes"], selected_classifier="knn")
        run_pipeline(cfg)
        assert [t[:2] for t in tasks] == [
            (b, k) for b in ("bk0", "bk1") for k in ("knn", "naive_bayes")
        ]
        for args in tasks:
            assert not any(isinstance(a, np.ndarray) for a in args)
        assert runner._stage_data == {}
        # A task writes its own documents and sends back only what the
        # tables and tracker events need: no fitted model, no probabilities.
        for res in returned:
            fields = vars(res)
            assert sorted(fields) == ["backend", "best_cv_accuracy", "kind", "report"]
            assert not any(isinstance(v, (np.ndarray, BaseClassifier)) for v in fields.values())


class TestCli:
    def run_cli(self, *args):
        return run_python("-m", "slidebench.cli", *args)

    def test_fixture_and_ingest(self, tmp_path):
        manifest = tmp_path / "m.csv"
        res = self.run_cli("fixture", "--out", str(manifest), "--seed", "0")
        assert res.returncode == 0, res.stderr
        res = self.run_cli("ingest", "--manifest", str(manifest))
        assert res.returncode == 0
        assert "classified: 714" in res.stdout
        assert "train=498 test=216" in res.stdout

    def test_run_subcommand_and_exit_codes(self, tmp_path):
        cfg = small_config(tmp_path, seps=(1.2,), dims=(16,))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        res = self.run_cli("run", "--config", str(path))
        assert res.returncode == 0, res.stderr
        assert (Path(cfg.out_dir) / "accuracy_table.json").exists()
        # comparison.json requires two backends; single-backend run skips it
        assert not (Path(cfg.out_dir) / "comparison.json").exists()

    def test_missing_config_fails(self):
        res = self.run_cli("run", "--config", "/nonexistent/config.json")
        assert res.returncode == 2
        assert "config" in res.stderr

    def test_stage_tagged_error(self, tmp_path):
        cfg = small_config(tmp_path, seps=(1.2,), dims=(16,))
        cfg = dataclasses.replace(cfg, manifest=str(tmp_path / "gone.csv"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        res = self.run_cli("run", "--config", str(path))
        assert res.returncode == 2
        assert "[ingest]" in res.stderr

    def test_learning_curve_subcommand(self, tmp_path):
        cfg = small_config(tmp_path, seps=(1.2,), dims=(16,))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert self.run_cli("run", "--config", str(path)).returncode == 0
        res = self.run_cli(
            "learning-curve", "--config", str(path),
            "--classifier", "naive_bayes", "--sizes", "20,40", "--repeats", "1",
        )
        assert res.returncode == 0, res.stderr
        curve_path = Path(cfg.out_dir) / "bk0" / "curves" / "naive_bayes.json"
        assert curve_path.exists()
        assert (Path(cfg.out_dir) / "bk0" / "curves" / "naive_bayes_learning_curve.svg").exists()

    def test_stagewise_flow(self, tmp_path):
        # extract -> aggregate -> train -> compare -> plot, one stage at a time.
        cfg = small_config(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        out = Path(cfg.out_dir)

        res = self.run_cli("extract", "--config", str(path))
        assert res.returncode == 0, res.stderr
        assert len(list((Path(cfg.cache_dir) / "bk0").glob("*.embc"))) == 90

        self.assert_stages_complete(out, ["ingest", "extract"])

        res = self.run_cli("aggregate", "--config", str(path))
        assert res.returncode == 0, res.stderr
        assert load_design(out / "bk0" / "design.dmat").rows.shape == (90, 16)
        self.assert_stages_complete(out, ["ingest", "aggregate"])

        res = self.run_cli("train", "--config", str(path))
        assert res.returncode == 0, res.stderr
        assert (out / "bk0" / "models" / "knn.modl").exists()
        assert (out / "accuracy_table.json").exists()
        assert (out / "f1_table.json").exists()
        self.assert_stages_complete(out, ["ingest", "aggregate", "train"])

        res = self.run_cli("compare", "--config", str(path))
        assert res.returncode == 0, res.stderr
        assert (out / "comparison.json").exists()
        self.assert_stages_complete(out, ["ingest", "compare"])

        res = self.run_cli("plot", "--config", str(path))
        assert res.returncode == 0, res.stderr
        assert (out / "bk0" / "plots" / "logistic_regression_roc.svg").exists()
        self.assert_stages_complete(out, ["ingest", "plot"])

    @staticmethod
    def assert_stages_complete(out: Path, stages: list[str]):
        meta = json.loads((out / "run_meta.json").read_text())
        assert (meta["status"], meta["stages"]) == ("complete", stages)
