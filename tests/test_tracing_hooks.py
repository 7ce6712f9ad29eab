"""The attributes `perfbench/tracing.py` swaps still exist and are restored.

`--trace 1` benchmark runs wrap slidebench functions by looking them up in
their owners' `__dict__`; a rename or removal would break that mode only.
"""

import collections
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from slidebench.learners import ClassifierSpec, build_classifier

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    module = importlib.import_module("tracing")
    monkeypatch.delitem(sys.modules, "tracing")
    return module


def test_instrumentation_installs_and_restores(tracing):
    inst = tracing.Instrumentation(tracing.Tracer())
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in inst._plan]
    with inst.installed():
        swapped = [owner.__dict__[attr] is not fn for owner, attr, fn in originals]
    assert all(swapped)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_grow_tree_spans_count_the_fitted_nodes(tracing):
    # The tracer reads `nodes` from grow_tree's return value; a change to
    # its shape or to how the ensembles call it must show up here.
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 6))
    y = rng.integers(0, 3, 40)
    tracer = tracing.Tracer()
    spec = ClassifierSpec("gradient_boosting", {"n_estimators": 4, "max_depth": 2}, seed=1)
    with tracing.Instrumentation(tracer).installed():
        model = build_classifier(spec).fit(X, y)
    fitted = [tree.n_nodes for stage in model.rounds_ for tree in stage]
    spans = [s.attrs["nodes"] for s in tracer.spans if s.name == "learners.grow_tree"]
    assert len(fitted) == 4 * 3
    assert spans == fitted


def test_precomputed_run_reads_and_aggregates_each_slide_once(tracing, tmp_path):
    from slidebench.runner import run_pipeline
    from test_runner import precomputed_config

    cfg, sources = precomputed_config(tmp_path, names=("pre", "alt"))
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer).installed():
        run_pipeline(cfg)
    spans = collections.Counter(s.name for s in tracer.spans)
    assert spans["embeddings.read"] == spans["design.aggregate"] == len(sources)


def test_traced_jobs_two_run_collects_worker_spans(tracing, tmp_path, monkeypatch):
    # Pool workers attach their spans to their results, and the wrapped
    # `runner.accuracy_table` moves them into the parent's tracer. The
    # pool pickles the task wrapper by name, so its module is importable.
    from slidebench.runner import run_pipeline
    from test_runner import small_config

    monkeypatch.setitem(sys.modules, "tracing", tracing)
    cfg = small_config(tmp_path, classifiers=["knn", "naive_bayes"], selected_classifier="knn", jobs=2)
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer).installed():
        run_pipeline(cfg)
    tasks = [s for s in tracer.spans if s.name == "runner.fit_task"]
    assert sorted((s.attrs["backend"], s.attrs["kind"]) for s in tasks) == [
        (b.name, kind) for b in cfg.backends for kind in sorted(cfg.classifiers)
    ]
    workers = {s.id[0] for s in tasks}
    assert tracer.pid not in workers
    assert workers <= {s.id[0] for s in tracer.spans if s.name == "learners.fit"}
