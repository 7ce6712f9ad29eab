"""Spans around slidebench's layers, recorded from outside the program.

`Instrumentation.installed()` replaces the module and class attributes
that `slidebench.runner` and the learners look up at call time with
wrappers that open a span, and puts the originals back when the block
ends, so untraced calls run the unmodified program. Spans carry a name,
start, end, parent and attributes (bytes, patches, tree nodes, solver
iterations), and stay in memory until the benchmark writes them out.

Fit tasks of a `jobs > 1` run execute in forked pool workers. Their spans
ride back to the parent on the returned `FitResult`, which is why the
task wrapper is a module-level function: the pool pickles it by name.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

STAGES = ("ingest", "extract", "aggregate", "train", "compare", "plot")
LAYERS = ("runner", "embeddings", "design", "learners", "metrics", "rocstats", "svgplot", "tracker")


@dataclass
class Span:
    id: tuple[int, int]               # (pid, serial): unique across pool workers
    parent: tuple[int, int] | None
    name: str                         # "<layer>.<what>"
    start: float                      # time.perf_counter(): CLOCK_MONOTONIC, shared by processes
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return asdict(self)


class Tracer:
    """Collects spans in memory; nesting follows the open-span stack."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self._serial = 0

    @contextmanager
    def span(self, name: str, **attrs):
        self._serial += 1
        parent = self.stack[-1].id if self.stack else None
        sp = Span((os.getpid(), self._serial), parent, name, time.perf_counter(), attrs=attrs)
        self.stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self.stack.pop()
            self.spans.append(sp)

    def inside(self, name: str) -> bool:
        return any(s.name == name for s in self.stack)


# The tracer of the current traced call. Forked pool workers inherit it,
# and `traced_fit_one` must reach it by module lookup because the pool
# pickles the task function by name.
_active: Tracer | None = None
_fit_one = None


def traced_fit_one(args: tuple):
    tracer = _active
    mark = len(tracer.spans)
    with tracer.span("runner.fit_task", backend=args[0], kind=args[1]):
        result = _fit_one(args)
    if os.getpid() != tracer.pid:
        result.trace_spans = tracer.spans[mark:]
    return result


def _out_mb(args, out) -> dict:
    return {"mb": os.path.getsize(out) / 1e6}


def _path_mb(args, out) -> dict:
    return {"mb": os.path.getsize(args[0]) / 1e6}


def _tree_nodes(args, out) -> dict:
    return {"nodes": out[0].n_nodes}


class Instrumentation:
    """Installs span wrappers on the slidebench modules for one traced call."""

    def __init__(self, tracer: Tracer):
        from slidebench import design, embeddings, runner, tracker
        from slidebench.learners import ensembles, factory, trees

        self.tracer = tracer
        self._runner = runner
        # (owner, attribute, span name, span attributes from (args, result))
        spans = [
            (runner, "ingest_stage", "runner.ingest", None),
            (runner, "extract_stage", "runner.extract", None),
            (runner, "aggregate_stage", "runner.aggregate", None),
            (runner, "train_evaluate_stage", "runner.train", None),
            (runner, "compare_stage", "runner.compare", None),
            (runner, "plot_stage", "runner.plot", None),
            (runner, "extract", "embeddings.extract", None),
            (runner, "write_cache", "embeddings.write", _out_mb),
            (embeddings, "read_cache", "embeddings.read", _path_mb),
            (design, "read_cache", "embeddings.read", _path_mb),
            (runner, "build_design", "design.build", None),
            (design, "mean_aggregate", "design.aggregate", lambda a, out: {"patches": a[0].m}),
            (runner, "save_design", "design.save", None),
            (runner, "cross_validate", "learners.cv", lambda a, out: {"kind": a[0][0].kind}),
            (trees, "grow_tree", "learners.grow_tree", _tree_nodes),
            (ensembles, "grow_tree", "learners.grow_tree", _tree_nodes),
            (runner, "save_model", "learners.save_model", _out_mb),
            (runner, "classification_report", "metrics.report", None),
            (runner, "delong_test", "rocstats.delong", None),
            (runner, "venkatraman_test", "rocstats.venkatraman", None),
            (runner, "paired_ttest", "rocstats.ttest", None),
            (runner, "line_plot", "svgplot.plot", None),
            (runner, "write_svg", "svgplot.plot", None),
            (tracker.Tracker, "track", "tracker.track", None),
        ]
        self._plan = [
            (owner, attr, functools.partial(self._spanned, name, attrs))
            for owner, attr, name, attrs in spans
        ]
        self._plan += [
            (runner, "_fit_one", lambda fn: traced_fit_one),
            (runner, "accuracy_table", self._adopting),
        ]
        for cls in set(factory._CLASSES.values()):
            self._plan += [(cls, "fit", self._fit), (cls, "predict_proba", self._predict)]

    def _spanned(self, name, attrs, fn):
        t = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with t.span(name) as sp:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    sp.attrs.update(attrs(args, out))
                return out
        return wrapper

    def _fit(self, fn):
        t = self.tracer

        @functools.wraps(fn)
        def fit(model, X, y):
            with t.span("learners.fit", kind=model.kind, cv=t.inside("learners.cv")) as sp:
                out = fn(model, X, y)
                if hasattr(model, "n_iter_"):
                    sp.attrs["lr_iters"] = model.n_iter_
                return out
        return fit

    def _predict(self, fn):
        t = self.tracer

        @functools.wraps(fn)
        def predict_proba(model, X):
            with t.span("learners.predict", kind=model.kind, cv=t.inside("learners.cv")):
                return fn(model, X)
        return predict_proba

    def _adopting(self, fn):
        # The first parent-side call after the train stage: collect the
        # spans that worker processes attached to their results.
        t = self.tracer

        @functools.wraps(fn)
        def accuracy_table(cfg, results):
            for res in results.values():
                t.spans.extend(res.__dict__.pop("trace_spans", []))
            return fn(cfg, results)
        return accuracy_table

    @contextmanager
    def installed(self):
        """Wrap the slidebench attributes for the duration of the block."""
        global _active, _fit_one
        _active, _fit_one = self.tracer, self._runner._fit_one
        saved = []
        try:
            for owner, attr, make in self._plan:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            _active = _fit_one = None


# -- per-call metrics from spans ---------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus the union of the
    intervals its child spans cover (children may overlap under jobs > 1)."""
    children: dict[tuple, list] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        clipped = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children[s.id]]
        own = s.duration - _covered([c for c in clipped if c[1] > c[0]])
        layer = s.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def layer_metrics(spans: list[Span], run_s: float, jobs: int) -> dict[str, float]:
    """The per-layer metrics of one traced `run_pipeline` call; absent ones are 0."""
    m: dict[str, float] = defaultdict(float)
    for s in spans:
        a, d = s.attrs, s.duration
        if s.name == "learners.cv":
            m[f"learners.cv_s.{a['kind']}"] += d
        elif s.name == "learners.fit":
            m[f"learners.fits.{a['kind']}"] += 1
            m["learners.lr_iters"] += a.get("lr_iters", 0)
            if not a["cv"]:
                m[f"learners.refit_s.{a['kind']}"] += d
        elif s.name == "learners.predict" and not a["cv"]:
            m[f"learners.predict_s.{a['kind']}"] += d
        elif s.name == "learners.grow_tree":
            m["learners.grow_tree_s"] += d
            m["learners.tree_nodes"] += a["nodes"]
        elif s.name == "learners.save_model":
            m["learners.save_model_s"] += d
            m["learners.model_mb"] += a["mb"]
        elif s.name in ("embeddings.read", "embeddings.write"):
            what = s.name.split(".")[1]
            m[f"embeddings.{what}_s"] += d
            m[f"embeddings.{what}_mb"] += a["mb"]
        elif s.name == "design.aggregate":
            m["design.aggregate_s"] += d
            m["design.patches"] += a["patches"]
        elif s.name == "design.save":
            m["design.save_s"] += d
        elif s.name == "metrics.report":
            m["metrics.report_s"] += d
        elif s.name in ("rocstats.delong", "rocstats.venkatraman"):
            m[f"{s.name}_s"] += d
        elif s.name == "svgplot.plot":
            m["svgplot.plot_s"] += d
        elif s.name == "tracker.track":
            m["tracker.events"] += 1
        elif s.name.startswith("runner.") and s.name[7:] in STAGES:
            m[f"{s.name}_s"] += d

    # Self time of extract: synthetic generation, or checking a precomputed
    # cache against the manifest once it has been read.
    extracts = {s.id: s.duration for s in spans if s.name == "embeddings.extract"}
    m["embeddings.generate_s"] = sum(extracts.values()) - sum(
        s.duration for s in spans if s.name == "embeddings.read" and s.parent in extracts
    )
    tasks = [s.duration for s in spans if s.name == "runner.fit_task"]
    m["runner.critical_task_s"] = max(tasks, default=0.0)
    train_s = m["runner.train_s"]
    m["runner.worker_util"] = sum(tasks) / (jobs * train_s) if train_s > 0 else 0.0
    for layer, secs in self_seconds(spans).items():
        m[f"self_s.{layer}"] = secs
    m["trace.run_s"] = run_s
    m["trace.stage_share"] = sum(m[f"runner.{st}_s"] for st in STAGES) / run_s
    return dict(m)

