"""Benchmark of slidebench's end-to-end pipeline.

    python3 perfbench/run.py --workload fit_serial --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Set-up imports slidebench from `src/`,
writes the workload's generated inputs several times (the median counts)
and makes one warm-up `run_pipeline` call. The measured phase then calls
`run_pipeline` in this process until `--seconds` have passed, checks the
outputs of every call, and removes its work directories. The last line of
stdout is one JSON object: end-to-end metrics with `--trace 0`, per-layer
metrics from spans with `--trace 1` (traced and untraced calls alternate,
so the tracing overhead is measured in the same run).

`slidebench.patches`, `slidebench.cli` and the tracker's webhook sink are
on no measured path: the benchmark calls the pipeline in-process, the
synthetic and precomputed backends never tile patches, and no webhook is
configured.
"""

import os
import time

_STARTED = time.perf_counter()
# One BLAS/OpenMP thread per process, set before numpy loads, so that
# jobs x threads stays within the cores the benchmark asks for.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUTPUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 3


def import_program():
    """Import slidebench from this checkout's `src/`, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import slidebench
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import slidebench from {src}: {exc}")
    if Path(slidebench.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: imported slidebench from {slidebench.__file__}, not from {src}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from `.git` without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Bench:
    """One workload at one seed: inputs in `work`, calls, checks, samples."""

    def __init__(self, workload, seed: int, work: Path):
        from checks import expected_files
        from slidebench.categories import CLASSIFIED_CATEGORIES
        from slidebench.manifest import effective_split, filter_categories

        self.work = work
        self.cfg = workload.config(work, seed)
        slides, _ = effective_split(filter_categories(workload.manifest(seed), CLASSIFIED_CATEGORIES))
        self.expected = expected_files(self.cfg, [m.file for m in slides])
        self.reference: dict | None = None
        self.attempted = self.failed = 0

    def call(self, tracer=None) -> dict | None:
        """One checked `run_pipeline` call; None when it failed."""
        from checks import CheckFailed, compare_digests, check_run
        from slidebench import runner
        from tracing import Instrumentation

        self.attempted += 1
        try:
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            if tracer is None:
                runner.run_pipeline(self.cfg)
            else:
                with Instrumentation(tracer).installed(), tracer.span("runner.run_pipeline"):
                    runner.run_pipeline(self.cfg)
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
            digests = check_run(self.cfg, self.expected)
            if self.reference is None:
                self.reference = digests
            compare_digests(digests, self.reference, "the first run (determinism)")
            return {"run_s": wall, "cpu_s": cpu, "disk_mb": tree_bytes(self.work / "run") / 1e6,
                    "digests": digests}
        except CheckFailed as exc:
            print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        except Exception:  # a failing call is counted, and the run goes on
            traceback.print_exc()
        finally:
            shutil.rmtree(self.work / "run", ignore_errors=True)
        self.failed += 1
        return None


def check_reference(name: str, digests: dict, record: bool) -> None:
    from checks import compare_digests, reference_digests

    recorded = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    if record:
        recorded[name] = reference_digests(digests)
        REFERENCE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    elif name not in recorded:
        raise SystemExit(f"perfbench: no reference recorded for {name}")
    else:
        compare_digests(reference_digests(digests), recorded[name], f"the seed-{REFERENCE_SEED} reference")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store the outputs of --seed {REFERENCE_SEED} as the reference")
    args = parser.parse_args(argv)

    import_program()
    from checks import CheckFailed
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _STARTED
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.record_reference and args.seed != REFERENCE_SEED:
        parser.error(f"--record-reference needs --seed {REFERENCE_SEED}")
    workload = WORKLOADS[args.workload]
    env = environment()
    if workload.jobs > env["nproc"]:
        raise SystemExit(f"perfbench: {workload.name} runs {workload.jobs} jobs but only {env['nproc']} cores are usable")

    work = OUTPUT / "work" / f"{workload.name}-{os.getpid()}"
    work.parent.mkdir(parents=True, exist_ok=True)
    # Inputs, one cache copy per call and headroom for the rest of the outputs.
    need_mb = 3 * workload.source_mb() + 200
    free_mb = shutil.disk_usage(work.parent).free / 1e6
    if free_mb < need_mb:
        raise SystemExit(f"perfbench: {workload.name} needs about {need_mb:.0f} MB free under "
                         f"{work.parent}, only {free_mb:.0f} MB are")

    try:
        prepare_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.prepare(work, args.seed)
            prepare_s.append(time.perf_counter() - t0)
        bench = Bench(workload, args.seed, work)
        warm = bench.call()
        if warm is None:
            raise SystemExit("perfbench: the warm-up run failed")
        setup_s = import_s + statistics.median(prepare_s) + warm["run_s"]
        try:
            if args.seed == REFERENCE_SEED:
                check_reference(workload.name, warm["digests"], args.record_reference)
            reference_ok = True
        except CheckFailed as exc:
            print(f"perfbench: output check failed: {exc}", file=sys.stderr)
            reference_ok = False

        samples, traced, spans = [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:  # at least one untraced (and one traced) call, then until the deadline
            sample = bench.call()
            if sample is not None:
                samples.append(sample)
            if args.trace:
                tracer = Tracer()
                sample = bench.call(tracer)
                if sample is not None:
                    traced.append(layer_metrics(tracer.spans, sample["run_s"], workload.jobs))
                    spans.extend(dict(s.to_dict(), call=len(traced)) for s in tracer.spans)
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not samples or (args.trace and not traced):
        raise SystemExit("perfbench: no call succeeded")
    run_s = [s["run_s"] for s in samples]
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    end_to_end = {
        "run_s": statistics.median(run_s),
        "run_s_p90": statistics.quantiles(run_s, n=10, method="inclusive")[-1] if len(run_s) > 1 else run_s[0],
        "cpu_s": statistics.median([s["cpu_s"] for s in samples]),
        "peak_rss_mb": (own.ru_maxrss + kids.ru_maxrss) / 1024,
        "disk_written_mb": statistics.median([s["disk_mb"] for s in samples]),
        "ok_rate": (bench.attempted - bench.failed) / bench.attempted,
        "setup_s": setup_s,
    }

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        values = {n: statistics.median([t.get(n, 0.0) for t in traced])
                  for n in (m["name"] for m in benchmark["per_layer"])}
        values["trace.overhead_s"] = statistics.median([t["trace.run_s"] for t in traced]) - end_to_end["run_s"]
    else:
        values = end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in benchmark["per_layer" if args.trace else "end_to_end"]}

    result = {
        "correct": reference_ok and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUTPUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    (OUTPUT / "results" / f"{stem}.json").write_text(
        json.dumps({"env": env, "workload": workload.name, "seed": args.seed, "calls": len(run_s),
                    "traced_calls": len(traced), "run_s_samples": run_s, "end_to_end": end_to_end,
                    "result": result}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if spans:
        (OUTPUT / "results" / f"{stem}-spans.jsonl").write_text(
            "".join(json.dumps(s, sort_keys=True) + "\n" for s in spans), encoding="utf-8")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"{workload.name} seed={args.seed}: {len(run_s)} untraced calls, {len(traced)} traced, "
          f"{bench.failed} of {bench.attempted} failed (error_rate {bench.failed / bench.attempted:.3f})")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:12.6g} {m['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
