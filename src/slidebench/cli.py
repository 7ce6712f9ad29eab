"""Command-line interface for the benchmarking pipeline.

`run` executes every pipeline stage. Each stage command runs ingest plus
the stages that command needs (`_STAGE_COMMANDS`) through the same
`run_pipeline` call, so it too writes `run_meta.json` and appends to
`events.jsonl`. Flags override config-file values. Exit code 0 on
success, 2 on any failure, with a stage-tagged message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .categories import CLASSIFIED_CATEGORIES, Category, EffectiveSubset, Subset
from .config import ConfigError, RunConfig, derive_seed, load_config
from .fixture import paper_manifest
from .learners import ClassifierSpec, KINDS
from .manifest import category_counts, effective_split, filter_categories, parse_manifest, write_manifest
from .fileio import write_json
from .runner import STAGES, StageError, emit_curve_plot, learning_curve, run_pipeline

# Subcommand -> (help, the stages of `run_pipeline` it runs). `train` fits,
# saves and scores the models on the test split in one pass.
_STAGE_COMMANDS = {
    "extract": ("compute and cache embeddings for every backend", ("ingest", "extract")),
    "aggregate": ("aggregate caches into design matrices", ("ingest", "aggregate")),
    "train": ("cross-validate, train and evaluate all configured classifiers", ("ingest", "aggregate", "train")),
    "compare": ("run the paired statistical comparison of two backends", ("ingest", "compare")),
    "plot": ("regenerate SVG plots from report files", ("ingest", "plot")),
    "run": ("execute the full pipeline end to end", STAGES),
}


def _add_config_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="path to the JSON run configuration")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--out-dir", default=None, help="override the output directory")
    sub.add_argument("--cache-dir", default=None, help="override the cache directory")
    sub.add_argument("--manifest", default=None, help="override the manifest path")
    sub.add_argument("--jobs", type=int, default=None, help="override worker process count")


def _load(args: argparse.Namespace) -> RunConfig:
    overrides = {
        "seed": args.seed,
        "out_dir": args.out_dir,
        "cache_dir": args.cache_dir,
        "manifest": args.manifest,
        "jobs": args.jobs,
    }
    return load_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slidebench",
        description="Slide-level classification benchmark over pluggable embedding backends",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and validate a manifest, print counts")
    p.add_argument("--manifest", required=True)
    p.add_argument("--delimiter", default=",")

    for name, (help_text, _stages) in _STAGE_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_config_arg(p)

    p = sub.add_parser("learning-curve", help="train/test accuracy versus training size")
    _add_config_arg(p)
    p.add_argument("--classifier", required=True, choices=KINDS)
    p.add_argument("--backend", default=None, help="backend name (default: first configured)")
    p.add_argument("--sizes", default=None, help="comma-separated size grid")
    p.add_argument("--repeats", type=int, default=None)

    p = sub.add_parser("fixture", help="write a paper-shaped synthetic manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classified-only", action="store_true", help="omit the excluded category")

    return parser


def _cmd_ingest(args: argparse.Namespace) -> None:
    manifest = parse_manifest(args.manifest, delimiter=args.delimiter)
    counts = category_counts(manifest)
    kept = filter_categories(manifest, CLASSIFIED_CATEGORIES)
    _, eff_counts = effective_split(kept)
    print(f"slides: {len(manifest)}")
    for cat in Category:
        print(f"  {cat.to_text()}: {counts[cat]}")
    print(f"classified: {len(kept)}")
    raw = {s: sum(1 for m in kept if m.subset is s) for s in Subset}
    print(f"subsets: train={raw[Subset.TRAIN]} validation={raw[Subset.VALIDATION]} test={raw[Subset.TEST]}")
    print(
        f"effective split: train={eff_counts[EffectiveSubset.TRAIN]} "
        f"test={eff_counts[EffectiveSubset.TEST]}"
    )


def _cmd_stagewise(args: argparse.Namespace) -> None:
    cfg = _load(args)
    if args.command == "compare" and len(cfg.backends) != 2:
        raise StageError("compare", "comparison requires exactly two configured backends")
    out = run_pipeline(cfg, _STAGE_COMMANDS[args.command][1])
    print(f"{args.command} complete: {out}")


def _cmd_learning_curve(args: argparse.Namespace) -> None:
    cfg = _load(args)
    backend = args.backend or cfg.backends[0].name
    if backend not in {b.name for b in cfg.backends}:
        raise ConfigError(f"unknown backend {backend!r}")
    cv_path = Path(cfg.out_dir) / backend / "cv" / f"{args.classifier}.json"
    if cv_path.exists():
        best = json.loads(cv_path.read_text(encoding="utf-8"))["best"]
        spec = ClassifierSpec(args.classifier, params=best["params"], seed=best["seed"])
    else:
        spec = ClassifierSpec(
            args.classifier, seed=derive_seed(cfg.seed, f"train:{args.classifier}")
        )
    sizes = [int(s) for s in args.sizes.split(",")] if args.sizes else None
    curve = learning_curve(cfg, backend, spec, sizes=sizes, repeats=args.repeats)
    out_dir = Path(cfg.out_dir) / backend / "curves"
    write_json(out_dir / f"{args.classifier}.json", curve)
    emit_curve_plot(curve, out_dir, args.classifier)
    for size, acc in zip(curve.sizes, curve.test_accuracy):
        print(f"size {size}: test accuracy {acc:.3f}")


def _cmd_fixture(args: argparse.Namespace) -> None:
    manifest = paper_manifest(seed=args.seed, include_other=not args.classified_only)
    write_manifest(manifest, args.out)
    print(f"wrote {len(manifest)}-slide manifest to {args.out}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "ingest":
            _cmd_ingest(args)
        elif args.command == "learning-curve":
            _cmd_learning_curve(args)
        elif args.command == "fixture":
            _cmd_fixture(args)
        else:
            _cmd_stagewise(args)
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        stage = args.command if hasattr(args, "command") else "config"
        print(f"[{stage}] {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
