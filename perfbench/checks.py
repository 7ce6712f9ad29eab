"""Output checks applied to every benchmarked `run_pipeline` call."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


class CheckFailed(Exception):
    """The outputs of a call are incomplete, inconsistent or wrong."""


def expected_files(cfg, slide_ids: list[str]) -> tuple[set[str], set[str]]:
    """Relative paths a complete run leaves under out_dir and cache_dir."""
    out = {"run_meta.json", cfg.tracker_jsonl, "accuracy_table.json", "f1_table.json", "comparison.json"}
    cache = set()
    for b in cfg.backends:
        out.add(f"{b.name}/design.dmat")
        for kind in cfg.classifiers:
            out |= {
                f"{b.name}/cv/{kind}.json",
                f"{b.name}/models/{kind}.modl",
                f"{b.name}/reports/{kind}.json",
                f"{b.name}/predictions/{kind}.json",
                f"{b.name}/plots/{kind}_roc.svg",
                f"{b.name}/plots/{kind}_pr.svg",
            }
        cache |= {f"{b.name}/{sid}.embc" for sid in slide_ids}
    return out, cache


def _listing(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_run(cfg, expected: tuple[set[str], set[str]]) -> dict[str, str]:
    """Check one finished run; returns digests of its deterministic outputs.

    The digests cover every document under out_dir except the event log,
    whose lines carry timestamps, plus the predicted labels (argmax of the
    test probabilities).
    """
    out, cache = Path(cfg.out_dir), Path(cfg.cache_dir)
    status = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))["status"]
    if status != "complete":
        raise CheckFailed(f"run status is {status!r}")
    for root, want in ((out, expected[0]), (cache, expected[1])):
        got = _listing(root)
        if got != want:
            raise CheckFailed(
                f"{root.name}: {len(want - got)} file(s) missing, {len(got - want)} unexpected "
                f"(e.g. {sorted(want - got)[:2]} / {sorted(got - want)[:2]})"
            )

    digests = {
        name: _sha((out / name).read_bytes()) for name in sorted(expected[0]) if name != cfg.tracker_jsonl
    }
    table = json.loads((out / "accuracy_table.json").read_text(encoding="utf-8"))
    labels = {}
    for b in cfg.backends:
        for kind in cfg.classifiers:
            pred = json.loads((out / b.name / "predictions" / f"{kind}.json").read_text(encoding="utf-8"))
            predicted = [max(range(len(p)), key=p.__getitem__) for p in pred["proba"]]
            hits = sum(p == t for p, t in zip(predicted, pred["y_true"]))
            reported = next(r["accuracy"][b.name] for r in table["rows"] if r["kind"] == kind)
            if reported != hits / len(predicted):
                raise CheckFailed(f"{b.name}/{kind}: table accuracy {reported} disagrees with predictions")
            labels[f"{b.name}/{kind}"] = predicted
    digests["predicted_labels"] = _sha(json.dumps(labels, sort_keys=True).encode())
    return digests


def compare_digests(got: dict[str, str], want: dict[str, str], what: str) -> None:
    diff = sorted(k for k in want.keys() | got.keys() if got.get(k) != want.get(k))
    if diff:
        raise CheckFailed(f"outputs differ from {what}: {', '.join(diff[:6])}")


def reference_digests(digests: dict[str, str]) -> dict[str, str]:
    """The subset recorded as the default seed's reference: tables and labels."""
    return {k: digests[k] for k in ("accuracy_table.json", "f1_table.json", "predicted_labels")}
