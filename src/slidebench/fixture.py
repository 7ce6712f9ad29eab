"""Synthetic manifest generation shaped like the production dataset.

Builds a 960-slide manifest with category counts 126/263/325/246
(basaloid/melanocytic/squamous/other) whose 714 classified slides split
498/108/108 across train/validation/test, stratified per category.
"""

from __future__ import annotations

import numpy as np

from .categories import Category, Subset
from .manifest import Manifest, SlideMeta

DEFAULT_CATEGORY_COUNTS = {
    Category.BASALOID: 126,
    Category.MELANOCYTIC: 263,
    Category.SQUAMOUS: 325,
    Category.OTHER: 246,
}
DEFAULT_SUBSET_COUNTS = {Subset.TRAIN: 498, Subset.VALIDATION: 108, Subset.TEST: 108}

_DIAG_TYPES = {
    Category.BASALOID: "basal cell carcinoma",
    Category.MELANOCYTIC: "junctional nevus with severe atypia",
    Category.SQUAMOUS: "squamous cell carcinoma in situ",
    Category.OTHER: "dermatitis",
}


def largest_remainder(quotas: list[float], total: int) -> list[int]:
    """Each quota's floor, plus one for the largest remainders (ties to the
    lower index) until the counts sum to `total`."""
    floors = [int(np.floor(q)) for q in quotas]
    order = sorted(range(len(quotas)), key=lambda i: (-(quotas[i] - floors[i]), i))
    for i in order[: total - sum(floors)]:
        floors[i] += 1
    return floors


def subset_allocation(
    category_counts: dict[Category, int],
    subset_counts: dict[Subset, int],
) -> dict[Category, dict[Subset, int]]:
    """Per-category subset counts, stratified by largest remainder."""
    classified = [c for c in category_counts if c is not Category.OTHER]
    n_classified = sum(category_counts[c] for c in classified)
    if sum(subset_counts.values()) != n_classified:
        raise ValueError(
            f"subset counts sum to {sum(subset_counts.values())}, "
            f"but {n_classified} classified slides exist"
        )
    alloc: dict[Category, dict[Subset, int]] = {c: {} for c in category_counts}
    remaining = {c: category_counts[c] for c in classified}
    subsets = list(subset_counts)
    for s in subsets[:-1]:
        quotas = [category_counts[c] * subset_counts[s] / n_classified for c in classified]
        counts = largest_remainder(quotas, subset_counts[s])
        for c, k in zip(classified, counts):
            alloc[c][s] = k
            remaining[c] -= k
    for c in classified:
        alloc[c][subsets[-1]] = remaining[c]
    # The excluded category gets proportional subsets for realism.
    n_other = category_counts.get(Category.OTHER, 0)
    if n_other:
        quotas = [n_other * subset_counts[s] / sum(subset_counts.values()) for s in subsets]
        counts = largest_remainder(quotas, n_other)
        alloc[Category.OTHER] = dict(zip(subsets, counts))
    return alloc


def paper_manifest(
    seed: int = 0,
    category_counts: dict[Category, int] | None = None,
    subset_counts: dict[Subset, int] | None = None,
    include_other: bool = True,
) -> Manifest:
    """Deterministic synthetic manifest with the production row counts."""
    category_counts = dict(category_counts or DEFAULT_CATEGORY_COUNTS)
    subset_counts = dict(subset_counts or DEFAULT_SUBSET_COUNTS)
    if not include_other:
        category_counts.pop(Category.OTHER, None)
    alloc = subset_allocation(category_counts, subset_counts)

    entries: list[tuple[Category, Subset]] = []
    for c, per_subset in alloc.items():
        for s, k in per_subset.items():
            entries.extend([(c, s)] * k)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(entries))

    records: Manifest = []
    for row, idx in enumerate(order, start=1):
        category, subset = entries[idx]
        file_name = f"slide_{row:04d}"
        records.append(
            SlideMeta(
                fullpath=f"/archive/wsi/{file_name}.tar",
                file=file_name,
                case_id=f"case_{(row - 1) // 2:04d}",
                sub_block=f"B1-{1 + row % 3}",
                block="B",
                diag_score=100,
                diag_type=_DIAG_TYPES[category],
                category=category,
                subset=subset,
                staining="H&E",
            )
        )
    return records
