"""Paper-shaped synthetic manifest generation."""

import hashlib

from slidebench.categories import Category, Subset
from slidebench.fixture import paper_manifest, subset_allocation
from slidebench.manifest import category_counts, serialize_manifest


class TestPaperManifest:
    def test_default_counts(self):
        m = paper_manifest(seed=0)
        assert len(m) == 960
        counts = category_counts(m)
        assert counts[Category.BASALOID] == 126
        assert counts[Category.MELANOCYTIC] == 263
        assert counts[Category.SQUAMOUS] == 325
        assert counts[Category.OTHER] == 246

    def test_seed_zero_bytes_pinned(self):
        text = serialize_manifest(paper_manifest(seed=0))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "0a93cc5d0469e71669abc648bfa65c6bc875b0c164dca58f80877f763a7c8e15"
        )

    def test_classified_subset_totals(self):
        m = paper_manifest(seed=0)
        classified = [r for r in m if r.category is not Category.OTHER]
        per_subset = {s: sum(1 for r in classified if r.subset is s) for s in Subset}
        assert per_subset[Subset.TRAIN] == 498
        assert per_subset[Subset.VALIDATION] == 108
        assert per_subset[Subset.TEST] == 108

    def test_stratification_near_proportional(self):
        alloc = subset_allocation(
            {Category.BASALOID: 126, Category.MELANOCYTIC: 263, Category.SQUAMOUS: 325},
            {Subset.TRAIN: 498, Subset.VALIDATION: 108, Subset.TEST: 108},
        )
        for cat, total in ((Category.BASALOID, 126), (Category.MELANOCYTIC, 263), (Category.SQUAMOUS, 325)):
            for subset, want in ((Subset.TRAIN, 498), (Subset.VALIDATION, 108), (Subset.TEST, 108)):
                expected = total * want / 714
                assert abs(alloc[cat][subset] - expected) <= 1
            assert sum(alloc[cat].values()) == total

    def test_unique_files_and_determinism(self):
        m1 = paper_manifest(seed=3)
        m2 = paper_manifest(seed=3)
        assert [r.file for r in m1] == [r.file for r in m2]
        assert len({r.file for r in m1}) == len(m1)
        m3 = paper_manifest(seed=4)
        assert [r.category for r in m1] != [r.category for r in m3]

    def test_classified_only(self):
        m = paper_manifest(seed=0, include_other=False)
        assert len(m) == 714
        assert all(r.category is not Category.OTHER for r in m)
