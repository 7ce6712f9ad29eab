"""Mean aggregation, design-matrix assembly, and the DMAT file format."""

import numpy as np
import pytest

from slidebench.categories import Category, EffectiveSubset, Subset
from slidebench.design import (
    DesignError,
    DesignMatrix,
    build_design,
    load_design,
    mean_aggregate,
    save_design,
    split_design,
)
from slidebench.embeddings import BackendSpec, CacheFormatError, EmbeddingMatrix, extract, write_cache
from slidebench.manifest import SlideMeta


def emb(data, slide_id="s", label=Category.BASALOID, subset=EffectiveSubset.TRAIN):
    return EmbeddingMatrix(slide_id, np.asarray(data, dtype=np.float32), label, subset)


def meta(file, category=Category.SQUAMOUS, effective=EffectiveSubset.TRAIN):
    return SlideMeta(
        fullpath="", file=file, case_id="c", sub_block="b", block="B",
        diag_score=100, diag_type="", category=category,
        subset=Subset.TRAIN if effective is EffectiveSubset.TRAIN else Subset.TEST,
        staining="H&E", effective=effective,
    )


class TestMeanAggregate:
    def test_hand_arithmetic(self):
        out = mean_aggregate(emb([[1, 3], [3, 5]]))
        np.testing.assert_array_equal(out, np.asarray([2, 4], dtype=np.float32))

    def test_single_patch_identity(self):
        row = np.asarray([[0.25, -1.5, 3.0]], dtype=np.float32)
        np.testing.assert_array_equal(mean_aggregate(emb(row)), row[0])

    def test_constant_rows_exact(self):
        v = np.asarray([0.1, 0.2, 0.7], dtype=np.float32)
        out = mean_aggregate(emb(np.tile(v, (177, 1))))
        np.testing.assert_array_equal(out, v)

    def test_bit_deterministic(self):
        rng = np.random.default_rng(0)
        e = emb(rng.standard_normal((50, 16)))
        assert mean_aggregate(e).tobytes() == mean_aggregate(e).tobytes()

    def test_permutation_drift_small(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((200, 8)).astype(np.float32)
        base = mean_aggregate(emb(data))
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(200)
            other = mean_aggregate(emb(data[perm]))
            assert np.abs(base.astype(np.float64) - other.astype(np.float64)).max() < 1e-5

    @pytest.mark.parametrize(
        "m, d, zero_column",
        [(1, 5, True), (20_001, 1, False), (40, 1, True), (20_001, 3, True), (300, 160, True)],
    )
    def test_same_bytes_as_row_loop(self, m, d, zero_column):
        # The float64 sum runs in patch order from +0.0, as a loop does. The
        # second half of the rows cancels the first, so the mean is small
        # next to the running sums and the rounding of any other summation
        # order (numpy's pairwise sum, say) reaches the float32 result; an
        # all -0.0 column must come out +0.0.
        rng = np.random.default_rng(m + d)
        data = (rng.standard_normal((m, d)) * 10.0 ** rng.integers(-6, 12, (m, d))).astype(np.float32)
        data[m // 2 : 2 * (m // 2)] = -data[: m // 2]
        if zero_column:
            data[:, 0] = -0.0
        acc = np.zeros(d)
        for row in data:
            acc += row.astype(np.float64)
        expected = (acc / m).astype(np.float32)
        assert mean_aggregate(emb(data)).tobytes() == expected.tobytes()

    def test_mean_within_min_max_per_coordinate(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            data = rng.standard_normal((rng.integers(1, 40), 6)).astype(np.float32)
            out = mean_aggregate(emb(data))
            assert np.all(out >= data.min(axis=0) - 0)
            assert np.all(out <= data.max(axis=0) + 0)


class TestBuildDesign:
    def _populate(self, tmp_path, manifest, dim=16, backend_name="bk"):
        spec = BackendSpec(kind="synthetic", dim=dim, seed=3, class_separation=1.0)
        for m in manifest:
            e = extract(spec, m.file, m.category, m.effective, patch_count=5)
            write_cache(e, tmp_path / backend_name)

    def test_rows_in_manifest_order(self, tmp_path):
        manifest = [meta(f"s{i}") for i in range(6)]
        self._populate(tmp_path, manifest)
        dm = build_design(manifest, tmp_path, "bk", 16)
        assert dm.slide_ids == [m.file for m in manifest]
        assert dm.n == 6 and dm.d == 16

    def test_rows_equal_mean_aggregate(self, tmp_path):
        manifest = [meta(f"s{i}") for i in range(4)]
        self._populate(tmp_path, manifest)
        dm = build_design(manifest, tmp_path, "bk", 16)
        spec = BackendSpec(kind="synthetic", dim=16, seed=3, class_separation=1.0)
        for i, m in enumerate(manifest):
            e = extract(spec, m.file, m.category, m.effective, patch_count=5)
            np.testing.assert_array_equal(dm.rows[i], mean_aggregate(e))

    def test_missing_cache_names_slide(self, tmp_path):
        manifest = [meta(f"s{i}") for i in range(3)]
        self._populate(tmp_path, manifest)
        (tmp_path / "bk" / "s1.embc").unlink()
        with pytest.raises(DesignError, match="s1"):
            build_design(manifest, tmp_path, "bk", 16)

    def test_mixed_dimensions_rejected(self, tmp_path):
        manifest = [meta("s0"), meta("s1")]
        self._populate(tmp_path, [manifest[0]], dim=16)
        spec = BackendSpec(kind="synthetic", dim=8, seed=3, class_separation=1.0)
        e = extract(spec, "s1", manifest[1].category, manifest[1].effective, patch_count=5)
        write_cache(e, tmp_path / "bk")
        # Each cache is checked against the backend's d before it is aggregated.
        with pytest.raises(CacheFormatError, match=r"s1\.embc has d=8, backend expects 16"):
            build_design(manifest, tmp_path, "bk", 16)

    def test_other_labels_rejected(self):
        with pytest.raises(DesignError, match="other"):
            DesignMatrix(
                np.zeros((1, 2), dtype=np.float32),
                np.asarray([Category.OTHER.value], dtype=np.uint8),
                np.asarray([0], dtype=np.uint8),
                ["s"],
            )


class TestSplitDesign:
    def _dm(self, labels, subsets):
        n = len(labels)
        return DesignMatrix(
            np.arange(n * 2, dtype=np.float32).reshape(n, 2),
            np.asarray(labels, dtype=np.uint8),
            np.asarray(subsets, dtype=np.uint8),
            [f"s{i}" for i in range(n)],
        )

    def test_partition_counts(self):
        dm = self._dm([0, 1, 2, 0, 1], [0, 0, 1, 1, 0])
        tr, te = split_design(dm)
        assert tr.n == 3 and te.n == 2

    def test_all_train_raises(self):
        dm = self._dm([0, 1], [0, 0])
        with pytest.raises(DesignError, match="empty test partition"):
            split_design(dm)

    def test_all_test_raises(self):
        dm = self._dm([0, 1], [1, 1])
        with pytest.raises(DesignError, match="empty train partition"):
            split_design(dm)

    def test_concat_is_permutation_of_input(self):
        dm = self._dm([0, 1, 2, 0, 1, 2], [1, 0, 1, 0, 1, 0])
        tr, te = split_design(dm)
        combined = sorted(tr.slide_ids + te.slide_ids)
        assert combined == sorted(dm.slide_ids)
        assert tr.slide_ids == [s for s, sub in zip(dm.slide_ids, dm.subsets) if sub == 0]

    def test_order_preserved_within_parts(self):
        dm = self._dm([0, 1, 2, 0], [0, 1, 0, 1])
        tr, te = split_design(dm)
        assert tr.slide_ids == ["s0", "s2"]
        assert te.slide_ids == ["s1", "s3"]


class TestDesignFile:
    def _dm(self):
        rng = np.random.default_rng(5)
        return DesignMatrix(
            rng.standard_normal((7, 11)).astype(np.float32),
            rng.integers(0, 3, 7).astype(np.uint8),
            rng.integers(0, 2, 7).astype(np.uint8),
            [f"slide-{i}" for i in range(7)],
        )

    def test_round_trip(self, tmp_path):
        dm = self._dm()
        path = save_design(dm, tmp_path / "d.dmat")
        back = load_design(path)
        assert back.slide_ids == dm.slide_ids
        np.testing.assert_array_equal(back.rows, dm.rows)
        np.testing.assert_array_equal(back.labels, dm.labels)
        np.testing.assert_array_equal(back.subsets, dm.subsets)

    def test_rewrite_identical_bytes(self, tmp_path):
        dm = self._dm()
        p1 = save_design(dm, tmp_path / "a.dmat")
        back = load_design(p1)
        p2 = save_design(back, tmp_path / "b.dmat")
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = save_design(self._dm(), tmp_path / "d.dmat")
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(DesignError, match="bad magic"):
            load_design(path)

    def test_corruption_detected(self, tmp_path):
        path = save_design(self._dm(), tmp_path / "d.dmat")
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0x55
        path.write_bytes(bytes(blob))
        with pytest.raises(DesignError, match="checksum"):
            load_design(path)

    def test_truncation_detected(self, tmp_path):
        path = save_design(self._dm(), tmp_path / "d.dmat")
        blob = path.read_bytes()
        path.write_bytes(blob[:30])
        with pytest.raises(DesignError):
            load_design(path)
