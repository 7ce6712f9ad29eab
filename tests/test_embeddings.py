"""Synthetic/precomputed backends and the binary embedding cache."""

import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from slidebench.categories import Category, EffectiveSubset
from slidebench.embeddings import (
    BackendSpec,
    CacheFormatError,
    EmbeddingMatrix,
    cache_path,
    class_directions,
    class_mean,
    extract,
    missing_caches,
    read_cache,
    write_cache,
)
from slidebench.manifest import SlideMeta
from slidebench.categories import Subset


def meta_for(file: str, category=Category.SQUAMOUS) -> SlideMeta:
    return SlideMeta(
        fullpath="", file=file, case_id="c", sub_block="b", block="B",
        diag_score=100, diag_type="", category=category, subset=Subset.TRAIN,
        staining="H&E",
    )


def synth(dim=32, sep=0.0, seed=1) -> BackendSpec:
    return BackendSpec(kind="synthetic", dim=dim, seed=seed, class_separation=sep)


class TestSyntheticBackend:
    def test_deterministic_per_slide(self):
        spec = synth()
        a = extract(spec, "s1", Category.BASALOID, EffectiveSubset.TRAIN, patch_count=7)
        b = extract(spec, "s1", Category.BASALOID, EffectiveSubset.TRAIN, patch_count=7)
        assert a.data.tobytes() == b.data.tobytes()

    def test_different_slides_differ(self):
        spec = synth()
        a = extract(spec, "s1", Category.BASALOID, EffectiveSubset.TRAIN, patch_count=7)
        b = extract(spec, "s2", Category.BASALOID, EffectiveSubset.TRAIN, patch_count=7)
        assert not np.array_equal(a.data, b.data)

    def test_shape_matches_dims(self):
        spec = synth(dim=1024)
        e = extract(spec, "s", Category.SQUAMOUS, EffectiveSubset.TEST, patch_count=3000)
        assert e.data.shape == (3000, 1024)
        spec = synth(dim=1280)
        e = extract(spec, "s", Category.SQUAMOUS, EffectiveSubset.TEST, patch_count=10)
        assert e.data.shape == (10, 1280)

    def test_zero_patches_rejected(self):
        with pytest.raises(ValueError, match="patch count"):
            extract(synth(), "s", Category.BASALOID, EffectiveSubset.TRAIN, patch_count=0)

    def test_values_finite(self):
        e = extract(synth(sep=8.0), "s", Category.MELANOCYTIC, EffectiveSubset.TRAIN, patch_count=50)
        assert np.all(np.isfinite(e.data))

    def test_class_directions_orthonormal(self):
        dirs = class_directions(3, 64)
        gram = dirs @ dirs.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)
        # One array per (seed, dim), shared by every slide: read-only.
        assert class_directions(3, 64) is dirs
        assert not dirs.flags.writeable

    def test_coordinate_means_match_configured(self):
        # Empirical coordinate means approach the configured class mean.
        spec = synth(dim=48, sep=4.0, seed=9)
        rows = []
        for i in range(300):
            e = extract(spec, f"s{i}", Category.BASALOID, EffectiveSubset.TRAIN, patch_count=40)
            rows.append(e.data)
        all_patches = np.vstack(rows)  # 12000 samples >= 1e4
        expected = class_mean(Category.BASALOID, 48, 4.0, seed=9)
        assert np.abs(all_patches.mean(axis=0) - expected).max() < 0.05

    def test_separation_orders_distances(self):
        # Inter-class centroid distances exceed intra-class slide distances
        # when the separation is large; computed directly on generated data.
        spec = synth(dim=64, sep=6.0, seed=2)
        cats = [Category.BASALOID, Category.MELANOCYTIC, Category.SQUAMOUS]
        means = {c: [] for c in cats}
        for i in range(100):
            c = cats[i % 3]
            e = extract(spec, f"s{i}", c, EffectiveSubset.TRAIN, patch_count=50)
            means[c].append(e.data.mean(axis=0))
        centroids = {c: np.mean(v, axis=0) for c, v in means.items()}
        inter = [
            np.linalg.norm(centroids[a] - centroids[b])
            for i, a in enumerate(cats)
            for b in cats[i + 1 :]
        ]
        intra = []
        for c in cats:
            arr = np.asarray(means[c])
            for i in range(len(arr)):
                for j in range(i + 1, len(arr)):
                    intra.append(np.linalg.norm(arr[i] - arr[j]))
        assert np.mean(inter) > np.mean(intra)

    def test_dim_must_fit_directions(self):
        with pytest.raises(ValueError, match="dim >= 3"):
            BackendSpec(kind="synthetic", dim=2, seed=0)


class TestCacheFormat:
    def make(self, slide_id="sl-1", m=5, d=8, seed=0) -> EmbeddingMatrix:
        rng = np.random.default_rng(seed)
        return EmbeddingMatrix(
            slide_id, rng.standard_normal((m, d)).astype(np.float32),
            Category.MELANOCYTIC, EffectiveSubset.TEST,
        )

    def test_round_trip_bit_exact(self, tmp_path):
        emb = self.make()
        path = write_cache(emb, tmp_path)
        back = read_cache(path)
        assert back.slide_id == emb.slide_id
        assert back.label is emb.label
        assert back.subset is emb.subset
        assert back.data.tobytes() == emb.data.tobytes()

    def test_rewrite_identical_bytes(self, tmp_path):
        emb = self.make()
        p1 = write_cache(emb, tmp_path / "a")
        p2 = write_cache(emb, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        emb = self.make()
        path = write_cache(emb, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheFormatError, match="bad magic"):
            read_cache(path)

    def test_bad_version(self, tmp_path):
        path = write_cache(self.make(), tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheFormatError, match="unsupported version"):
            read_cache(path)

    def test_truncated_payload(self, tmp_path):
        path = write_cache(self.make(m=4, d=16), tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 40])
        with pytest.raises(CacheFormatError, match="truncated"):
            read_cache(path)

    def test_corrupt_payload_crc(self, tmp_path):
        path = write_cache(self.make(), tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF  # flip a payload byte, keep length
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheFormatError, match="checksum"):
            read_cache(path)

    def test_trailing_garbage(self, tmp_path):
        path = write_cache(self.make(), tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(CacheFormatError):
            read_cache(path)

    def test_utf8_slide_id(self, tmp_path):
        emb = self.make(slide_id="slide-ü-1")
        back = read_cache(write_cache(emb, tmp_path))
        assert back.slide_id == "slide-ü-1"

    def test_header_layout(self, tmp_path):
        emb = self.make(slide_id="ab", m=2, d=3)
        blob = write_cache(emb, tmp_path).read_bytes()
        assert blob[:4] == b"EMBC"
        assert struct.unpack("<I", blob[4:8])[0] == 1
        assert struct.unpack("<H", blob[8:10])[0] == 2
        assert blob[10:12] == b"ab"
        label, subset = struct.unpack("<BB", blob[12:14])
        assert label == Category.MELANOCYTIC.value
        assert subset == EffectiveSubset.TEST.value
        m, d = struct.unpack("<II", blob[14:22])
        assert (m, d) == (2, 3)
        payload = blob[22:-4]
        assert len(payload) == 2 * 3 * 4
        assert struct.unpack("<I", blob[-4:])[0] == zlib.crc32(payload) & 0xFFFFFFFF


class TestPrecomputedBackend:
    def test_reads_from_source_dir(self, tmp_path):
        rng = np.random.default_rng(0)
        emb = EmbeddingMatrix(
            "s1", rng.standard_normal((4, 6)).astype(np.float32),
            Category.BASALOID, EffectiveSubset.TRAIN,
        )
        write_cache(emb, tmp_path)
        spec = BackendSpec(kind="precomputed", dim=6, source_dir=tmp_path)
        back = extract(spec, "s1", Category.BASALOID, EffectiveSubset.TRAIN)
        assert back.data.tobytes() == emb.data.tobytes()

    def test_missing_file(self, tmp_path):
        spec = BackendSpec(kind="precomputed", dim=6, source_dir=tmp_path)
        with pytest.raises(CacheFormatError, match="missing embedding cache"):
            extract(spec, "absent", Category.BASALOID, EffectiveSubset.TRAIN)

    def test_label_mismatch(self, tmp_path):
        rng = np.random.default_rng(0)
        emb = EmbeddingMatrix(
            "s1", rng.standard_normal((4, 6)).astype(np.float32),
            Category.BASALOID, EffectiveSubset.TRAIN,
        )
        write_cache(emb, tmp_path)
        spec = BackendSpec(kind="precomputed", dim=6, source_dir=tmp_path)
        with pytest.raises(CacheFormatError, match="disagree with manifest"):
            extract(spec, "s1", Category.SQUAMOUS, EffectiveSubset.TRAIN)

    def test_dim_mismatch(self, tmp_path):
        rng = np.random.default_rng(0)
        emb = EmbeddingMatrix(
            "s1", rng.standard_normal((4, 6)).astype(np.float32),
            Category.BASALOID, EffectiveSubset.TRAIN,
        )
        write_cache(emb, tmp_path)
        spec = BackendSpec(kind="precomputed", dim=8, source_dir=tmp_path)
        with pytest.raises(CacheFormatError, match="backend expects"):
            extract(spec, "s1", Category.BASALOID, EffectiveSubset.TRAIN)

    def test_requires_source_dir(self):
        with pytest.raises(ValueError, match="source_dir"):
            BackendSpec(kind="precomputed", dim=6)


class TestScanCache:
    def test_full_coverage(self, tmp_path):
        manifest = [meta_for(f"s{i}") for i in range(5)]
        rng = np.random.default_rng(0)
        for m in manifest:
            write_cache(
                EmbeddingMatrix(m.file, rng.standard_normal((2, 4)).astype(np.float32),
                                m.category, EffectiveSubset.TRAIN),
                tmp_path,
            )
        assert missing_caches(tmp_path, manifest) == []

    def test_empty_directory_all_missing(self, tmp_path):
        manifest = [meta_for(f"s{i}") for i in range(4)]
        assert missing_caches(tmp_path / "nope", manifest) == [m.file for m in manifest]

    def test_deleted_subset_counted(self, tmp_path):
        manifest = [meta_for(f"s{i}") for i in range(20)]
        rng = np.random.default_rng(0)
        for m in manifest:
            write_cache(
                EmbeddingMatrix(m.file, rng.standard_normal((2, 4)).astype(np.float32),
                                m.category, EffectiveSubset.TRAIN),
                tmp_path,
            )
        for i in range(13):
            cache_path(tmp_path, f"s{i}").unlink()
        assert missing_caches(tmp_path, manifest) == [f"s{i}" for i in range(13)]

    def test_orphans_listed(self, tmp_path):
        manifest = [meta_for("s0")]
        rng = np.random.default_rng(0)
        for sid in ("s0", "zzz"):
            write_cache(
                EmbeddingMatrix(sid, rng.standard_normal((2, 4)).astype(np.float32),
                                Category.SQUAMOUS, EffectiveSubset.TRAIN),
                tmp_path,
            )
        assert missing_caches(tmp_path, manifest) == []
