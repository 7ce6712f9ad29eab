"""Tiling, resize, augmentation, and normalization."""

import numpy as np
import pytest

from slidebench.patches import (
    AugmentationSpec,
    NormalizationParams,
    Transform,
    augment,
    denormalize,
    grid_shape,
    normalize,
    resize,
    tile,
    transform,
)


def checker(h, w, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((h, w, 3))


class TestTile:
    def test_exact_grid(self):
        tiles = tile(checker(1024, 1024), 512)
        assert len(tiles) == 4
        assert all(t.shape == (512, 512, 3) for t in tiles)

    def test_identity_tile(self):
        img = checker(512, 512)
        tiles = tile(img, 512)
        assert len(tiles) == 1
        np.testing.assert_array_equal(tiles[0], img)

    def test_partial_column_dropped(self):
        tiles = tile(checker(512, 1023), 512)
        assert len(tiles) == 1

    def test_too_small_gives_empty(self, caplog):
        with caplog.at_level("WARNING"):
            assert tile(checker(100, 100), 512) == []
        assert "smaller than tile size" in caplog.text

    def test_grid_count_formula(self):
        for (h, w, ts, st) in [(1024, 1024, 512, 512), (700, 900, 256, 128), (512, 512, 512, 1)]:
            tiles = tile(checker(h, w), ts, stride=st)
            rows, cols = grid_shape(h, w, ts, st)
            assert len(tiles) == rows * cols == ((h - ts) // st + 1) * ((w - ts) // st + 1)

    def test_row_major_order(self):
        img = np.zeros((4, 4, 3))
        img[:2, 2:, :] = 0.25
        img[2:, :2, :] = 0.5
        img[2:, 2:, :] = 0.75
        tiles = tile(img, 2)
        means = [t.mean() for t in tiles]
        assert means == [0.0, 0.25, 0.5, 0.75]

    def test_background_filter(self):
        img = np.ones((4, 4, 3)) * 0.99  # near-white glass
        img[2:, 2:, :] = 0.3
        kept = tile(img, 2, drop_background=True)
        assert len(kept) == 1
        assert kept[0].mean() == pytest.approx(0.3)

    def test_uint8_input_converted(self):
        img = np.full((2, 2, 3), 255, dtype=np.uint8)
        tiles = tile(img, 2)
        assert tiles[0].max() == 1.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            tile(checker(8, 8), 0)
        with pytest.raises(ValueError):
            tile(checker(8, 8), 4, stride=0)


class TestResize:
    def test_512_to_224(self):
        out = resize(checker(512, 512))
        assert out.shape == (224, 224, 3)

    def test_same_size_identity(self):
        img = checker(224, 224)
        np.testing.assert_allclose(resize(img), img, atol=1e-6)

    def test_constant_maps_to_constant(self):
        for h, w in [(17, 33), (512, 512), (224, 100)]:
            out = resize(np.full((h, w, 3), 0.5))
            np.testing.assert_allclose(out, 0.5, atol=1e-12)

    def test_values_stay_in_hull(self):
        out = resize(checker(61, 47))
        assert out.min() >= 0.0 - 1e-12
        assert out.max() <= 1.0 + 1e-12


class TestAugment:
    def test_hflip_involution(self):
        img = checker(16, 16)
        spec = AugmentationSpec((transform("hflip", p=1.0),), seed=1)
        once = augment(img, spec)
        twice = augment(once, spec)
        np.testing.assert_array_equal(twice, img)

    def test_vflip_involution(self):
        img = checker(16, 16)
        spec = AugmentationSpec((transform("vflip", p=1.0),), seed=1)
        np.testing.assert_array_equal(augment(augment(img, spec), spec), img)

    def test_zero_noise_is_identity(self):
        img = checker(16, 16)
        spec = AugmentationSpec((transform("gaussian_noise", sigma=0.0),), seed=3)
        np.testing.assert_array_equal(augment(img, spec), img)

    def test_full_rotation_near_identity(self):
        img = checker(32, 32)
        spec = AugmentationSpec((transform("affine", rotate=360.0),), seed=0)
        np.testing.assert_allclose(augment(img, spec), img, atol=1e-3)

    def test_affine_identity_params(self):
        img = checker(20, 20)
        spec = AugmentationSpec((transform("affine"),), seed=0)
        np.testing.assert_allclose(augment(img, spec), img, atol=1e-12)

    def test_seed_determinism(self):
        img = checker(24, 24)
        spec = AugmentationSpec(
            (
                transform("hflip", p=0.5),
                transform("gaussian_noise", sigma=0.1),
                transform("brightness_contrast", brightness=0.05, contrast=0.1),
            ),
            seed=42,
        )
        a = augment(img, spec)
        b = augment(img, spec)
        assert a.tobytes() == b.tobytes()

    def test_different_seed_differs(self):
        img = checker(24, 24)
        t = (transform("gaussian_noise", sigma=0.1),)
        a = augment(img, AugmentationSpec(t, seed=1))
        b = augment(img, AugmentationSpec(t, seed=2))
        assert not np.array_equal(a, b)

    def test_noise_and_brightness_clamped(self):
        img = checker(16, 16)
        spec = AugmentationSpec(
            (transform("gaussian_noise", sigma=5.0), transform("brightness_contrast", brightness=0.9)),
            seed=5,
        )
        out = augment(img, spec)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_blurs_preserve_constant(self):
        img = np.full((16, 16, 3), 0.25)
        for t in (
            transform("motion_blur", k=5),
            transform("median_blur", k=3),
            transform("gaussian_blur", k=5, sigma=1.0),
        ):
            out = augment(img, AugmentationSpec((t,), seed=0))
            np.testing.assert_allclose(out, 0.25, atol=1e-12)

    def test_kernel_size_one_is_identity(self):
        img = checker(12, 12)
        for t in (
            transform("motion_blur", k=1),
            transform("median_blur", k=1),
            transform("gaussian_blur", k=1, sigma=1.0),
        ):
            out = augment(img, AugmentationSpec((t,), seed=0))
            np.testing.assert_array_equal(out, img)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            transform("median_blur", k=4)

    def test_unknown_transform_rejected(self):
        with pytest.raises(ValueError, match="unknown transform"):
            transform("solarize", p=1.0)

    @pytest.mark.parametrize(
        "kind, params, name",
        [
            ("affine", {"rotation": 30.0}, "rotation"),
            ("gaussian_blur", {"k": 5, "sgima": 2.0}, "sgima"),
            ("motion_blur", {"k": 3, "sigma": 1.0}, "sigma"),
            ("hflip", {"p": 1.0, "q": 0.5}, "q"),
        ],
    )
    def test_unknown_parameter_rejected(self, kind, params, name):
        with pytest.raises(ValueError, match=f"transform '{kind}' has no parameter '{name}'"):
            transform(kind, **params)

    def test_transform_built_directly_is_checked_when_applied(self):
        with pytest.raises(ValueError, match="has no parameter 'rotation'"):
            augment(checker(8, 8), AugmentationSpec((Transform("affine", (("rotation", 30.0),)),)))

    def test_transform_order_matters(self):
        img = checker(16, 16)
        t1 = transform("brightness_contrast", brightness=0.3, contrast=0.0)
        t2 = transform("gaussian_blur", k=5, sigma=2.0)
        a = augment(img, AugmentationSpec((t1, t2), seed=0))
        b = augment(img, AugmentationSpec((t2, t1), seed=0))
        assert not np.array_equal(a, b)


class TestNormalize:
    def test_zero_points_of_channel_means(self):
        img = np.zeros((2, 2, 3))
        img[..., 0] = 0.485
        img[..., 1] = 0.456
        img[..., 2] = 0.406
        out = normalize(img)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_green_channel_value_one(self):
        img = np.ones((1, 1, 3))
        out = normalize(img)
        # (1.0 - 0.456) / 0.224, hand arithmetic
        assert out[0, 0, 1] == pytest.approx(2.428571, abs=1e-6)

    def test_denormalize_inverts(self):
        img = checker(8, 8)
        np.testing.assert_allclose(denormalize(normalize(img)), img, atol=1e-6)

    def test_custom_params_and_validation(self):
        params = NormalizationParams(mu=(0.5, 0.5, 0.5), sigma=(0.5, 0.5, 0.5))
        out = normalize(np.full((1, 1, 3), 0.75), params)
        np.testing.assert_allclose(out, 0.5)
        with pytest.raises(ValueError, match="sigma"):
            NormalizationParams(sigma=(0.0, 0.1, 0.1))

    def test_statistics_converge_to_standard(self):
        # Pixels drawn with the normalization constants as their true
        # moments should standardize to mean 0, std 1.
        rng = np.random.default_rng(0)
        params = NormalizationParams()
        pixels = rng.normal(params.mu, params.sigma, size=(100_000, 1, 3))
        out = normalize(pixels, params)
        flat = out.reshape(-1, 3)
        assert np.abs(flat.mean(axis=0)).max() < 0.02
        assert np.abs(flat.std(axis=0) - 1.0).max() < 0.02
