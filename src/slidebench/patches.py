"""Patch-level raster operations: tiling, resize, augmentation, normalization.

A patch is a float array of shape (height, width, 3) with values in [0, 1]
(8-bit inputs are converted by /255). All operations are pure; randomness
is confined to an explicit per-call seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

OUTPUT_SIZE = 224  # extractor input side length

# Channel statistics matching the feature extractors' pre-training setup.
IMAGENET_MEAN = (0.485, 0.456, 0.406)
IMAGENET_STD = (0.229, 0.224, 0.225)

# Tiles whose mean intensity exceeds this are treated as background glass.
BACKGROUND_LUMINANCE = 0.92


def as_patch(data: np.ndarray) -> np.ndarray:
    """Validate and coerce an array to float64 (h, w, 3) in [0, 1]."""
    arr = np.asarray(data)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"patch must have shape (h, w, 3), got {arr.shape}")
    if arr.dtype == np.uint8:
        arr = arr.astype(np.float64) / 255.0
    else:
        arr = arr.astype(np.float64, copy=False)
    if not np.all(np.isfinite(arr)):
        raise ValueError("patch contains non-finite values")
    return arr


def tile(
    image: np.ndarray,
    tile_size: int,
    stride: int | None = None,
    drop_background: bool = False,
    background_threshold: float = BACKGROUND_LUMINANCE,
) -> list[np.ndarray]:
    """Cut an image into a row-major grid of tiles.

    Partial edge tiles are dropped. With `drop_background`, tiles whose mean
    intensity exceeds the threshold (mostly white glass) are removed.
    """
    if tile_size < 1:
        raise ValueError("tile_size must be >= 1")
    if stride is None:
        stride = tile_size
    if stride < 1:
        raise ValueError("stride must be >= 1")
    img = as_patch(image)
    h, w = img.shape[:2]
    if h < tile_size or w < tile_size:
        logger.warning("image %dx%d smaller than tile size %d; no tiles", w, h, tile_size)
        return []
    tiles = []
    for top in range(0, h - tile_size + 1, stride):
        for left in range(0, w - tile_size + 1, stride):
            t = img[top : top + tile_size, left : left + tile_size]
            if drop_background and t.mean() > background_threshold:
                continue
            tiles.append(t.copy())
    return tiles


def grid_shape(height: int, width: int, tile_size: int, stride: int) -> tuple[int, int]:
    """Row/column counts of the tile grid before background filtering."""
    if height < tile_size or width < tile_size:
        return 0, 0
    return (height - tile_size) // stride + 1, (width - tile_size) // stride + 1


def resize(patch: np.ndarray, out_h: int = OUTPUT_SIZE, out_w: int = OUTPUT_SIZE) -> np.ndarray:
    """Bilinear resize with half-pixel-centered sampling.

    Same-size input is reproduced exactly; constant images stay constant.
    """
    img = as_patch(patch)
    h, w = img.shape[:2]
    if h == 0 or w == 0:
        raise ValueError("cannot resize an empty patch")

    def axis_coords(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        scale = n_in / n_out
        centers = (np.arange(n_out) + 0.5) * scale - 0.5
        lo = np.floor(centers).astype(np.int64)
        frac = centers - lo
        lo_c = np.clip(lo, 0, n_in - 1)
        hi_c = np.clip(lo + 1, 0, n_in - 1)
        return lo_c, hi_c, frac

    y0, y1, fy = axis_coords(h, out_h)
    x0, x1, fx = axis_coords(w, out_w)
    fy = fy[:, None, None]
    fx = fx[None, :, None]
    top = img[y0][:, x0] * (1 - fx) + img[y0][:, x1] * fx
    bot = img[y1][:, x0] * (1 - fx) + img[y1][:, x1] * fx
    return top * (1 - fy) + bot * fy


# The parameter names each transform kind takes.
TRANSFORM_PARAMS = {
    "hflip": ("p",),
    "vflip": ("p",),
    "gaussian_noise": ("sigma",),
    "motion_blur": ("k",),
    "median_blur": ("k",),
    "gaussian_blur": ("k", "sigma"),
    "affine": ("translate_x", "translate_y", "scale", "rotate"),
    "brightness_contrast": ("brightness", "contrast"),
}


@dataclass(frozen=True)
class Transform:
    """One augmentation step: a kind from `TRANSFORM_PARAMS` plus its
    parameters. Flip probabilities and noise draw from the spec's RNG; the
    remaining transforms apply their parameters exactly.
    """

    kind: str
    params: tuple[tuple[str, float], ...]

    def param(self, name: str, default: float | None = None) -> float:
        for k, v in self.params:
            if k == name:
                return v
        if default is None:
            raise ValueError(f"transform {self.kind!r} missing parameter {name!r}")
        return default


def transform(kind: str, **params: float) -> Transform:
    t = Transform(kind, tuple(sorted(params.items())))
    _validate_transform(t)
    return t


def _validate_transform(t: Transform) -> None:
    names = TRANSFORM_PARAMS.get(t.kind)
    if names is None:
        raise ValueError(f"unknown transform kind {t.kind!r}")
    for name, _ in t.params:
        if name not in names:
            raise ValueError(f"transform {t.kind!r} has no parameter {name!r}")
    if t.kind in ("hflip", "vflip"):
        p = t.param("p", 1.0)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{t.kind} probability {p} outside [0, 1]")
    elif t.kind == "gaussian_noise":
        if t.param("sigma") < 0:
            raise ValueError("gaussian_noise sigma must be >= 0")
    elif t.kind in ("motion_blur", "median_blur", "gaussian_blur"):
        k = int(t.param("k"))
        if k < 1 or k % 2 == 0:
            raise ValueError(f"{t.kind} kernel size must be odd and >= 1, got {k}")
    elif t.kind == "affine":
        if t.param("scale", 1.0) <= 0:
            raise ValueError("affine scale must be > 0")


@dataclass(frozen=True)
class AugmentationSpec:
    """Ordered list of transforms plus the seed that drives random steps."""

    transforms: tuple[Transform, ...] = field(default_factory=tuple)
    seed: int = 0


def _convolve2d(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Per-channel 2-D convolution with reflect padding."""
    kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    padded = np.pad(img, ((ph, ph), (pw, pw), (0, 0)), mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(0, 1))
    return np.einsum("hwcij,ij->hwc", windows, kernel)


def _gaussian_kernel1d(k: int, sigma: float) -> np.ndarray:
    if sigma <= 0:
        kern = np.zeros(k)
        kern[k // 2] = 1.0
        return kern
    x = np.arange(k) - k // 2
    kern = np.exp(-0.5 * (x / sigma) ** 2)
    return kern / kern.sum()


def _median_blur(img: np.ndarray, k: int) -> np.ndarray:
    p = k // 2
    padded = np.pad(img, ((p, p), (p, p), (0, 0)), mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(0, 1))
    return np.median(windows, axis=(3, 4))


def _affine(img: np.ndarray, tx: float, ty: float, scale: float, rotate_deg: float) -> np.ndarray:
    """Affine warp about the image center with bilinear sampling.

    Out-of-bounds samples are clamped to the border (replicate).
    """
    h, w = img.shape[:2]
    theta = np.deg2rad(rotate_deg)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    # Invert output->input: undo translation, then rotation/scale about center.
    xo = xs - cx - tx
    yo = ys - cy - ty
    xi = (cos_t * xo + sin_t * yo) / scale + cx
    yi = (-sin_t * xo + cos_t * yo) / scale + cy
    x0 = np.clip(np.floor(xi).astype(np.int64), 0, w - 1)
    y0 = np.clip(np.floor(yi).astype(np.int64), 0, h - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    fx = np.clip(xi - x0, 0.0, 1.0)[..., None]
    fy = np.clip(yi - y0, 0.0, 1.0)[..., None]
    top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
    bot = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
    return top * (1 - fy) + bot * fy


def augment(patch: np.ndarray, spec: AugmentationSpec) -> np.ndarray:
    """Apply the spec's transforms in order, deterministically per seed."""
    img = as_patch(patch)
    rng = np.random.default_rng(spec.seed)
    for t in spec.transforms:
        _validate_transform(t)
        if t.kind == "hflip":
            if rng.random() < t.param("p", 1.0):
                img = img[:, ::-1, :]
        elif t.kind == "vflip":
            if rng.random() < t.param("p", 1.0):
                img = img[::-1, :, :]
        elif t.kind == "gaussian_noise":
            sigma = t.param("sigma")
            if sigma > 0:
                img = np.clip(img + rng.normal(0.0, sigma, img.shape), 0.0, 1.0)
        elif t.kind == "motion_blur":
            k = int(t.param("k"))
            if k > 1:
                kern = np.zeros((1, k))
                kern[0, :] = 1.0 / k
                img = _convolve2d(img, kern)
        elif t.kind == "median_blur":
            k = int(t.param("k"))
            if k > 1:
                img = _median_blur(img, k)
        elif t.kind == "gaussian_blur":
            k = int(t.param("k"))
            sigma = t.param("sigma", max(k / 3.0, 1e-6))
            if k > 1:
                kern1 = _gaussian_kernel1d(k, sigma)
                img = _convolve2d(img, kern1[None, :])
                img = _convolve2d(img, kern1[:, None])
        elif t.kind == "affine":
            img = _affine(
                img,
                tx=t.param("translate_x", 0.0),
                ty=t.param("translate_y", 0.0),
                scale=t.param("scale", 1.0),
                rotate_deg=t.param("rotate", 0.0),
            )
        elif t.kind == "brightness_contrast":
            db = t.param("brightness", 0.0)
            dc = t.param("contrast", 0.0)
            img = np.clip((img - 0.5) * (1.0 + dc) + 0.5 + db, 0.0, 1.0)
    return np.ascontiguousarray(img)


@dataclass(frozen=True)
class NormalizationParams:
    """Per-channel mean and standard deviation for pixel standardization."""

    mu: tuple[float, float, float] = IMAGENET_MEAN
    sigma: tuple[float, float, float] = IMAGENET_STD

    def __post_init__(self) -> None:
        if any(s <= 0 for s in self.sigma):
            raise ValueError(f"sigma must be positive, got {self.sigma}")


def normalize(patch: np.ndarray, params: NormalizationParams = NormalizationParams()) -> np.ndarray:
    """Standardize each channel: (x - mu_c) / sigma_c."""
    img = as_patch(patch)
    mu = np.asarray(params.mu, dtype=np.float64)
    sd = np.asarray(params.sigma, dtype=np.float64)
    return (img - mu) / sd


def denormalize(patch: np.ndarray, params: NormalizationParams = NormalizationParams()) -> np.ndarray:
    """Invert normalize: x * sigma_c + mu_c."""
    arr = np.asarray(patch, dtype=np.float64)
    mu = np.asarray(params.mu, dtype=np.float64)
    sd = np.asarray(params.sigma, dtype=np.float64)
    return arr * sd + mu
