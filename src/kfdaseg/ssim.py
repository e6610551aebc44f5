"""Structural similarity as the pipeline's no-ground-truth quality monitor.

SSIM multiplies luminance, contrast and structure comparisons of local
Gaussian-weighted patch statistics; MSSIM averages it over an 11x11 sliding
window on each slice (windows without any brain voxel are skipped) and over
slices. Classified volumes are compared to the reference channel after
replacing each voxel by its tissue-class mean intensity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .volume import BG


def gaussian_window(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    """Normalized 2D Gaussian weight mask (weights sum to 1)."""
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords ** 2) / (2.0 * sigma ** 2))
    w = np.outer(g, g)
    return w / w.sum()


@dataclass(frozen=True)
class SsimConstants:
    """Stabilizers and window for SSIM on a dynamic range L.

    Defaults follow the published reference configuration: C1 = (0.01 L)^2,
    C2 = (0.03 L)^2, C3 = C2/2, 11x11 Gaussian window with sigma 1.5.
    """

    dynamic_range: float = 1.0
    c1: float = field(default=0.01 ** 2)
    c2: float = field(default=0.03 ** 2)
    c3: float = field(default=0.03 ** 2 / 2)
    window_size: int = 11
    window_sigma: float = 1.5

    def window(self) -> np.ndarray:
        return gaussian_window(self.window_size, self.window_sigma)


def fit_constants(c: SsimConstants, shape) -> SsimConstants:
    """Shrink the sliding window (odd, >= 3) to fit a small slice shape.

    Thin subdomains near the minimum slab width cannot host the default
    11x11 window; the window shrinks with its Gaussian width scaled
    proportionally so the metric stays defined.
    """
    limit = int(min(shape[0], shape[1]))
    if limit >= c.window_size:
        return c
    size = max(3, limit if limit % 2 == 1 else limit - 1)
    sigma = c.window_sigma * size / c.window_size
    return SsimConstants(dynamic_range=c.dynamic_range, c1=c.c1, c2=c.c2,
                         c3=c.c3, window_size=size, window_sigma=sigma)


@dataclass(frozen=True)
class PatchStats:
    """Weighted first/second moments of a patch pair."""

    mu_x: float
    mu_y: float
    var_x: float
    var_y: float
    cov_xy: float


def patch_stats(x: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None) -> PatchStats:
    """Weighted means, variances and cross-covariance of two equal patches."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"patch shapes differ: {x.shape} vs {y.shape}")
    if weights is None:
        w = np.full(x.shape, 1.0 / x.size)
    else:
        w = np.asarray(weights, dtype=np.float64)
        w = w / w.sum()
    mu_x = float((w * x).sum())
    mu_y = float((w * y).sum())
    dx = x - mu_x
    dy = y - mu_y
    return PatchStats(
        mu_x=mu_x, mu_y=mu_y,
        var_x=float((w * dx * dx).sum()),
        var_y=float((w * dy * dy).sum()),
        cov_xy=float((w * dx * dy).sum()),
    )


def _ssim_from_moments(mu_x, mu_y, var_x, var_y, cov_xy, c: SsimConstants) -> float:
    lum = (2.0 * mu_x * mu_y + c.c1) / (mu_x * mu_x + mu_y * mu_y + c.c1)
    if c.c3 == c.c2 / 2:
        # contrast * structure collapses without any square root, which keeps
        # SSIM(x, x) == 1 bit-exactly
        cs = (2.0 * cov_xy + c.c2) / (var_x + var_y + c.c2)
        return lum * cs
    sx = math.sqrt(max(var_x, 0.0))
    sy = math.sqrt(max(var_y, 0.0))
    contrast = (2.0 * sx * sy + c.c2) / (var_x + var_y + c.c2)
    structure = (cov_xy + c.c3) / (sx * sy + c.c3)
    return lum * contrast * structure


def ssim_patch(x: np.ndarray, y: np.ndarray, c: SsimConstants | None = None,
               weights: np.ndarray | None = None) -> float:
    """SSIM between two equally shaped patches; value in [-1, 1].

    Identical patches score exactly 1.0. Pass weights to reproduce one
    position of the Gaussian sliding window.
    """
    c = c or SsimConstants()
    s = patch_stats(x, y, weights)
    return _ssim_from_moments(s.mu_x, s.mu_y, s.var_x, s.var_y, s.cov_xy, c)


# ---------------------------------------------------------------------------
# Sliding-window MSSIM
# ---------------------------------------------------------------------------

def _slice_ssim_map(x: np.ndarray, y: np.ndarray, c: SsimConstants):
    """SSIM map over all fully interior window positions of one slice."""
    w = c.window()
    half = c.window_size // 2
    crop = (slice(half, -half), slice(half, -half)) if half else (slice(None), slice(None))

    def smooth(img):
        return ndimage.correlate(img, w, mode="constant")[crop]

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mu_x = smooth(x)
    mu_y = smooth(y)
    var_x = smooth(x * x) - mu_x * mu_x
    var_y = smooth(y * y) - mu_y * mu_y
    cov = smooth(x * y) - mu_x * mu_y

    lum = (2.0 * mu_x * mu_y + c.c1) / (mu_x ** 2 + mu_y ** 2 + c.c1)
    if c.c3 == c.c2 / 2:
        cs = (2.0 * cov + c.c2) / (var_x + var_y + c.c2)
        return lum * cs
    sx = np.sqrt(np.maximum(var_x, 0.0))
    sy = np.sqrt(np.maximum(var_y, 0.0))
    contrast = (2.0 * sx * sy + c.c2) / (var_x + var_y + c.c2)
    structure = (cov + c.c3) / (sx * sy + c.c3)
    return lum * contrast * structure


def _slice_window_counts(mask: np.ndarray, size: int) -> np.ndarray:
    half = size // 2
    crop = (slice(half, -half), slice(half, -half)) if half else (slice(None), slice(None))
    counts = ndimage.uniform_filter(mask.astype(np.float64), size=size,
                                    mode="constant") * (size * size)
    return np.rint(counts[crop]).astype(np.int64)


def mssim_slice(x: np.ndarray, y: np.ndarray, mask: np.ndarray,
                c: SsimConstants | None = None) -> float | None:
    """Mean SSIM over the slice's windows containing at least one masked voxel.

    Returns None when the slice has no such window (too small, or fully
    background).
    """
    c = c or SsimConstants()
    if x.shape != y.shape or x.shape != mask.shape:
        raise ValueError("slice and mask shapes must agree")
    if min(x.shape) < c.window_size:
        return None
    ssim_map = _slice_ssim_map(x, y, c)
    counts = _slice_window_counts(mask, c.window_size)
    keep = counts > 0
    if not keep.any():
        return None
    return float(ssim_map[keep].mean())


def mssim(classified: np.ndarray, reference: np.ndarray, mask: np.ndarray,
          c: SsimConstants | None = None, pool_windows: bool = False) -> float:
    """MSSIM between a classified image and the reference.

    2D inputs are scored directly; for a 3D subvolume the default is the
    mean over axial slices of per-slice MSSIM, while pool_windows=True pools
    every window volume-wide instead. Background-only windows are excluded.
    Raises ValueError when no window touches the mask.
    """
    c = c or SsimConstants()
    classified = np.asarray(classified, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if classified.shape != reference.shape or classified.shape != mask.shape:
        raise ValueError("classified, reference and mask shapes must agree")

    if classified.ndim == 2:
        value = mssim_slice(classified, reference, mask, c)
        if value is None:
            raise ValueError("no sliding window contains a masked voxel")
        return value
    if classified.ndim != 3:
        raise ValueError(f"expected 2D or 3D input, got {classified.ndim}D")

    if pool_windows:
        total = 0.0
        count = 0
        for k in range(classified.shape[2]):
            if min(classified.shape[:2]) < c.window_size:
                continue
            sl_mask = mask[:, :, k]
            if not sl_mask.any():
                continue
            ssim_map = _slice_ssim_map(classified[:, :, k], reference[:, :, k], c)
            counts = _slice_window_counts(sl_mask, c.window_size)
            keep = counts > 0
            total += float(ssim_map[keep].sum())
            count += int(keep.sum())
        if count == 0:
            raise ValueError("no sliding window contains a masked voxel")
        return total / count

    per_slice = []
    for k in range(classified.shape[2]):
        value = mssim_slice(classified[:, :, k], reference[:, :, k], mask[:, :, k], c)
        if value is not None:
            per_slice.append(value)
    if not per_slice:
        raise ValueError("no sliding window contains a masked voxel")
    return float(np.mean(per_slice))


# ---------------------------------------------------------------------------
# Classified mean images
# ---------------------------------------------------------------------------

def classified_mean_image(labels: np.ndarray, reference: np.ndarray,
                          mask: np.ndarray,
                          class_groups: tuple[tuple[int, ...], ...] = ((1,), (2,), (3,)),
                          ) -> np.ndarray:
    """Replace each voxel by the mean reference intensity of its class group.

    Group means are taken over the group's masked voxels in the given
    arrays; empty groups are skipped and background voxels are set to 0.
    """
    out = np.zeros(reference.shape, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    for group in class_groups:
        sel = np.isin(labels, np.asarray(group)) & mask & (labels != BG)
        if sel.any():
            out[sel] = ref[sel].mean()
    return out
