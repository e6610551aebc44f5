"""Structural similarity as the pipeline's no-ground-truth quality monitor.

SSIM multiplies luminance, contrast and structure comparisons of local
Gaussian-weighted patch statistics; MSSIM averages it over an 11x11 sliding
window on each axial slice (windows without any brain voxel are skipped) and
over slices. A box is scored in one pass, one correlation per moment, with the
window shrunk to fit thin boxes. Classified volumes are compared to the
reference channel after replacing each voxel by its tissue-class mean
intensity."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    proportionally so the metric stays defined. A window that already fits
    is returned unchanged.
    """
    limit = int(min(shape[0], shape[1]))
    if limit >= c.window_size:
        return c
    size = max(3, limit if limit % 2 == 1 else limit - 1)
    sigma = c.window_sigma * size / c.window_size
    return replace(c, window_size=size, window_sigma=sigma)


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


def _ssim_from_moments(mu_x, mu_y, var_x, var_y, cov_xy, c: SsimConstants):
    """SSIM from local moments; scalars or equally shaped arrays."""
    lum = (2.0 * mu_x * mu_y + c.c1) / (mu_x * mu_x + mu_y * mu_y + c.c1)
    if c.c3 == c.c2 / 2:
        # contrast * structure collapses without any square root, which keeps
        # SSIM(x, x) == 1 bit-exactly
        cs = (2.0 * cov_xy + c.c2) / (var_x + var_y + c.c2)
        return lum * cs
    sx = np.sqrt(np.maximum(var_x, 0.0))
    sy = np.sqrt(np.maximum(var_y, 0.0))
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
    return float(_ssim_from_moments(s.mu_x, s.mu_y, s.var_x, s.var_y, s.cov_xy, c))


# ---------------------------------------------------------------------------
# Sliding-window MSSIM
# ---------------------------------------------------------------------------

def _interior(size: int) -> tuple:
    """Crop of a box's in-plane axes to the fully interior window positions."""
    half = size // 2
    return (slice(half, -half) if half else slice(None),) * 2


def _ssim_map(x: np.ndarray, y: np.ndarray, c: SsimConstants) -> np.ndarray:
    """SSIM at every fully interior in-plane window position of a 3D box."""
    w = c.window()[:, :, None]
    crop = _interior(c.window_size)

    def smooth(img):
        return ndimage.correlate(img, w, mode="constant")[crop]

    mu_x = smooth(x)
    mu_y = smooth(y)
    var_x = smooth(x * x) - mu_x * mu_x
    var_y = smooth(y * y) - mu_y * mu_y
    cov = smooth(x * y) - mu_x * mu_y
    return _ssim_from_moments(mu_x, mu_y, var_x, var_y, cov, c)


def _window_counts(mask: np.ndarray, size: int) -> np.ndarray:
    """Masked voxels under each fully interior in-plane window of a 3D box."""
    counts = ndimage.uniform_filter(mask.astype(np.float64), size=(size, size, 1),
                                    mode="constant") * (size * size)
    return np.rint(counts[_interior(size)]).astype(np.int64)


def mssim(classified: np.ndarray, reference: np.ndarray, mask: np.ndarray,
          c: SsimConstants | None = None) -> float:
    """MSSIM between a classified image and the reference.

    The window is first fitted to the in-plane shape (fit_constants). A 3D
    box is scored in one pass: every moment is one correlation with the 2D
    window laid in the axial plane. Each axial slice's MSSIM is the mean
    SSIM over its windows containing a masked voxel, and the result is the
    mean over the slices that have such a window. A 2D input is a one-slice
    box. Raises ValueError when no window touches the mask.
    """
    classified = np.asarray(classified, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if classified.shape != reference.shape or classified.shape != mask.shape:
        raise ValueError("classified, reference and mask shapes must agree")
    if classified.ndim == 2:
        classified, reference, mask = (a[:, :, None] for a in (classified, reference, mask))
    elif classified.ndim != 3:
        raise ValueError(f"expected 2D or 3D input, got {classified.ndim}D")
    c = fit_constants(c or SsimConstants(), classified.shape)
    if min(classified.shape[:2]) < c.window_size:
        raise ValueError("no sliding window contains a masked voxel")

    keep = _window_counts(mask, c.window_size) > 0
    ssim_map = _ssim_map(classified, reference, c)
    per_slice = [float(ssim_map[:, :, k][keep[:, :, k]].mean())
                 for k in range(keep.shape[2]) if keep[:, :, k].any()]
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
