"""Structural similarity as the pipeline's no-ground-truth quality monitor.

SSIM multiplies luminance, contrast and structure comparisons of local
Gaussian-weighted patch statistics, stabilized by the published C1, C2 and
C3; MSSIM averages it over the published 11x11, sigma 1.5 sliding window
(WINDOW_SIZE, WINDOW_SIGMA) on each axial slice (windows without any brain
voxel are skipped) and over slices. A box is scored in one pass, two 1-D
Gaussian passes per moment (the window is separable), with the window
shrunk to fit thin boxes down to 3x3 (fit_window, window_fits); the
reference's moments can be computed once for many scored images
(reference_windows). Classified volumes are compared to the reference
channel after replacing each voxel by its tissue-class mean intensity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .volume import BG

# C1 = (0.01 L)^2, C2 = (0.03 L)^2 and C3 = C2/2 for the dynamic range
# L = 1 that `normalize_intensities` leaves every channel
C1 = 0.01 ** 2
C2 = 0.03 ** 2
C3 = 0.03 ** 2 / 2
WINDOW_SIZE = 11
WINDOW_SIGMA = 1.5


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    """Normalized 1D Gaussian taps (sum to 1) of the separable window."""
    coords = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(coords ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def gaussian_window(size: int = WINDOW_SIZE, sigma: float = WINDOW_SIGMA) -> np.ndarray:
    """Normalized 2D Gaussian weight mask: the outer product of the 1D taps."""
    g = _gaussian_taps(size, sigma)
    return np.outer(g, g)


def fit_window(shape) -> tuple[int, float]:
    """(size, sigma) of the sliding window fitted to a slice shape.

    Thin subdomains near the minimum slab width cannot host the published
    11x11 window; the window shrinks (odd, >= 3) with its Gaussian width
    scaled proportionally so the metric stays defined. A shape that already
    fits the published window gets it unchanged.
    """
    limit = int(min(shape[0], shape[1]))
    if limit >= WINDOW_SIZE:
        return WINDOW_SIZE, WINDOW_SIGMA
    size = max(3, limit if limit % 2 == 1 else limit - 1)
    return size, WINDOW_SIGMA * size / WINDOW_SIZE


def window_fits(shape) -> bool:
    """Whether a box holds its fitted window in plane (3 voxels at least)."""
    return min(shape[0], shape[1]) >= fit_window(shape)[0]


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


def _ssim_from_moments(mu_x, mu_y, var_x, var_y, cov_xy):
    """SSIM from local moments; scalars or equally shaped arrays."""
    lum = (2.0 * mu_x * mu_y + C1) / (mu_x * mu_x + mu_y * mu_y + C1)
    # with C3 = C2/2, contrast * structure collapses without any square
    # root, which keeps SSIM(x, x) == 1 bit-exactly
    cs = (2.0 * cov_xy + C2) / (var_x + var_y + C2)
    return lum * cs


def ssim_patch(x: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None) -> float:
    """SSIM between two equally shaped patches; value in [-1, 1].

    Identical patches score exactly 1.0. Pass weights to reproduce one
    position of the Gaussian sliding window.
    """
    s = patch_stats(x, y, weights)
    return float(_ssim_from_moments(s.mu_x, s.mu_y, s.var_x, s.var_y, s.cov_xy))


# ---------------------------------------------------------------------------
# Sliding-window MSSIM
# ---------------------------------------------------------------------------

def _interior(size: int) -> tuple:
    """Crop of a box's in-plane axes to the fully interior window positions."""
    half = size // 2
    return (slice(half, -half) if half else slice(None),) * 2


def _smoother(size: int, sigma: float):
    """The window's linear map: two 1-D Gaussian passes, along axis 0 and
    then axis 1, cropped to the fully interior in-plane positions; there
    it equals the 2D window up to rounding."""
    g = _gaussian_taps(size, sigma)
    crop = _interior(size)

    def smooth(img):
        rows = ndimage.correlate1d(img, g, axis=0, mode="constant")
        return ndimage.correlate1d(rows, g, axis=1, mode="constant")[crop]

    return smooth


def _mean_var(img: np.ndarray, smooth) -> tuple[np.ndarray, np.ndarray]:
    """Windowed mean G*x and variance G*x^2 - (G*x)^2 of a box."""
    mu = smooth(img)
    return mu, smooth(img * img) - mu * mu


def _ssim_map(x: np.ndarray, y: np.ndarray, size: int, sigma: float,
              y_mean_var: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """SSIM at every fully interior in-plane window position of a 3D box
    under the size x size Gaussian window of width sigma.

    y_mean_var is _mean_var(y) under that window when already known."""
    smooth = _smoother(size, sigma)
    mu_x, var_x = _mean_var(x, smooth)
    mu_y, var_y = y_mean_var if y_mean_var is not None else _mean_var(y, smooth)
    cov = smooth(x * y) - mu_x * mu_y
    return _ssim_from_moments(mu_x, mu_y, var_x, var_y, cov)


def _window_counts(mask: np.ndarray, size: int) -> np.ndarray:
    """Masked voxels under each fully interior in-plane window of a 3D box."""
    counts = ndimage.uniform_filter(mask.astype(np.float64), size=(size, size, 1),
                                    mode="constant") * (size * size)
    return np.rint(counts[_interior(size)]).astype(np.int64)


def _as_box(a: np.ndarray) -> np.ndarray:
    """A 2D image as a one-slice 3D box; a 3D box as is."""
    if a.ndim == 2:
        return a[:, :, None]
    if a.ndim != 3:
        raise ValueError(f"expected 2D or 3D input, got {a.ndim}D")
    return a


@dataclass(frozen=True)
class ReferenceWindows:
    """What MSSIM uses of a reference box and its mask, whatever image is
    scored against them: the window fitted to the box (fit_window), the
    reference's windowed mean and variance, and the windows that contain a
    masked voxel."""

    size: int
    sigma: float
    mean: np.ndarray
    var: np.ndarray
    keep: np.ndarray


def reference_windows(reference: np.ndarray, mask: np.ndarray) -> ReferenceWindows:
    """The window statistics of a reference box that mssim needs; compute
    them once to score many images against one reference."""
    reference = _as_box(np.asarray(reference, dtype=np.float64))
    mask = _as_box(mask)
    if not window_fits(reference.shape):
        raise ValueError("no sliding window contains a masked voxel")
    size, sigma = fit_window(reference.shape)
    mean, var = _mean_var(reference, _smoother(size, sigma))
    return ReferenceWindows(size, sigma, mean, var, _window_counts(mask, size) > 0)


def mssim(classified: np.ndarray, reference: np.ndarray, mask: np.ndarray,
          windows: ReferenceWindows | None = None) -> float:
    """MSSIM between a classified image and the reference.

    The window is first fitted to the in-plane shape (fit_window). A 3D
    box is scored in one pass: every moment is two 1-D Gaussian passes along
    the in-plane axes. Each axial slice's MSSIM is the mean SSIM over its
    windows containing a masked voxel, and the result is the mean over the
    slices that have such a window. A 2D input is a one-slice box. Raises
    ValueError when no window touches the mask. windows, when given, is
    reference_windows(reference, mask).
    """
    classified = np.asarray(classified, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if classified.shape != reference.shape or classified.shape != mask.shape:
        raise ValueError("classified, reference and mask shapes must agree")
    if windows is None:
        windows = reference_windows(reference, mask)
    keep = windows.keep
    ssim_map = _ssim_map(_as_box(classified), _as_box(reference), windows.size,
                         windows.sigma, (windows.mean, windows.var))
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
    The groups are disjoint sets of non-negative labels: one lookup table
    maps every label to its group.
    """
    listed = [t for group in class_groups for t in set(group)]
    if len(listed) != len(set(listed)):
        raise ValueError(f"class groups overlap: {class_groups}")
    # BG and every label in no group map to -1; labels past the table clip
    # to its last entry, which is -1
    group_of = np.full(max(max(listed), BG) + 2, -1, dtype=np.intp)
    for k, group in enumerate(class_groups):
        group_of[list(group)] = k
    group_of[BG] = -1
    group_map = np.where(mask, np.take(group_of, labels, mode="clip"), -1)
    ref = np.asarray(reference, dtype=np.float64)
    means = np.zeros(len(class_groups) + 1)     # the last entry is the 0 of group -1
    for k in range(len(class_groups)):
        sel = group_map == k
        if sel.any():
            means[k] = ref[sel].mean()
    return means[group_map]
