"""Structural similarity as the pipeline's no-ground-truth quality monitor.

SSIM multiplies luminance, contrast and structure comparisons of local
Gaussian-weighted patch statistics, stabilized by the published C1, C2 and
C3; MSSIM averages it over the published 11x11, sigma 1.5 sliding window
(WINDOW_SIZE, WINDOW_SIGMA) on each axial slice (windows without any brain
voxel are skipped) and over slices. MSSIM has one call form: a 3D
reference box and its mask give their window statistics once
(reference_windows), and mssim scores any classified box against them.
A box is scored in one pass, two 1-D Gaussian passes per moment (the
window is separable), with the window shrunk to fit thin boxes down to
3x3 (fit_window, window_fits). Classified volumes are compared to the
reference channel after replacing each voxel by its tissue-class mean
intensity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .volume import TISSUE_LABELS

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


def _ssim_from_moments(mu_x, mu_y, var_x, var_y, cov_xy):
    """SSIM from local moments; scalars or equally shaped arrays."""
    lum = (2.0 * mu_x * mu_y + C1) / (mu_x * mu_x + mu_y * mu_y + C1)
    # with C3 = C2/2, contrast * structure collapses without any square
    # root, which keeps SSIM(x, x) == 1 bit-exactly
    cs = (2.0 * cov_xy + C2) / (var_x + var_y + C2)
    return lum * cs


def ssim_patch(x: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None) -> float:
    """SSIM between two equally shaped patches; value in [-1, 1].

    Moments are weighted by weights, normalized to sum 1 (uniform when
    None); gaussian_window() reproduces one position of the sliding window.
    Identical patches score exactly 1.0.
    """
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
    var_x = float((w * dx * dx).sum())
    var_y = float((w * dy * dy).sum())
    cov_xy = float((w * dx * dy).sum())
    return float(_ssim_from_moments(mu_x, mu_y, var_x, var_y, cov_xy))


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
    it equals the 2D window up to rounding. The axis-1 pass filters only
    the interior rows, which changes no bit, as it filters each row alone."""
    g = _gaussian_taps(size, sigma)
    inner = _interior(size)[0]

    def smooth(img):
        rows = ndimage.correlate1d(img, g, axis=0, mode="constant")[inner]
        return ndimage.correlate1d(rows, g, axis=1, mode="constant")[:, inner]

    return smooth


def _mean_var(img: np.ndarray, smooth) -> tuple[np.ndarray, np.ndarray]:
    """Windowed mean G*x and variance G*x^2 - (G*x)^2 of a box."""
    mu = smooth(img)
    return mu, smooth(img * img) - mu * mu


def _window_counts(mask: np.ndarray, size: int) -> np.ndarray:
    """Masked voxels under each fully interior in-plane window of a 3D box."""
    counts = ndimage.uniform_filter(mask.astype(np.float64), size=(size, size, 1),
                                    mode="constant") * (size * size)
    return np.rint(counts[_interior(size)]).astype(np.int64)


@dataclass(frozen=True)
class ReferenceWindows:
    """What MSSIM uses of a 3D reference box and its mask, whatever image
    is scored against them: the reference, the window fitted to the box
    (fit_window), the reference's windowed mean and variance, and the
    windows that contain a masked voxel."""

    reference: np.ndarray
    size: int
    sigma: float
    mean: np.ndarray
    var: np.ndarray
    keep: np.ndarray


def reference_windows(reference: np.ndarray, mask: np.ndarray) -> ReferenceWindows:
    """The window statistics of a 3D reference box and its mask that mssim
    scores against, computed once however many images are scored. Raises
    ValueError unless both are 3D of one shape, and when no window fits
    in plane or none contains a masked voxel."""
    reference = np.asarray(reference, dtype=np.float64)
    if reference.ndim != 3 or reference.shape != mask.shape:
        raise ValueError("reference and mask must be 3D boxes of one shape")
    size, sigma = fit_window(reference.shape)
    # a box thinner in plane than its fitted window has no window at all
    keep = _window_counts(mask, size) > 0
    if not keep.any():
        raise ValueError("no sliding window contains a masked voxel")
    mean, var = _mean_var(reference, _smoother(size, sigma))
    return ReferenceWindows(reference, size, sigma, mean, var, keep)


def _ssim_map(x: np.ndarray, windows: ReferenceWindows) -> np.ndarray:
    """SSIM of a 3D box x against windows.reference at every fully
    interior in-plane position of windows' Gaussian window; the
    reference's moments are windows.mean and windows.var."""
    smooth = _smoother(windows.size, windows.sigma)
    mu_x, var_x = _mean_var(x, smooth)
    cov = smooth(x * windows.reference) - mu_x * windows.mean
    return _ssim_from_moments(mu_x, windows.mean, var_x, windows.var, cov)


def mssim(classified: np.ndarray, windows: ReferenceWindows) -> float:
    """MSSIM of a classified 3D box against the reference box whose window
    statistics windows holds (reference_windows).

    A box is scored in one pass: every moment is two 1-D Gaussian passes
    along the in-plane axes. Each axial slice's MSSIM is the mean SSIM
    over its windows containing a masked voxel, and the result is the mean
    over the slices that have such a window.
    """
    classified = np.asarray(classified, dtype=np.float64)
    if classified.shape != windows.reference.shape:
        raise ValueError("classified and reference shapes must agree")
    keep = windows.keep
    ssim_map = _ssim_map(classified, windows)
    # reference_windows keeps at least one window
    per_slice = [float(ssim_map[:, :, k][keep[:, :, k]].mean())
                 for k in range(keep.shape[2]) if keep[:, :, k].any()]
    return float(np.mean(per_slice))


# ---------------------------------------------------------------------------
# Classified mean images
# ---------------------------------------------------------------------------

def classified_mean_image(labels: np.ndarray, reference: np.ndarray,
                          mask: np.ndarray) -> np.ndarray:
    """Replace each voxel by the mean reference intensity of its tissue label.

    Class means are taken over the label's masked voxels in the given
    arrays; absent labels are skipped, and background, unmasked voxels
    and any label that is no tissue are set to 0.
    """
    ref = np.asarray(reference, dtype=np.float64)
    out = np.zeros(ref.shape)
    for tissue in TISSUE_LABELS:
        sel = mask & (labels == tissue)
        if sel.any():
            out[sel] = ref[sel].mean()
    return out
