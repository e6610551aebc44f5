"""Synthetic multi-channel phantoms with ground truth, plus a naive initializer.

Phantoms stand in for real templates: a three-class geometry (nested shells
or blocks) gets per-class channel means, partial-volume blurring at class
boundaries, a smooth multiplicative bias field and i.i.d. Gaussian noise.
The k-means initializer provides deliberately imperfect starting labels the
pipeline is expected to refine.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.cluster.vq import kmeans2

from .volume import (BG, CSF, GM, REFERENCE_CHANNEL, WM, LabelVolume, MultiChannelVolume,
                     TISSUE_LABELS)

logger = logging.getLogger(__name__)

# per-class channel means, rows CSF/GM/WM, columns t1w/t2w/pdw
DEFAULT_CLASS_MEANS = (
    (0.15, 0.85, 0.70),
    (0.55, 0.50, 0.60),
    (0.85, 0.25, 0.40),
)

# reseeded k-means attempts before kmeans_init gives up on an empty cluster
KMEANS_RETRIES = 5


@dataclass(frozen=True)
class PhantomSpec:
    """Recipe for a deterministic synthetic volume."""

    dims: tuple[int, int, int] = (64, 64, 64)
    class_means: tuple = DEFAULT_CLASS_MEANS
    bias_amplitude: float = 0.0
    noise_sigma: float = 0.0
    pv_blur: float = 0.0
    geometry: str = "shells"
    seed: int = 0

    def __post_init__(self):
        if self.geometry not in ("shells", "blocks"):
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be non-negative")
        means = np.asarray(self.class_means, dtype=np.float64)
        if means.shape[0] != 3:
            raise ValueError("need mean vectors for exactly 3 classes")
        for c in range(means.shape[1]):
            if len(np.unique(means[:, c])) != 3:
                raise ValueError(f"class means must be pairwise distinct per channel "
                                 f"(channel {c}: {means[:, c]})")


def _shell_geometry(dims) -> tuple[np.ndarray, np.ndarray]:
    grids = np.meshgrid(*(np.arange(d, dtype=np.float64) for d in dims), indexing="ij")
    center = [(d - 1) / 2.0 for d in dims]
    r = np.sqrt(sum((g - c) ** 2 for g, c in zip(grids, center)))
    radius = 0.44 * min(dims)
    mask = r <= radius
    labels = np.full(dims, BG, dtype=np.uint8)
    labels[mask & (r > 0.85 * radius)] = CSF
    labels[mask & (r > 0.55 * radius) & (r <= 0.85 * radius)] = GM
    labels[mask & (r <= 0.55 * radius)] = WM
    return labels, mask


def _block_geometry(dims) -> tuple[np.ndarray, np.ndarray]:
    mask = np.ones(dims, dtype=bool)
    labels = np.full(dims, BG, dtype=np.uint8)
    order = (CSF, GM, WM, GM, WM, CSF, WM, CSF)
    half = [d // 2 for d in dims]
    octant = 0
    for i_half in (slice(0, half[0]), slice(half[0], dims[0])):
        for j_half in (slice(0, half[1]), slice(half[1], dims[1])):
            for k_half in (slice(0, half[2]), slice(half[2], dims[2])):
                labels[i_half, j_half, k_half] = order[octant]
                octant += 1
    return labels, mask


def _smooth_field(dims, rng: np.random.Generator) -> np.ndarray:
    """Low-frequency random field normalized onto [-1, 1]."""
    coarse = rng.uniform(-1.0, 1.0, size=(5, 5, 5))
    zoom = [d / 5.0 for d in dims]
    fine = ndimage.zoom(coarse, zoom, order=3, mode="nearest", grid_mode=True)
    fine = fine[: dims[0], : dims[1], : dims[2]]
    peak = np.abs(fine).max()
    return fine / peak if peak > 0 else fine


def generate_phantom(spec: PhantomSpec) -> tuple[MultiChannelVolume, LabelVolume]:
    """Deterministic phantom volume plus its ground-truth labels.

    Class-mean intensities are mixed convexly across partial-volume
    boundaries (Gaussian class-indicator blur of width pv_blur), modulated
    by a smooth multiplicative bias field of the requested amplitude, and
    perturbed by i.i.d. Gaussian noise before clamping to [0, 1]. Voxels
    outside the mask are zero.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.geometry == "shells":
        labels, mask = _shell_geometry(spec.dims)
    else:
        labels, mask = _block_geometry(spec.dims)
    means = np.asarray(spec.class_means, dtype=np.float64)
    n_channels = means.shape[1]

    if spec.pv_blur > 0:
        weights = np.stack([
            ndimage.gaussian_filter((labels == cls).astype(np.float64), spec.pv_blur)
            for cls in TISSUE_LABELS])
        total = weights.sum(axis=0)
        total[total == 0] = 1.0
        weights /= total
    else:
        weights = np.stack([(labels == cls).astype(np.float64) for cls in TISSUE_LABELS])

    data = np.zeros(spec.dims + (n_channels,), dtype=np.float64)
    for ci, cls_weights in enumerate(weights):
        for ch in range(n_channels):
            data[..., ch] += cls_weights * means[ci, ch]

    if spec.bias_amplitude > 0:
        bias = 1.0 + spec.bias_amplitude * _smooth_field(spec.dims, rng)
        data *= bias[..., None]

    if spec.noise_sigma > 0:
        data += rng.normal(0.0, spec.noise_sigma, size=data.shape)

    np.clip(data, 0.0, 1.0, out=data)
    data[~mask] = 0.0
    return (MultiChannelVolume(data=data.astype(np.float32), mask=mask),
            LabelVolume(labels=labels))


# ---------------------------------------------------------------------------
# Naive initial labeling
# ---------------------------------------------------------------------------

def kmeans_init(vol: MultiChannelVolume, seed: int = 0) -> LabelVolume:
    """K-means on masked intensity vectors into CSF, GM and WM.

    Clusters are ordered by ascending t1w mean, which maps them onto
    CSF < GM < WM. Empty clusters trigger a reseeded retry (up to
    KMEANS_RETRIES attempts in all) before raising.
    """
    n_classes = len(TISSUE_LABELS)
    features = vol.data[vol.mask].astype(np.float64)
    # one distinct row at a time, each found in one pass over the rows
    distinct = features[:1]
    while len(distinct) < n_classes:
        other = np.flatnonzero((features[:, None] != distinct).any(axis=2).all(axis=1))
        if not len(other):
            raise ValueError(f"need at least {n_classes} distinct intensity vectors")
        distinct = np.vstack([distinct, features[other[:1]]])
    assignments = None
    for attempt in range(KMEANS_RETRIES):
        _, lab = kmeans2(features, n_classes, minit="++",
                         seed=np.random.default_rng(seed + attempt), iter=20)
        if np.bincount(lab, minlength=n_classes).all():
            assignments = lab
            break
        logger.warning("k-means produced an empty cluster (attempt %d)", attempt + 1)
    if assignments is None:
        raise ValueError(f"k-means failed to fill {n_classes} clusters "
                         f"after {KMEANS_RETRIES} attempts")

    t1w_means = [features[assignments == c, REFERENCE_CHANNEL].mean()
                 for c in range(n_classes)]
    remap = np.empty(n_classes, dtype=np.uint8)
    remap[np.argsort(t1w_means)] = TISSUE_LABELS      # ascending t1w

    labels = np.full(vol.dims, BG, dtype=np.uint8)
    labels[vol.mask] = remap[assignments]
    return LabelVolume(labels=labels)


# ---------------------------------------------------------------------------
# Controlled degradations for benchmarking
# ---------------------------------------------------------------------------

def corrupt_boundary_labels(lv: LabelVolume, mask: np.ndarray, fraction: float,
                            seed: int = 0) -> LabelVolume:
    """Flip a fraction of class-boundary voxels to a random other tissue.

    Boundary voxels are masked voxels with an in-volume 6-neighbour of a
    different tissue class; a seeded sample of them is relabeled.
    """
    labels = lv.labels.copy()
    tissue = mask & (labels != BG)
    boundary = np.zeros_like(tissue)
    for axis in range(3):
        # views with the axis first: each voxel against its successor on it
        t, lab, b = (np.moveaxis(a, axis, 0) for a in (tissue, labels, boundary))
        differs = t[:-1] & t[1:] & (lab[:-1] != lab[1:])
        b[:-1] |= differs
        b[1:] |= differs
    candidates = np.flatnonzero(boundary.ravel())
    rng = np.random.default_rng(seed)
    n_flip = int(round(fraction * candidates.size))
    chosen = rng.choice(candidates, size=n_flip, replace=False)
    flat = labels.ravel()
    for cls in TISSUE_LABELS:
        sel = chosen[flat[chosen] == cls]
        others = [c for c in TISSUE_LABELS if c != cls]
        flat[sel] = rng.choice(others, size=sel.size)
    return LabelVolume(labels=labels)


def underestimate_csf(lv: LabelVolume, fraction: float = 0.4) -> LabelVolume:
    """Erode the CSF class into GM until at least `fraction` of it is gone.

    Emulates an initializer that badly misses CSF; deterministic.
    """
    labels = lv.labels.copy()
    csf = labels == CSF
    target = int(np.ceil(fraction * csf.sum()))
    eroded = csf.copy()
    removed = 0
    while removed < target:
        shrunk = ndimage.binary_erosion(eroded)
        if shrunk.sum() == eroded.sum() or not shrunk.any():
            break
        eroded = shrunk
        removed = int(csf.sum() - eroded.sum())
    labels[csf & ~eroded] = GM
    return LabelVolume(labels=labels)
