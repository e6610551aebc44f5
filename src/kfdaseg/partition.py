"""Mutual-information driven recursive volume partitioning.

Every intensity read is of the reference channel (t1w). `partition` takes
that channel as float64, its 6-neighbour Laplacian and the mask's
six-neighbour interior once per volume; a node of the tree then reads its
box once. The box's masked values give the node's voxel count, a two-bin
Otsu split with its entropy, and the SNR: their mean over the scaled MAD of
the Laplacian on the box's interior. The node's best cut maximizes the
mutual information between the Otsu bins and the two slabs of an
axis-aligned cut plane, scored from the box's per-slice cumulative counts.
Partition depth is selected where the mutual-information-ratio curve meets
the (rescaled) signal-to-noise curve, and the chosen leaves are padded so
adjacent subdomains share a 4-slice overlap.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .volume import REFERENCE_CHANNEL, MultiChannelVolume, box_slices

logger = logging.getLogger(__name__)

# MAD -> Gaussian sigma, and the noise gain of the 6-neighbour Laplacian
# (center weight -6, six unit neighbours: sqrt(36 + 6)).
_MAD_SCALE = 0.6744897501960817
_LAPLACIAN_GAIN = math.sqrt(42.0)

N_OTSU_BINS = 256
MIN_SLAB = 3  # slices per cluster side

Bounds = tuple[tuple[int, int], tuple[int, int], tuple[int, int]]


@dataclass
class Subdomain:
    """Axis-aligned box with MI bookkeeping.

    bounds are inclusive ((i0,i1),(j0,j1),(k0,k1)) index ranges;
    voxel_count counts masked voxels only. threshold is the Otsu split of
    the masked values (None when they are empty or constant), and cut the
    best (axis, absolute index of the second slab's first slice).
    padded_bounds is set on final leaves after overlap padding; bounds
    always stay the core (tiling) box.
    """

    bounds: Bounds
    voxel_count: int
    level: int = 0
    mi: float = 0.0
    entropy: float = 0.0
    snr: float = math.inf
    threshold: float | None = None
    parent: int | None = None
    children: tuple[int, int] | None = None
    cut: tuple[int, int] | None = None
    padded_bounds: Bounds | None = None

    def slices(self):
        return box_slices(self.bounds)


@dataclass
class PartitionTree:
    """Binary partition tree plus the level curves used for depth selection."""

    nodes: list[Subdomain] = field(default_factory=list)
    leaves: list[int] = field(default_factory=list)
    subdomain_counts: list[int] = field(default_factory=list)
    mir_curve: list[float] = field(default_factory=list)
    snr_raw_curve: list[float] = field(default_factory=list)
    snr_curve: list[float] = field(default_factory=list)
    optimal_count: int | None = None
    converged: bool = True

    def leaf_nodes(self) -> list[Subdomain]:
        return [self.nodes[i] for i in self.leaves]

    def to_json(self) -> str:
        def enc(x):
            if isinstance(x, float) and not math.isfinite(x):
                return "inf" if x > 0 else "-inf"
            return x

        doc = {
            "leaves": [
                {
                    "bounds": [list(b) for b in n.bounds],
                    "padded_bounds": [list(b) for b in n.padded_bounds],
                    "level": n.level,
                    "mi": n.mi,
                    "entropy": n.entropy,
                    "voxel_count": n.voxel_count,
                }
                for n in self.leaf_nodes()
            ],
            "subdomain_counts": self.subdomain_counts,
            "mir_curve": self.mir_curve,
            "snr_raw_curve": [enc(v) for v in self.snr_raw_curve],
            "snr_curve": self.snr_curve,
            "optimal_count": self.optimal_count,
            "converged": self.converged,
        }
        return json.dumps(doc, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# The reference channel, once per volume
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceField:
    """A volume's reference channel as the partitioner reads it.

    values is the channel in float64 and laplacian its ndimage.laplace;
    interior marks the masked voxels whose six face neighbours are masked,
    none of them on a volume face.
    """

    values: np.ndarray
    mask: np.ndarray
    laplacian: np.ndarray
    interior: np.ndarray


def reference_field(vol: MultiChannelVolume) -> ReferenceField:
    """The ReferenceField of vol, computed once per partition."""
    values = vol.data[..., REFERENCE_CHANNEL].astype(np.float64)
    mask = vol.mask
    interior = np.zeros_like(mask)
    interior[1:-1, 1:-1, 1:-1] = (
        mask[1:-1, 1:-1, 1:-1]
        & mask[:-2, 1:-1, 1:-1] & mask[2:, 1:-1, 1:-1]
        & mask[1:-1, :-2, 1:-1] & mask[1:-1, 2:, 1:-1]
        & mask[1:-1, 1:-1, :-2] & mask[1:-1, 1:-1, 2:]
    )
    return ReferenceField(values, mask, ndimage.laplace(values), interior)


# ---------------------------------------------------------------------------
# Per node: Otsu split, entropy, noise and SNR
# ---------------------------------------------------------------------------

def otsu_threshold(values: np.ndarray) -> float | None:
    """Two-bin Otsu threshold of values; the low bin is values < threshold.

    The threshold maximizes between-class variance over 256 candidate cuts;
    tied maxima resolve to the middle candidate. None for empty or constant
    values, whose entropy and MI are 0.
    """
    if values.size == 0:
        return None
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return None

    edges = np.linspace(lo, hi, N_OTSU_BINS + 1)
    idx = np.clip(np.searchsorted(edges, values, side="right") - 1, 0, N_OTSU_BINS - 1)
    counts = np.bincount(idx, minlength=N_OTSU_BINS).astype(np.float64)
    sums = np.bincount(idx, weights=values, minlength=N_OTSU_BINS)

    w1 = np.cumsum(counts)[:-1]          # candidate cut after bin t, t = 0..254
    s1 = np.cumsum(sums)[:-1]
    n = values.size
    total = float(values.sum())
    w2 = n - w1
    valid = (w1 > 0) & (w2 > 0)
    sigma_b = np.full(N_OTSU_BINS - 1, -np.inf)
    mu1 = np.divide(s1, w1, out=np.zeros_like(s1), where=valid)
    mu2 = np.divide(total - s1, w2, out=np.zeros_like(s1), where=valid)
    sigma_b[valid] = w1[valid] * w2[valid] * (mu1[valid] - mu2[valid]) ** 2

    best = sigma_b.max()
    tied = np.flatnonzero(sigma_b >= best)
    t = int(round(tied.mean()))
    return float(edges[t + 1])


def bin_entropy(bin_counts, total: int) -> float:
    """H(X) of the histogram bins, in nats; 0 for an empty histogram."""
    h = 0.0
    for n in bin_counts:
        if n > 0:
            p = n / total
            h -= p * math.log(p)
    return h


def noise_sigma(ref: ReferenceField, bounds: Bounds) -> float:
    """Robust reference-channel noise std: scaled MAD of the box's interior Laplacian.

    The box's interior is its voxels off the box faces whose six face
    neighbours are masked, so edges and mask boundaries do not contaminate
    the estimate; there the whole-volume Laplacian equals the box's own.
    Returns 0.0 when fewer than 8 interior voxels exist.
    """
    inner = tuple(slice(lo + 1, hi) for lo, hi in bounds)
    values = ref.laplacian[inner][ref.interior[inner]]
    if values.size < 8:
        return 0.0
    mad = float(np.median(np.abs(values - np.median(values))))
    return mad / _MAD_SCALE / _LAPLACIAN_GAIN


def measure(ref: ReferenceField, bounds: Bounds, level: int = 0,
            parent: int | None = None) -> Subdomain:
    """A node over bounds, from one read of its box's masked values.

    They give the voxel count, the Otsu threshold and the entropy of its
    two bins, and the SNR: their mean over noise_sigma, +inf when the box
    has no masked voxel or no noise.
    """
    sl = box_slices(bounds)
    values = ref.values[sl][ref.mask[sl]]
    node = Subdomain(bounds=bounds, voxel_count=values.size, level=level, parent=parent,
                     threshold=otsu_threshold(values))
    if node.threshold is not None:
        n_low = int(np.count_nonzero(values < node.threshold))
        node.entropy = bin_entropy((n_low, values.size - n_low), values.size)
    sigma = noise_sigma(ref, bounds)   # 0.0 without masked voxels
    if sigma > 0.0:
        node.snr = float(values.mean()) / sigma
    return node


# ---------------------------------------------------------------------------
# Optimal cut search
# ---------------------------------------------------------------------------

def cut_mi(entropy: float, slabs, total: int) -> float:
    """MI (nats) between the histogram bins and a cut's two slabs.

    slabs holds each slab's (low bin, high bin) counts, total their sum and
    entropy the bins' H(X). MI = H(X) - H(X | slab); zero counts contribute
    nothing, and both entropy terms are sums of non-negative contributions,
    so the result lies in [0, H(X)] in floating point.
    """
    h_cond = 0.0
    for slab in slabs:
        nj = sum(slab)
        if nj <= 0:
            continue
        for nij in slab:
            if nij > 0:
                h_cond -= (nij / total) * math.log(nij / nj)
    return max(0.0, entropy - h_cond)


def best_cut(ref: ReferenceField, node: Subdomain) -> tuple[tuple[int, int], float] | None:
    """The measured node's argmax-MI cut (axis, absolute cut index) and its MI.

    Every feasible cut, leaving at least MIN_SLAB slices on each side, is
    scored. Ties break by axis order (sagittal < coronal < axial), then by
    smaller cut index. Returns None when no axis admits a cut.
    """
    sl = node.slices()
    mask = ref.mask[sl]
    if node.threshold is None:
        low = np.zeros_like(mask)
    else:
        low = mask & (ref.values[sl] < node.threshold)
    n = node.voxel_count
    best = None
    for axis in range(3):
        lo, hi = node.bounds[axis]
        length = hi - lo + 1
        if length < 2 * MIN_SLAB:
            continue
        other = tuple(a for a in range(3) if a != axis)
        cum_mask = [0, *np.cumsum(mask.sum(axis=other)).tolist()]
        cum_low = [0, *np.cumsum(low.sum(axis=other)).tolist()]
        n_low = cum_low[-1]
        for cut in range(MIN_SLAB, length - MIN_SLAB + 1):
            n1, n1_low = cum_mask[cut], cum_low[cut]
            mi = cut_mi(node.entropy, ((n1_low, n1 - n1_low),
                                       (n_low - n1_low, (n - n1) - (n_low - n1_low))), n)
            if best is None or mi > best[1]:
                best = (axis, lo + cut), mi
    return best


# ---------------------------------------------------------------------------
# MIR over a leaf set
# ---------------------------------------------------------------------------

def _mir_over(nodes: list[Subdomain]) -> float:
    total = sum(n.voxel_count for n in nodes)
    if total == 0:
        return 0.0
    mi_t = sum(n.voxel_count * n.mi for n in nodes) / total
    h_t = sum(n.voxel_count * n.entropy for n in nodes) / total
    if h_t <= 0.0:
        return 0.0
    return min(1.0, mi_t / h_t)


# ---------------------------------------------------------------------------
# SNR curve
# ---------------------------------------------------------------------------

def normalize_snr_curve(snr_values, mir_values) -> list[float]:
    """Min-max rescale the SNR curve onto the MIR value range.

    Infinite SNR entries are excluded from the rescaling and pinned to the
    top of the MIR range; a flat or empty finite set maps everything to the
    range bottom so a degenerate curve meets the MIR curve immediately.
    """
    snr_arr = np.asarray(snr_values, dtype=np.float64)
    mir_arr = np.asarray(mir_values, dtype=np.float64)
    mir_lo = float(mir_arr.min()) if mir_arr.size else 0.0
    mir_hi = float(mir_arr.max()) if mir_arr.size else 0.0
    finite = np.isfinite(snr_arr)
    out = np.full(snr_arr.shape, mir_lo)
    if finite.any():
        lo = snr_arr[finite].min()
        hi = snr_arr[finite].max()
        if hi > lo:
            out[finite] = (snr_arr[finite] - lo) / (hi - lo) * (mir_hi - mir_lo) + mir_lo
    out[~finite] = mir_hi
    return [float(v) for v in out]


# ---------------------------------------------------------------------------
# Partition driver
# ---------------------------------------------------------------------------

def _find_intercept(counts, mir, snr_norm) -> tuple[float, bool]:
    """Abscissa where the SNR curve first meets or crosses below the MIR curve."""
    diffs = [s - m for s, m in zip(snr_norm, mir)]
    if diffs[0] <= 0:
        return float(counts[0]), True
    for k in range(1, len(diffs)):
        if diffs[k] <= 0:
            d0, d1 = diffs[k - 1], diffs[k]
            x0, x1 = counts[k - 1], counts[k]
            frac = d0 / (d0 - d1) if d0 != d1 else 1.0
            return x0 + frac * (x1 - x0), True
    return float(counts[-1]), False


def partition(vol: MultiChannelVolume, max_depth: int = 7,
              pad_slices: int = 2) -> PartitionTree:
    """Recursively split the masked volume and select the optimal leaf set.

    Levels are grown to max_depth while recording the MIR acquired by each
    level's cuts and the mean SNR of the level's subdomains; the SNR
    curve is rescaled onto the MIR range and the first intersection picks
    the target subdomain count. A count falling strictly between two levels
    keeps that many of the deeper level's largest leaves and merges unkept
    sibling pairs back to their parents. Every internal planar boundary is
    finally padded by pad_slices on each side: adjacent leaves share a
    2*pad_slices-wide overlap.
    """
    ref = reference_field(vol)
    tree = PartitionTree()

    def search(node: Subdomain):
        node.cut, node.mi = best_cut(ref, node) or (None, 0.0)

    def add(bounds: Bounds, level: int, parent: int | None = None) -> int:
        # a node is searched for its cut when it can still split; a
        # deepest-level node only when it ends up a leaf
        node = measure(ref, bounds, level, parent)
        if level < max_depth:
            search(node)
        tree.nodes.append(node)
        return len(tree.nodes) - 1

    dims = vol.dims
    current = [add(tuple((0, d - 1) for d in dims), 0)]
    leaf_sets: list[list[int]] = [current]   # index k: leaf ids after level k
    for k in range(1, max_depth + 1):
        # a node left over from an earlier level has no cut
        if all(tree.nodes[i].cut is None for i in current):
            break

        # MIR of the decomposition this level's cuts create, evaluated on
        # the pre-split leaves carrying their own optimal-cut MI.
        mir_k = _mir_over([tree.nodes[i] for i in current])

        next_leaves = []
        for idx in current:
            node = tree.nodes[idx]
            if node.cut is not None:
                first, second = _split_bounds(node.bounds, node.cut)
                node.children = (add(first, k, idx), add(second, k, idx))
                next_leaves.extend(node.children)
            else:
                next_leaves.append(idx)

        current = next_leaves
        leaf_sets.append(current)
        tree.subdomain_counts.append(len(current))
        tree.mir_curve.append(mir_k)
        # degenerate subdomains (empty or noiseless) carry the +inf sentinel
        # and are excluded from the level mean; a level with no finite
        # subdomain keeps the sentinel and is excluded from curve normalization
        finite = [tree.nodes[i].snr for i in current if math.isfinite(tree.nodes[i].snr)]
        tree.snr_raw_curve.append(float(np.mean(finite)) if finite else math.inf)

    if not tree.subdomain_counts:
        tree.leaves = [0]
        tree.optimal_count = 1
    else:
        tree.snr_curve = normalize_snr_curve(tree.snr_raw_curve, tree.mir_curve)
        intercept, converged = _find_intercept(
            tree.subdomain_counts, tree.mir_curve, tree.snr_curve)
        tree.converged = converged
        if not converged:
            logger.warning(
                "MIR and SNR curves never intersect within %d levels; "
                "using the deepest decomposition (%d subdomains)",
                max_depth, tree.subdomain_counts[-1])
        n_star = int(round(intercept))
        n_star = max(min(n_star, tree.subdomain_counts[-1]), tree.subdomain_counts[0])
        tree.optimal_count = n_star

        level_idx = 0
        while (level_idx < len(tree.subdomain_counts)
               and tree.subdomain_counts[level_idx] < n_star):
            level_idx += 1
        level_idx = min(level_idx, len(tree.subdomain_counts) - 1)

        tree.leaves = leaf_sets[level_idx + 1]
        if tree.subdomain_counts[level_idx] > n_star:
            tree.leaves = _partial_selection(tree, tree.leaves, n_star)

    for idx in tree.leaves:
        if tree.nodes[idx].level == max_depth:
            search(tree.nodes[idx])
    _pad_leaves(tree, dims, pad_slices)
    return tree


def _split_bounds(bounds, cut: tuple[int, int]):
    axis, c = cut
    first = tuple((lo, c - 1) if a == axis else (lo, hi)
                  for a, (lo, hi) in enumerate(bounds))
    second = tuple((c, hi) if a == axis else (lo, hi)
                   for a, (lo, hi) in enumerate(bounds))
    return first, second


def _partial_selection(tree: PartitionTree, deep_leaves: list[int], n_star: int) -> list[int]:
    """Keep the n_star largest deep leaves; merge unkept sibling pairs."""
    order = sorted(deep_leaves, key=lambda i: (-tree.nodes[i].voxel_count, i))
    kept = set(order[:n_star])
    unkept = set(deep_leaves) - kept
    result = list(kept)
    merged_parents = set()
    for i in sorted(unkept):
        # a deep leaf is never the root, which either splits at level 1 or
        # ends the level loop there
        parent = tree.nodes[i].parent
        siblings = tree.nodes[parent].children
        if siblings and all(s in unkept for s in siblings):
            if parent not in merged_parents:
                merged_parents.add(parent)
                result.append(parent)
        else:
            result.append(i)
    return sorted(result, key=lambda i: tree.nodes[i].bounds)


def _pad_leaves(tree: PartitionTree, dims, pad: int):
    for idx in tree.leaves:
        node = tree.nodes[idx]
        padded = []
        for axis, (lo, hi) in enumerate(node.bounds):
            p_lo = lo if lo == 0 else max(0, lo - pad)
            p_hi = hi if hi == dims[axis] - 1 else min(dims[axis] - 1, hi + pad)
            padded.append((p_lo, p_hi))
        node.padded_bounds = tuple(padded)
