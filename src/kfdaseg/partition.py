"""Mutual-information driven recursive volume partitioning.

Each subdomain is scored by the mutual information between a two-bin Otsu
histogram of its masked intensities and a two-slab spatial clustering; the
split maximizing MI over all axis-aligned cut planes wins. Every intensity
read is of the reference channel (t1w). Partition depth is selected where
the mutual-information-ratio curve meets the (rescaled) signal-to-noise
curve, and the chosen leaves are padded so adjacent subdomains share a
4-slice overlap.
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


# ---------------------------------------------------------------------------
# Histogram / clustering records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Histogram2:
    """Two-bin intensity histogram of a subdomain's masked voxels."""

    bin_counts: tuple[int, int]
    total: int
    threshold: float
    degenerate: bool = False

    def entropy(self) -> float:
        """Shannon entropy of the bin distribution, in nats."""
        return 0.0 if self.degenerate else _bin_entropy(self.bin_counts, self.total)


@dataclass(frozen=True)
class SlabClustering:
    """Two-way split of a subdomain into slabs perpendicular to one axis.

    cut_index is the absolute slice index where the second slab begins.
    joint_counts[i, j] counts masked voxels in histogram bin i+1 and slab j+1.
    """

    axis: int
    cut_index: int
    cluster_sizes: tuple[int, int]
    joint_counts: np.ndarray


@dataclass
class Subdomain:
    """Axis-aligned box with MI bookkeeping.

    bounds are inclusive ((i0,i1),(j0,j1),(k0,k1)) index ranges;
    voxel_count counts masked voxels only. padded_bounds is set on final
    leaves after overlap padding; bounds always stay the core (tiling) box.
    """

    bounds: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    voxel_count: int
    level: int = 0
    mi: float = 0.0
    entropy: float = 0.0
    snr: float | None = None
    parent: int | None = None
    children: tuple[int, int] | None = None
    cut: SlabClustering | None = None
    prepared: bool = False
    padded_bounds: tuple[tuple[int, int], tuple[int, int], tuple[int, int]] | None = None

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
                    "padded_bounds": [list(b) for b in (n.padded_bounds or n.bounds)],
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
# Two-bin Otsu histogram
# ---------------------------------------------------------------------------

def _reference_box(vol: MultiChannelVolume, sub: Subdomain) -> tuple[np.ndarray, np.ndarray]:
    """The subdomain box's reference-channel intensities (float64) and mask."""
    sl = sub.slices()
    return vol.data[sl][..., REFERENCE_CHANNEL].astype(np.float64), vol.mask[sl]


def _masked_values(vol: MultiChannelVolume, sub: Subdomain) -> np.ndarray:
    box, mask = _reference_box(vol, sub)
    return box[mask]


def histogram_2bin(vol: MultiChannelVolume, sub: Subdomain) -> Histogram2:
    """Otsu-split the subdomain's masked reference intensities into two bins.

    The threshold maximizes between-class variance over 256 candidate cuts;
    tied maxima resolve to the middle candidate. A constant subdomain yields
    a degenerate single-bin histogram (its MI is defined as 0).
    """
    values = _masked_values(vol, sub)
    if values.size == 0:
        return Histogram2(bin_counts=(0, 0), total=0, threshold=0.0, degenerate=True)
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return Histogram2(bin_counts=(values.size, 0), total=values.size,
                          threshold=lo, degenerate=True)

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
    threshold = float(edges[t + 1])

    n1 = int(np.count_nonzero(values < threshold))
    return Histogram2(bin_counts=(n1, n - n1), total=n, threshold=threshold)


# ---------------------------------------------------------------------------
# Mutual information
# ---------------------------------------------------------------------------

def _bin_entropy(bin_counts, total: int) -> float:
    """H(X) of the histogram bins, in nats; 0 for an empty histogram."""
    h = 0.0
    for n in bin_counts:
        if n > 0:
            p = n / total
            h -= p * math.log(p)
    return h


def _mi_from_counts(bin_counts, joint: np.ndarray, total: int) -> float:
    # MI = H(X) - H(X | clusters); both entropy terms are sums of
    # non-negative contributions, so MI <= H(X) holds in floating point.
    if total == 0:
        return 0.0
    h_x = _bin_entropy(bin_counts, total)
    cluster_sizes = joint.sum(axis=0)
    h_cond = 0.0
    for j in range(joint.shape[1]):
        nj = cluster_sizes[j]
        if nj <= 0:
            continue
        for i in range(joint.shape[0]):
            nij = joint[i, j]
            if nij > 0:
                h_cond -= (nij / total) * math.log(nij / nj)
    return max(0.0, h_x - h_cond)


def mutual_information(h: Histogram2, c: SlabClustering) -> float:
    """MI (nats) between histogram bins and the slab clustering.

    Zero joint counts contribute nothing; the result lies in [0, H(X)].
    Raises ValueError on marginals inconsistent between h and c.
    """
    if h.degenerate:
        return 0.0
    joint = np.asarray(c.joint_counts, dtype=np.float64)
    if joint.shape != (2, 2):
        raise ValueError(f"joint_counts must be 2x2, got {joint.shape}")
    if h.total != c.cluster_sizes[0] + c.cluster_sizes[1]:
        raise ValueError(
            f"histogram total {h.total} != cluster sizes {c.cluster_sizes}")
    if not np.array_equal(joint.sum(axis=1), np.asarray(h.bin_counts, dtype=np.float64)):
        raise ValueError(
            f"joint row sums {joint.sum(axis=1)} != bin counts {h.bin_counts}")
    if not np.array_equal(joint.sum(axis=0), np.asarray(c.cluster_sizes, dtype=np.float64)):
        raise ValueError(
            f"joint column sums {joint.sum(axis=0)} != cluster sizes {c.cluster_sizes}")
    return _mi_from_counts(h.bin_counts, joint, h.total)


# ---------------------------------------------------------------------------
# Optimal cut search
# ---------------------------------------------------------------------------

def best_cut(vol: MultiChannelVolume, sub: Subdomain,
             hist: Histogram2) -> tuple[SlabClustering, float] | None:
    """Exhaustively scan all feasible cut planes and return the argmax-MI cut.

    hist is histogram_2bin(vol, sub). Feasible cuts leave at least MIN_SLAB
    slices on each side. Ties break by axis order (sagittal < coronal <
    axial), then by smaller cut index. Returns None when no axis admits a
    cut.
    """
    box, mask = _reference_box(vol, sub)
    low = (box < hist.threshold) & mask if not hist.degenerate else np.zeros_like(mask)

    best_result = None
    best_mi = -1.0
    for axis in range(3):
        lo, hi = sub.bounds[axis]
        length = hi - lo + 1
        if length < 2 * MIN_SLAB:
            continue
        other = tuple(a for a in range(3) if a != axis)
        mask_per_slice = mask.sum(axis=other).astype(np.int64)
        low_per_slice = low.sum(axis=other).astype(np.int64)
        cum_mask = np.concatenate(([0], np.cumsum(mask_per_slice)))
        cum_low = np.concatenate(([0], np.cumsum(low_per_slice)))
        n_total = int(cum_mask[-1])
        n_low = int(cum_low[-1])
        for local_cut in range(MIN_SLAB, length - MIN_SLAB + 1):
            n1_low = int(cum_low[local_cut])
            n1_mask = int(cum_mask[local_cut])
            joint = np.array([
                [n1_low, n_low - n1_low],
                [n1_mask - n1_low, (n_total - n1_mask) - (n_low - n1_low)],
            ], dtype=np.float64)
            mi = 0.0 if hist.degenerate else _mi_from_counts(hist.bin_counts, joint, hist.total)
            if mi > best_mi:
                best_mi = mi
                best_result = SlabClustering(
                    axis=axis,
                    cut_index=lo + local_cut,
                    cluster_sizes=(n1_mask, n_total - n1_mask),
                    joint_counts=joint,
                )
    if best_result is None:
        return None
    return best_result, best_mi


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
# Noise and SNR
# ---------------------------------------------------------------------------

def noise_sigma(vol: MultiChannelVolume, sub: Subdomain) -> float:
    """Robust reference-channel noise std: scaled MAD of the interior Laplacian.

    Interior voxels have all six face neighbours masked and inside the
    subdomain box, so edges and mask boundaries do not contaminate the
    estimate. Returns 0.0 when fewer than 8 interior voxels exist.
    """
    box, mask = _reference_box(vol, sub)
    if min(box.shape) < 3:
        return 0.0
    lap = ndimage.laplace(box)
    interior = np.zeros_like(mask)
    interior[1:-1, 1:-1, 1:-1] = (
        mask[1:-1, 1:-1, 1:-1]
        & mask[:-2, 1:-1, 1:-1] & mask[2:, 1:-1, 1:-1]
        & mask[1:-1, :-2, 1:-1] & mask[1:-1, 2:, 1:-1]
        & mask[1:-1, 1:-1, :-2] & mask[1:-1, 1:-1, 2:]
    )
    values = lap[interior]
    if values.size < 8:
        return 0.0
    mad = float(np.median(np.abs(values - np.median(values))))
    return mad / _MAD_SCALE / _LAPLACIAN_GAIN


def snr(vol: MultiChannelVolume, sub: Subdomain) -> float:
    """Mean masked reference intensity over the noise std; +inf when noiseless."""
    values = _masked_values(vol, sub)
    if values.size == 0:
        return math.inf
    sigma = noise_sigma(vol, sub)
    if sigma <= 0.0:
        return math.inf
    return float(values.mean()) / sigma


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

def _prepare_leaf(vol, node: Subdomain):
    """Attach the node's own best cut, entropy and SNR (idempotent)."""
    if node.prepared:
        return
    hist = histogram_2bin(vol, node)
    node.entropy = hist.entropy()
    _node_snr(vol, node)
    result = best_cut(vol, node, hist)
    if result is not None:
        node.cut, node.mi = result
    else:
        node.cut, node.mi = None, 0.0
    node.prepared = True


def _node_snr(vol, node: Subdomain) -> float:
    if node.snr is None:
        node.snr = snr(vol, node)
    return node.snr


def _level_snr(vol, nodes) -> float:
    # degenerate subdomains (empty or noiseless) carry the +inf sentinel and
    # are excluded from the level mean; a level with no finite subdomain
    # keeps the sentinel and is excluded from curve normalization
    vals = [_node_snr(vol, n) for n in nodes]
    finite = [v for v in vals if math.isfinite(v)]
    if not finite:
        return math.inf
    return float(np.mean(finite))


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
    level's cuts and the mean SNR of the newly created subdomains; the SNR
    curve is rescaled onto the MIR range and the first intersection picks
    the target subdomain count. A count falling strictly between two levels
    keeps that many of the deeper level's largest leaves and merges unkept
    sibling pairs back to their parents. Every internal planar boundary is
    finally padded by pad_slices on each side: adjacent leaves share a
    2*pad_slices-wide overlap.
    """
    tree = PartitionTree()
    dims = vol.dims
    tree.nodes.append(Subdomain(
        bounds=((0, dims[0] - 1), (0, dims[1] - 1), (0, dims[2] - 1)),
        voxel_count=int(vol.mask.sum()),
        level=0,
    ))

    leaf_sets: list[list[int]] = [[0]]   # index k: leaf ids after level k
    current = [0]
    for k in range(1, max_depth + 1):
        for idx in current:
            _prepare_leaf(vol, tree.nodes[idx])
        # a node left over from an earlier level has no cut
        if all(tree.nodes[i].cut is None for i in current):
            break

        # MIR of the decomposition this level's cuts create, evaluated on
        # the pre-split leaves carrying their own optimal-cut MI.
        mir_k = _mir_over([tree.nodes[i] for i in current])

        next_leaves = []
        for idx in current:
            node = tree.nodes[idx]
            if node.cut is None:
                next_leaves.append(idx)
                continue
            pair = []
            for child_bounds in _split_bounds(node.bounds, node.cut):
                child = Subdomain(
                    bounds=child_bounds,
                    voxel_count=int(vol.mask[box_slices(child_bounds)].sum()),
                    level=k,
                    parent=idx,
                )
                tree.nodes.append(child)
                pair.append(len(tree.nodes) - 1)
            node.children = (pair[0], pair[1])
            next_leaves.extend(pair)

        current = next_leaves
        leaf_sets.append(list(current))
        tree.subdomain_counts.append(len(current))
        tree.mir_curve.append(mir_k)
        tree.snr_raw_curve.append(_level_snr(vol, [tree.nodes[i] for i in current]))

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
        _prepare_leaf(vol, tree.nodes[idx])
    _pad_leaves(tree, dims, pad_slices)
    return tree


def _split_bounds(bounds, cut: SlabClustering):
    axis, c = cut.axis, cut.cut_index
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
