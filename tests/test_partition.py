"""Partitioner: Otsu binning, MI, cut search, MIR, SNR and the full driver."""

import math

import numpy as np
import pytest
from scipy import ndimage

from kfdaseg.partition import (Histogram2, PartitionTree, SlabClustering,
                               Subdomain, best_cut, histogram_2bin,
                               mutual_information, noise_sigma, partition, snr)
from kfdaseg.volume import REFERENCE_CHANNEL, MultiChannelVolume, box_slices
from oracles import cnr, total_mir

LOG2 = 0.6931471805599453


def volume_from_array(arr, mask=None):
    arr = np.asarray(arr, dtype=np.float32)
    if arr.ndim == 3:
        arr = arr[..., None]
    if mask is None:
        mask = np.ones(arr.shape[:3], dtype=bool)
    return MultiChannelVolume(data=arr, mask=mask)


def full_subdomain(vol):
    dims = vol.dims
    return Subdomain(bounds=((0, dims[0] - 1), (0, dims[1] - 1), (0, dims[2] - 1)),
                     voxel_count=int(vol.mask.sum()))


def smooth_noisy_volume(dims, seed, noise=0.03, contrast=1.0):
    """Smooth low-frequency field plus i.i.d. noise, mapped into [0, 1]."""
    rng = np.random.default_rng(seed)
    coarse = rng.uniform(-1, 1, size=(4, 4, 4))
    field = ndimage.zoom(coarse, [d / 4 for d in dims], order=3, mode="nearest",
                         grid_mode=True)[: dims[0], : dims[1], : dims[2]]
    field = (field - field.min()) / (field.max() - field.min())
    data = 0.5 + contrast * (field - 0.5) + rng.normal(0, noise, size=dims)
    return volume_from_array(np.clip(data, 0, 1))


# ---------------------------------------------------------------------------
# Two-bin Otsu histogram
# ---------------------------------------------------------------------------

def test_otsu_symmetric_bimodal():
    data = np.array([0.0, 0.0, 1.0, 1.0], dtype=np.float32).reshape(4, 1, 1)
    vol = volume_from_array(data)
    hist = histogram_2bin(vol, full_subdomain(vol))
    assert hist.bin_counts == (2, 2)
    assert hist.threshold == pytest.approx(0.5)
    assert not hist.degenerate


def test_otsu_constant_degenerate():
    vol = volume_from_array(np.full((4, 4, 4), 0.7))
    hist = histogram_2bin(vol, full_subdomain(vol))
    assert hist.degenerate
    assert hist.entropy() == 0.0


def _otsu_oracle_bins(values):
    """Exhaustive scan over the 255 interior candidate edges; the objective
    is the between-class variance computed directly from the raw samples."""
    lo, hi = values.min(), values.max()
    edges = np.linspace(lo, hi, 257)
    best_val = -np.inf
    tied = []
    for t in range(255):
        theta = edges[t + 1]
        left = values[values < theta]
        right = values[values >= theta]
        if left.size == 0 or right.size == 0:
            continue
        val = left.size * right.size * (left.mean() - right.mean()) ** 2
        if val > best_val + 1e-12 * abs(best_val):
            best_val = val
            tied = [t]
        elif abs(val - best_val) <= 1e-9 * max(abs(best_val), 1.0):
            tied.append(t)
    t_star = int(round(np.mean(tied)))
    theta = edges[t_star + 1]
    n1 = int((values < theta).sum())
    return n1, values.size - n1


def test_otsu_matches_exhaustive_threshold_oracle():
    rng = np.random.default_rng(42)
    for trial in range(10):
        values = np.concatenate([
            rng.normal(0.25, 0.05, size=300), rng.normal(0.75, 0.06, size=200)])
        values = np.clip(values, 0, 1).astype(np.float32)
        vol = volume_from_array(values.reshape(-1, 1, 1))
        hist = histogram_2bin(vol, full_subdomain(vol))
        assert hist.bin_counts == _otsu_oracle_bins(values.astype(np.float64))


# ---------------------------------------------------------------------------
# Mutual information
# ---------------------------------------------------------------------------

def clustering(joint):
    joint = np.asarray(joint, dtype=np.float64)
    sizes = joint.sum(axis=0)
    return SlabClustering(axis=0, cut_index=3,
                          cluster_sizes=(int(sizes[0]), int(sizes[1])),
                          joint_counts=joint)


def histogram(joint):
    joint = np.asarray(joint, dtype=np.float64)
    rows = joint.sum(axis=1)
    return Histogram2(bin_counts=(int(rows[0]), int(rows[1])),
                      total=int(joint.sum()), threshold=0.5)


def mi_oracle(joint):
    """Direct double summation of the defining formula."""
    joint = np.asarray(joint, dtype=np.float64)
    total = joint.sum()
    n_i = joint.sum(axis=1)
    n_j = joint.sum(axis=0)
    mi = 0.0
    for i in range(2):
        if n_i[i] > 0:
            mi -= (n_i[i] / total) * math.log(n_i[i] / total)
    for j in range(2):
        for i in range(2):
            if joint[i, j] > 0:
                mi += (joint[i, j] / total) * math.log(joint[i, j] / n_j[j])
    return mi


def test_mi_perfect_separation_equals_entropy():
    joint = [[4, 0], [0, 4]]
    value = mutual_information(histogram(joint), clustering(joint))
    assert value == pytest.approx(LOG2, abs=1e-15)
    assert value == histogram(joint).entropy()


def test_mi_independence_is_zero():
    joint = [[3, 3], [1, 1]]   # n_ij = n_i * N_j / N
    assert mutual_information(histogram(joint), clustering(joint)) == \
        pytest.approx(0.0, abs=1e-15)


def test_mi_matches_direct_summation_oracle():
    joint = [[4, 2], [0, 2]]
    value = mutual_information(histogram(joint), clustering(joint))
    # frozen from the double-summation oracle
    assert value == pytest.approx(0.21576155433883562, abs=1e-12)
    assert value == pytest.approx(mi_oracle(joint), abs=1e-12)


def test_mi_random_tables_oracle_and_bounds():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        joint = rng.integers(0, 50, size=(2, 2)).astype(np.float64)
        if joint.sum() == 0:
            continue
        h = histogram(joint)
        value = mutual_information(h, clustering(joint))
        assert abs(value - max(0.0, mi_oracle(joint))) <= 1e-12
        assert 0.0 <= value <= h.entropy() + 1e-15


def test_mi_inconsistent_marginals_rejected():
    h = Histogram2(bin_counts=(5, 3), total=8, threshold=0.5)
    c = SlabClustering(axis=0, cut_index=3, cluster_sizes=(4, 4),
                      joint_counts=np.array([[4.0, 2.0], [1.0, 2.0]]))
    with pytest.raises(ValueError, match="row sums"):
        mutual_information(h, c)


# ---------------------------------------------------------------------------
# Cut search
# ---------------------------------------------------------------------------

def exhaustive_best_cut(vol, sub):
    """Enumerate every feasible cut, building each clustering explicitly."""
    hist = histogram_2bin(vol, sub)
    sl = sub.slices()
    box = vol.data[sl][..., REFERENCE_CHANNEL].astype(np.float64)
    mask = vol.mask[sl]
    low = (box < hist.threshold) & mask
    best = None
    for axis in range(3):
        lo, hi = sub.bounds[axis]
        length = hi - lo + 1
        for local_cut in range(3, length - 2):
            sel1 = [slice(None)] * 3
            sel1[axis] = slice(0, local_cut)
            sel1 = tuple(sel1)
            n1 = int(mask[sel1].sum())
            n1_low = int(low[sel1].sum())
            n_low = int(low.sum())
            n_tot = int(mask.sum())
            joint = np.array([[n1_low, n_low - n1_low],
                              [n1 - n1_low, (n_tot - n1) - (n_low - n1_low)]],
                             dtype=np.float64)
            c = SlabClustering(axis=axis, cut_index=lo + local_cut,
                               cluster_sizes=(n1, n_tot - n1), joint_counts=joint)
            value = mutual_information(hist, c)
            if best is None or value > best[1]:
                best = (c, value)
    return best


def test_planar_ground_truth_cut():
    data = np.full((6, 6, 10), 0.2, dtype=np.float32)
    data[:, :, 5:] = 0.8
    vol = volume_from_array(data)
    result = best_cut(vol, full_subdomain(vol), histogram_2bin(vol, full_subdomain(vol)))
    assert result is not None
    cut, mi = result
    assert cut.axis == 2
    assert cut.cut_index == 5
    assert mi == pytest.approx(histogram_2bin(vol, full_subdomain(vol)).entropy(),
                               abs=1e-12)


def test_unsplittable_small_subdomain():
    vol = volume_from_array(np.random.default_rng(0).random((5, 5, 5)))
    assert best_cut(vol, full_subdomain(vol),
                    histogram_2bin(vol, full_subdomain(vol))) is None


def test_best_cut_matches_exhaustive_enumeration():
    rng = np.random.default_rng(99)
    for trial in range(10):
        dims = tuple(rng.integers(6, 13, size=3))
        mask = rng.random(dims) > 0.2
        if not mask.any():
            continue
        vol = volume_from_array(rng.random(dims), mask=mask)
        sub = full_subdomain(vol)
        got = best_cut(vol, sub, histogram_2bin(vol, sub))
        want = exhaustive_best_cut(vol, sub)
        assert got is not None and want is not None
        assert got[0].axis == want[0].axis
        assert got[0].cut_index == want[0].cut_index
        assert got[1] == pytest.approx(want[1], abs=1e-12)


# ---------------------------------------------------------------------------
# MIR
# ---------------------------------------------------------------------------

def tree_with_leaves(entries):
    tree = PartitionTree()
    for voxels, mi, entropy in entries:
        tree.nodes.append(Subdomain(bounds=((0, 1), (0, 1), (0, 1)),
                                    voxel_count=voxels, mi=mi, entropy=entropy))
        tree.leaves.append(len(tree.nodes) - 1)
    return tree


def test_mir_single_perfect_leaf():
    assert total_mir(tree_with_leaves([(64, LOG2, LOG2)])) == pytest.approx(1.0)


def test_mir_all_zero_mi():
    assert total_mir(tree_with_leaves([(10, 0.0, 0.5), (20, 0.0, 0.6)])) == 0.0


def test_mir_weighted_sum_oracle():
    leaves = [(100, 0.30, 0.60), (50, 0.20, 0.40), (150, 0.50, 0.65), (200, 0.10, 0.55)]
    # frozen hand-rolled weighted-sum value
    assert total_mir(tree_with_leaves(leaves)) == pytest.approx(
        0.4695652173913044, abs=1e-12)


def test_mir_empty_tree_errors():
    with pytest.raises(ValueError):
        total_mir(PartitionTree())


# ---------------------------------------------------------------------------
# Noise / SNR / CNR
# ---------------------------------------------------------------------------

def test_noise_estimate_on_known_phantom():
    rng = np.random.default_rng(5)
    dims = (24, 24, 24)
    base = np.linspace(0.3, 0.7, dims[0])[:, None, None] * np.ones(dims)
    data = base + rng.normal(0, 0.05, size=dims)
    vol = volume_from_array(data)
    est = noise_sigma(vol, full_subdomain(vol))
    assert abs(est - 0.05) / 0.05 < 0.15


def test_snr_infinite_for_noiseless_constant():
    vol = volume_from_array(np.full((8, 8, 8), 0.4))
    assert snr(vol, full_subdomain(vol)) == math.inf


def test_snr_scale_invariance_of_normalized_curve():
    from kfdaseg.partition import normalize_snr_curve
    snr_values = [50.0, 30.0, 18.0, 10.0]
    mir = [0.2, 0.5, 0.7, 0.8]
    doubled = [2 * v for v in snr_values]
    assert normalize_snr_curve(snr_values, mir) == \
        pytest.approx(normalize_snr_curve(doubled, mir))


def test_cnr_values():
    rng = np.random.default_rng(8)
    dims = (20, 10, 10)
    labels = np.full(dims, 2, dtype=np.uint8)
    labels[10:] = 3
    data = np.where(labels == 2, 0.2, 0.8) + rng.normal(0, 0.1, size=dims)
    vol = volume_from_array(data)
    sub = full_subdomain(vol)
    value = cnr(vol, sub, labels, 2, 3)
    assert value == pytest.approx(6.0, rel=0.15)
    # identical class means -> 0
    flat = volume_from_array(np.full(dims, 0.5) + rng.normal(0, 0.1, size=dims))
    assert cnr(flat, sub, labels, 2, 3) == pytest.approx(0.0, abs=0.5)
    # absent class -> sentinel
    assert cnr(vol, sub, np.full(dims, 2, dtype=np.uint8), 2, 3) is None


def test_cnr_phantom_closed_form():
    rng = np.random.default_rng(21)
    dims = (24, 24, 24)
    labels = np.full(dims, 2, dtype=np.uint8)
    labels[:, :, 12:] = 3
    data = np.where(labels == 2, 0.35, 0.75) + rng.normal(0, 0.08, size=dims)
    vol = volume_from_array(data)
    value = cnr(vol, full_subdomain(vol), labels, 2, 3)
    assert abs(value - 0.4 / 0.08) / (0.4 / 0.08) < 0.10


# ---------------------------------------------------------------------------
# Partition driver
# ---------------------------------------------------------------------------

def test_homogeneous_phantom_stops_at_two_subdomains():
    vol = volume_from_array(np.full((24, 24, 24), 0.5))
    tree = partition(vol)
    assert tree.optimal_count == 2
    assert len(tree.leaves) == 2


def test_block_phantom_boundaries():
    from kfdaseg.phantom import PhantomSpec, generate_phantom
    spec = PhantomSpec(dims=(32, 32, 32), geometry="blocks", noise_sigma=0.02,
                       pv_blur=0.0, bias_amplitude=0.0, seed=3)
    vol, _ = generate_phantom(spec)
    tree = partition(vol, max_depth=3)
    for leaf in tree.leaf_nodes():
        for axis in range(3):
            lo, hi = leaf.bounds[axis]
            for edge in (lo, hi + 1):
                if edge in (0, 32):
                    continue
                assert abs(edge - 16) <= 1, \
                    f"internal boundary {edge} on axis {axis} not at the block plane"


def test_mir_curve_nondecreasing_on_tissue_phantoms():
    # tissue-like phantoms keep spatial structure at every scale, which is
    # what makes information acquisition grow with partition depth
    from kfdaseg.phantom import PhantomSpec, generate_phantom
    for seed in range(5):
        spec = PhantomSpec(dims=(32, 32, 32), noise_sigma=0.02 + 0.005 * seed,
                           bias_amplitude=0.05, pv_blur=1.0, seed=seed)
        vol, _ = generate_phantom(spec)
        tree = partition(vol, max_depth=5)
        curve = tree.mir_curve
        assert len(curve) >= 5
        for a, b in zip(curve, curve[1:]):
            assert b >= a - 1e-9, f"MIR decreased: {curve}"


def test_leaves_tile_and_overlap_by_four():
    vol = smooth_noisy_volume((32, 32, 32), seed=11, noise=0.02)
    tree = partition(vol, max_depth=4)
    dims = vol.dims
    coverage = np.zeros(dims, dtype=np.int32)
    for leaf in tree.leaf_nodes():
        sl = box_slices(leaf.bounds)
        coverage[sl] += 1
        for axis in range(3):
            lo, hi = leaf.bounds[axis]
            assert hi - lo + 1 >= 3
    assert np.all(coverage == 1), "core bounds must tile the volume exactly"

    leaves = tree.leaf_nodes()
    found_pair = False
    for a in leaves:
        for b in leaves:
            if a is b:
                continue
            for axis in range(3):
                # adjacent along `axis`: a ends where b begins
                if a.bounds[axis][1] + 1 == b.bounds[axis][0] and all(
                        a.bounds[o][0] <= b.bounds[o][1] and
                        b.bounds[o][0] <= a.bounds[o][1]
                        for o in range(3) if o != axis):
                    pa = a.padded_bounds[axis]
                    pb = b.padded_bounds[axis]
                    shared = min(pa[1], pb[1]) - max(pa[0], pb[0]) + 1
                    assert shared == 4, \
                        f"expected 4 shared slices on axis {axis}, got {shared}"
                    found_pair = True
    assert found_pair


def test_partition_json_serializes():
    vol = smooth_noisy_volume((24, 24, 24), seed=1, noise=0.02)
    tree = partition(vol, max_depth=3)
    doc = tree.to_json()
    import json
    parsed = json.loads(doc)
    assert len(parsed["leaves"]) == len(tree.leaves)
    assert parsed["subdomain_counts"] == tree.subdomain_counts
