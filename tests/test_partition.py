"""Partitioner: Otsu binning, MI, cut search, MIR, SNR and the full driver."""

import math

import numpy as np
import pytest
from scipy import ndimage

from kfdaseg.partition import (PartitionTree, Subdomain, best_cut, bin_entropy, cut_mi,
                               measure, noise_sigma, otsu_threshold, partition,
                               reference_field)
from kfdaseg.volume import MultiChannelVolume, box_slices
from oracles import (box_noise_sigma, box_snr, cnr, exhaustive_cut_oracle, mi_oracle,
                     total_mir)

LOG2 = 0.6931471805599453


def volume_from_array(arr, mask=None):
    arr = np.asarray(arr, dtype=np.float32)
    if arr.ndim == 3:
        arr = arr[..., None]
    if mask is None:
        mask = np.ones(arr.shape[:3], dtype=bool)
    return MultiChannelVolume(data=arr, mask=mask)


def full_bounds(vol):
    return tuple((0, d - 1) for d in vol.dims)


def measured(vol):
    """(reference field, measured whole-volume node) of vol."""
    ref = reference_field(vol)
    return ref, measure(ref, full_bounds(vol))


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
    threshold = otsu_threshold(data.astype(np.float64).ravel())
    assert threshold == pytest.approx(0.5)
    assert int((data < threshold).sum()) == 2


def test_otsu_constant_degenerate():
    vol = volume_from_array(np.full((4, 4, 4), 0.7))
    _, node = measured(vol)
    assert node.threshold is None
    assert node.entropy == 0.0
    # every cut of a constant box ties at MI 0: the first axis and its
    # smallest cut win
    assert best_cut(*measured(volume_from_array(np.full((8, 7, 9), 0.7)))) == ((0, 3), 0.0)


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
        values = np.clip(values, 0, 1).astype(np.float32).astype(np.float64)
        n1 = int((values < otsu_threshold(values)).sum())
        assert (n1, values.size - n1) == _otsu_oracle_bins(values)


# ---------------------------------------------------------------------------
# Mutual information
# ---------------------------------------------------------------------------

def entropy_and_mi(joint):
    """(H(X), MI) of a count table, rows the bins and columns the slabs."""
    joint = np.asarray(joint, dtype=np.float64)
    total = int(joint.sum())
    h = bin_entropy(joint.sum(axis=1), total)
    return h, cut_mi(h, joint.T, total)


def test_mi_perfect_separation_equals_entropy():
    h, value = entropy_and_mi([[4, 0], [0, 4]])
    assert value == pytest.approx(LOG2, abs=1e-15)
    assert value == h


def test_mi_independence_is_zero():
    joint = [[3, 3], [1, 1]]   # n_ij = n_i * N_j / N
    assert entropy_and_mi(joint)[1] == pytest.approx(0.0, abs=1e-15)


def test_mi_matches_direct_summation_oracle():
    joint = [[4, 2], [0, 2]]
    value = entropy_and_mi(joint)[1]
    # frozen from the double-summation oracle
    assert value == pytest.approx(0.21576155433883562, abs=1e-12)
    assert value == pytest.approx(mi_oracle(joint), abs=1e-12)


def test_mi_random_tables_oracle_and_bounds():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        joint = rng.integers(0, 50, size=(2, 2)).astype(np.float64)
        if joint.sum() == 0:
            continue
        h, value = entropy_and_mi(joint)
        assert abs(value - max(0.0, mi_oracle(joint))) <= 1e-12
        assert 0.0 <= value <= h + 1e-15


# ---------------------------------------------------------------------------
# Cut search
# ---------------------------------------------------------------------------

def test_planar_ground_truth_cut():
    data = np.full((6, 6, 10), 0.2, dtype=np.float32)
    data[:, :, 5:] = 0.8
    vol = volume_from_array(data)
    ref, node = measured(vol)
    result = best_cut(ref, node)
    assert result is not None
    cut, mi = result
    assert cut == (2, 5)
    assert mi == pytest.approx(node.entropy, abs=1e-12)


def test_unsplittable_small_subdomain():
    vol = volume_from_array(np.random.default_rng(0).random((5, 5, 5)))
    assert best_cut(*measured(vol)) is None


def test_best_cut_matches_exhaustive_enumeration():
    rng = np.random.default_rng(99)
    for trial in range(10):
        dims = tuple(rng.integers(6, 13, size=3))
        mask = rng.random(dims) > 0.2
        if not mask.any():
            continue
        vol = volume_from_array(rng.random(dims), mask=mask)
        got = best_cut(*measured(vol))
        want = exhaustive_cut_oracle(vol, full_bounds(vol))
        assert got is not None and want is not None
        assert got[0] == want[0]
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
    est = noise_sigma(reference_field(vol), full_bounds(vol))
    assert abs(est - 0.05) / 0.05 < 0.15


def test_noise_and_snr_match_per_box_laplacian_oracle():
    # the whole-volume Laplacian read on a box's interior gives the box's
    # own ndimage.laplace there bit for bit, on boxes touching volume faces,
    # thinner than 3, with fewer than 8 interior voxels, without a masked
    # voxel and constant inside a noisy volume
    def check(vol, bounds):
        ref = reference_field(vol)
        sigma = noise_sigma(ref, bounds)
        assert sigma == box_noise_sigma(vol, bounds), bounds
        assert measure(ref, bounds).snr == box_snr(vol, bounds), bounds
        return sigma

    rng = np.random.default_rng(17)
    noisy = 0
    for trial in range(30):
        dims = tuple(int(d) for d in rng.integers(4, 14, size=3))
        vol = volume_from_array(rng.random(dims),
                                mask=rng.random(dims) > rng.uniform(0.0, 0.3))
        noisy += check(vol, full_bounds(vol)) > 0.0
        for _ in range(6):
            lo = [int(rng.integers(0, d)) for d in dims]
            bounds = tuple((a, int(rng.integers(a, d))) for a, d in zip(lo, dims))
            noisy += check(vol, bounds) > 0.0
    assert noisy >= 30

    data = np.random.default_rng(18).random((10, 9, 8))
    data[2:8, 1:7, 2:7] = 0.4
    vol = volume_from_array(data)
    assert check(vol, ((0, 9), (3, 4), (0, 7))) == 0.0               # 2 thick
    assert check(vol, ((4, 6), (0, 2), (3, 6))) == 0.0               # 2 interior voxels
    assert check(vol, ((2, 7), (1, 6), (2, 6))) == 0.0               # constant
    assert measure(reference_field(vol), ((2, 7), (1, 6), (2, 6))).snr == math.inf
    empty = volume_from_array(data, mask=np.zeros(data.shape, dtype=bool))
    assert check(empty, full_bounds(empty)) == 0.0
    assert measure(reference_field(empty), full_bounds(empty)).snr == math.inf


def test_snr_infinite_for_noiseless_constant():
    vol = volume_from_array(np.full((8, 8, 8), 0.4))
    assert measured(vol)[1].snr == math.inf


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
    sub = full_bounds(vol)
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
    value = cnr(vol, full_bounds(vol), labels, 2, 3)
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
