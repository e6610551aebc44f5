"""Phantom generation determinism/statistics and the k-means initializer."""

import hashlib

import numpy as np
import pytest

from kfdaseg import phantom
from kfdaseg.phantom import (PhantomSpec, corrupt_boundary_labels,
                             generate_phantom, kmeans_init, underestimate_csf)
from kfdaseg.pipeline import dice_scores
from kfdaseg.volume import BG, CSF, GM, WM, MultiChannelVolume, TISSUE_LABELS
import oracles
import recipes


def test_clean_phantom_sits_exactly_at_class_means():
    spec = PhantomSpec(dims=(24, 24, 24), noise_sigma=0.0, bias_amplitude=0.0,
                       pv_blur=0.0, seed=0)
    vol, truth = generate_phantom(spec)
    means = np.asarray(spec.class_means)
    for ci, cls in enumerate(TISSUE_LABELS):
        sel = truth.labels == cls
        assert sel.any()
        for ch in range(3):
            assert np.allclose(vol.data[sel][:, ch], means[ci, ch], atol=1e-6)
    assert np.all(vol.data[~vol.mask] == 0.0)


def test_same_seed_is_bit_identical():
    spec = PhantomSpec(dims=(20, 20, 20), noise_sigma=0.05, bias_amplitude=0.1,
                       pv_blur=1.0, seed=9)
    vol1, truth1 = generate_phantom(spec)
    vol2, truth2 = generate_phantom(spec)
    assert vol1.data.tobytes() == vol2.data.tobytes()
    assert truth1.labels.tobytes() == truth2.labels.tobytes()


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2), (3, 3, 3), (7, 7, 7), (24, 24, 24),
                                  (64, 64, 64), (2, 20, 20), (11, 3, 17), (100, 7, 2),
                                  (1, 64, 7)])
def test_smooth_field_matches_3d_zoom(dims):
    for seed in range(5):
        field = phantom._smooth_field(dims, np.random.default_rng(seed))
        expect = oracles.zoomed_field(dims, np.random.default_rng(seed))
        assert field.shape == dims
        assert np.abs(field - expect).max() <= 1e-13, (dims, seed)


# the phantoms of perfbench/workloads.py's `seams`, `global` and `csf-growth`
BENCHMARK_PHANTOMS = (
    PhantomSpec(dims=(26, 26, 26), noise_sigma=0.05, bias_amplitude=0.10, pv_blur=1.0, seed=11),
    PhantomSpec(dims=(24, 24, 24), noise_sigma=0.05, bias_amplitude=0.10, pv_blur=1.0, seed=11),
    PhantomSpec(dims=(24, 24, 24), noise_sigma=0.04, bias_amplitude=0.08, pv_blur=1.0, seed=12),
)


def _input_digests() -> list[str]:
    """sha256 of the volume, mask and labels of the benchmark's phantoms
    (with their truth) and of criteria 7-9's recipes (with their initial
    labels)."""
    arrays = []
    for spec in BENCHMARK_PHANTOMS:
        vol, truth = generate_phantom(spec)
        arrays += [vol.data, vol.mask, truth.labels]
    for build in (recipes.criterion_7, recipes.criterion_8, recipes.criterion_9):
        recipe = build()
        arrays += [recipe.vol.data, recipe.vol.mask, recipe.init.labels]
    return [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]


def test_phantoms_byte_identical_to_3d_zoom(monkeypatch):
    digests = _input_digests()
    monkeypatch.setattr(phantom, "_smooth_field", oracles.zoomed_field)
    assert _input_digests() == digests


def test_noise_sigma_matches_request_away_from_boundaries():
    spec = PhantomSpec(dims=(48, 48, 48), noise_sigma=0.05, bias_amplitude=0.0,
                       pv_blur=0.0, seed=2)
    vol, truth = generate_phantom(spec)
    from scipy import ndimage

    for cls in TISSUE_LABELS:
        core = ndimage.binary_erosion(truth.labels == cls, iterations=2)
        if core.sum() < 500:
            continue
        std = vol.data[core][:, 0].std()
        assert abs(std - 0.05) / 0.05 < 0.10, (cls, std)


def test_pv_blur_mixes_class_means():
    clean = PhantomSpec(dims=(24, 24, 24), pv_blur=0.0, seed=1)
    blurred = PhantomSpec(dims=(24, 24, 24), pv_blur=1.5, seed=1)
    vol_c, truth = generate_phantom(clean)
    vol_b, _ = generate_phantom(blurred)
    means = np.asarray(clean.class_means)
    lo, hi = means[:, 0].min(), means[:, 0].max()
    assert np.all(vol_b.data[vol_b.mask][:, 0] >= lo - 1e-6)
    assert np.all(vol_b.data[vol_b.mask][:, 0] <= hi + 1e-6)
    # blur must actually change boundary voxels
    assert not np.allclose(vol_b.data, vol_c.data)


def test_blocks_geometry_masks_everything():
    spec = PhantomSpec(dims=(16, 16, 16), geometry="blocks", seed=0)
    vol, truth = generate_phantom(spec)
    assert vol.mask.all()
    assert set(np.unique(truth.labels)) <= {CSF, GM, WM}


# ---------------------------------------------------------------------------
# k-means initializer
# ---------------------------------------------------------------------------

def test_kmeans_recovers_separated_blobs():
    spec = PhantomSpec(dims=(24, 24, 24), noise_sigma=0.01, seed=3)
    vol, truth = generate_phantom(spec)
    init = kmeans_init(vol, seed=0)
    scores = dice_scores(init, truth, vol.mask)
    for cls, value in scores.items():
        assert value is not None and value > 0.95, (cls, value)


def test_kmeans_ordering_rule_by_t1w():
    spec = PhantomSpec(dims=(20, 20, 20), noise_sigma=0.02, seed=4)
    vol, truth = generate_phantom(spec)
    init = kmeans_init(vol, seed=1)
    t1w = vol.data[..., 0]
    m_csf = t1w[(init.labels == CSF)].mean()
    m_gm = t1w[(init.labels == GM)].mean()
    m_wm = t1w[(init.labels == WM)].mean()
    assert m_csf < m_gm < m_wm


def test_kmeans_permuted_channels_same_partition():
    spec = PhantomSpec(dims=(20, 20, 20), noise_sigma=0.02, seed=5)
    vol, _ = generate_phantom(spec)
    permuted = MultiChannelVolume(data=vol.data[..., [1, 0, 2]].copy(),
                                  mask=vol.mask.copy())
    init_a = kmeans_init(vol, seed=2)
    init_b = kmeans_init(permuted, seed=2)
    # same partition of voxels, but relabeled by the t1w ordering rule
    # (t1w now lives in channel 1, so ordering flips CSF/WM)
    a = init_a.labels[vol.mask]
    b = init_b.labels[vol.mask]
    groups_a = [a == cls for cls in TISSUE_LABELS]
    groups_b = [b == cls for cls in TISSUE_LABELS]
    matched = 0
    for ga in groups_a:
        for gb in groups_b:
            if (ga == gb).all():
                matched += 1
                break
    assert matched == 3


def test_kmeans_noisy_phantom_good_enough_init():
    spec = PhantomSpec(dims=(32, 32, 32), noise_sigma=0.06, bias_amplitude=0.1,
                       pv_blur=1.0, seed=6)
    vol, truth = generate_phantom(spec)
    init = kmeans_init(vol, seed=3)
    scores = dice_scores(init, truth, vol.mask)
    for cls, value in scores.items():
        assert value is not None and value >= 0.7, (cls, value)


def test_kmeans_needs_distinct_intensities():
    data = np.zeros((4, 4, 4, 3), dtype=np.float32)
    vol = MultiChannelVolume(data=data, mask=np.ones((4, 4, 4), dtype=bool))
    with pytest.raises(ValueError, match="distinct"):
        kmeans_init(vol)


# ---------------------------------------------------------------------------
# Controlled degradations
# ---------------------------------------------------------------------------

def test_corrupt_boundary_flips_requested_fraction():
    spec = PhantomSpec(dims=(24, 24, 24), seed=7)
    vol, truth = generate_phantom(spec)
    corrupted = corrupt_boundary_labels(truth, vol.mask, fraction=0.2, seed=0)
    changed = (corrupted.labels != truth.labels)
    assert changed.any()
    # flips stay on tissue voxels and remain valid tissue labels
    assert np.all(corrupted.labels[~vol.mask] == BG)
    assert set(np.unique(corrupted.labels[vol.mask])) <= {CSF, GM, WM}
    # deterministic
    again = corrupt_boundary_labels(truth, vol.mask, fraction=0.2, seed=0)
    assert np.array_equal(again.labels, corrupted.labels)


def test_corrupt_boundary_stays_inside_the_volume():
    # the blocks phantom's mask fills the volume, so every face voxel is a
    # tissue voxel: each changed voxel must have a 6-neighbour inside the
    # volume of another class, never one across the opposite face. A
    # boundary found by wrapping around the faces put 107 of the 254
    # voxels changed here on no class boundary
    vol, truth = generate_phantom(PhantomSpec(dims=(8, 8, 8), geometry="blocks"))
    corrupted = corrupt_boundary_labels(truth, vol.mask, fraction=1.0, seed=0)
    changed = np.argwhere(corrupted.labels != truth.labels)
    assert len(changed)
    steps = [step for axis in np.eye(3, dtype=int) for step in (axis, -axis)]
    for voxel in changed:
        neighbours = [tuple(voxel + step) for step in steps]
        assert any(min(v) >= 0 and max(v) < 8 and truth.labels[v] != truth.labels[tuple(voxel)]
                   for v in neighbours), voxel


def test_underestimate_csf_reaches_fraction():
    spec = PhantomSpec(dims=(32, 32, 32), seed=8)
    _, truth = generate_phantom(spec)
    shrunk = underestimate_csf(truth, fraction=0.4)
    before = int((truth.labels == CSF).sum())
    after = int((shrunk.labels == CSF).sum())
    assert after <= 0.6 * before
    # removed voxels became GM
    moved = (truth.labels == CSF) & (shrunk.labels == GM)
    assert moved.sum() == before - after
