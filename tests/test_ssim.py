"""SSIM patch formula, sliding-window MSSIM and classified mean images."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kfdaseg.ssim import (SsimConstants, _ssim_map, _window_counts,
                          classified_mean_image, fit_constants, gaussian_window,
                          mssim, patch_stats, ssim_patch)
from kfdaseg.volume import BG, CSF, GM, WM


def ssim_oracle(x, y, c, weights=None):
    """Independent direct evaluation of the three-factor product."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.full(x.shape, 1.0 / x.size) if weights is None else weights / weights.sum()
    mu_x = (w * x).sum()
    mu_y = (w * y).sum()
    var_x = (w * (x - mu_x) ** 2).sum()
    var_y = (w * (y - mu_y) ** 2).sum()
    cov = (w * (x - mu_x) * (y - mu_y)).sum()
    sx, sy = math.sqrt(var_x), math.sqrt(var_y)
    lum = (2 * mu_x * mu_y + c.c1) / (mu_x ** 2 + mu_y ** 2 + c.c1)
    con = (2 * sx * sy + c.c2) / (var_x + var_y + c.c2)
    st = (cov + c.c3) / (sx * sy + c.c3)
    return lum * con * st


def test_identity_is_exactly_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.random((11, 11))
        assert ssim_patch(x, x) == 1.0


def test_constant_patches_equal_means():
    x = np.full((7, 7), 0.42)
    y = np.full((7, 7), 0.42)
    assert ssim_patch(x, y) == 1.0


def test_matches_direct_formula_oracle():
    rng = np.random.default_rng(1)
    c = SsimConstants()
    w = gaussian_window()
    for _ in range(200):
        x = rng.random((11, 11))
        y = rng.random((11, 11))
        assert ssim_patch(x, y, c) == pytest.approx(ssim_oracle(x, y, c), abs=1e-10)
        assert ssim_patch(x, y, c, weights=w) == pytest.approx(
            ssim_oracle(x, y, c, weights=w), abs=1e-10)


def test_symmetry_and_bounds():
    rng = np.random.default_rng(2)
    for _ in range(500):
        shape = (int(rng.integers(2, 12)), int(rng.integers(2, 12)))
        x = rng.random(shape)
        y = rng.random(shape)
        a = ssim_patch(x, y)
        b = ssim_patch(y, x)
        assert a == pytest.approx(b, abs=1e-12)
        assert -1.0 - 1e-12 <= a <= 1.0 + 1e-12


def test_luminance_shift_decreases_similarity():
    rng = np.random.default_rng(3)
    c = SsimConstants()
    for _ in range(50):
        x = rng.random((9, 9)) * 0.5 + 0.25
        offset = rng.uniform(0.05, 0.2)
        stats = patch_stats(x, x + offset)
        lum_shifted = (2 * stats.mu_x * stats.mu_y + c.c1) / \
            (stats.mu_x ** 2 + stats.mu_y ** 2 + c.c1)
        assert lum_shifted < 1.0


def test_nondefault_c3_uses_three_factor_form():
    rng = np.random.default_rng(4)
    c = SsimConstants(c1=1e-4, c2=9e-4, c3=5e-4)
    x = rng.random((11, 11))
    y = rng.random((11, 11))
    assert ssim_patch(x, y, c) == pytest.approx(ssim_oracle(x, y, c), abs=1e-10)


# ---------------------------------------------------------------------------
# MSSIM
# ---------------------------------------------------------------------------

def test_mssim_reference_vs_itself():
    rng = np.random.default_rng(5)
    img = rng.random((24, 24))
    mask = np.ones((24, 24), dtype=bool)
    assert mssim(img, img, mask) >= 1.0 - 1e-9


def test_mssim_volume_reference_vs_itself():
    rng = np.random.default_rng(6)
    vol = rng.random((16, 16, 4))
    mask = np.ones(vol.shape, dtype=bool)
    assert mssim(vol, vol, mask) >= 1.0 - 1e-9


def test_mssim_window_positions_match_patch_ssim():
    # each sliding-window value equals ssim_patch on that Gaussian-weighted patch
    rng = np.random.default_rng(7)
    x = rng.random((15, 15))
    y = rng.random((15, 15))
    mask = np.ones((15, 15), dtype=bool)
    c = SsimConstants()
    w = gaussian_window()
    ssim_map = _ssim_map(x[:, :, None], y[:, :, None], c)[:, :, 0]
    for r in (0, 2, 4):
        for col in (0, 1, 3):
            patch_x = x[r:r + 11, col:col + 11]
            patch_y = y[r:r + 11, col:col + 11]
            assert ssim_map[r, col] == pytest.approx(
                ssim_patch(patch_x, patch_y, c, weights=w), abs=1e-10)
    value = mssim(x, y, mask, c)
    assert value == pytest.approx(float(ssim_map.mean()), abs=1e-12)


def test_mssim_background_windows_excluded():
    rng = np.random.default_rng(8)
    x = rng.random((32, 32))
    y = rng.random((32, 32))
    mask = np.zeros((32, 32), dtype=bool)
    mask[:16, :] = True        # lower half fully background
    full = mssim(x, y, np.ones_like(mask))
    masked = mssim(x, y, mask)
    # masked score only uses windows touching the upper half
    smap = _ssim_map(x[:, :, None], y[:, :, None], SsimConstants())[:, :, 0]
    counts = _window_counts(mask[:, :, None], 11)[:, :, 0]
    expected = float(smap[counts > 0].mean())
    assert masked == pytest.approx(expected, abs=1e-12)
    assert masked != pytest.approx(full, abs=1e-12)


def test_mssim_no_masked_window_errors():
    x = np.zeros((16, 16))
    mask = np.zeros((16, 16), dtype=bool)
    with pytest.raises(ValueError, match="masked voxel"):
        mssim(x, x, mask)


def test_mssim_small_slice_uses_fitted_window():
    # an 8x8 slice cannot host the 11x11 window: mssim scores it with the
    # window fit_constants shrinks to 7x7
    rng = np.random.default_rng(9)
    x = rng.random((8, 8))
    y = rng.random((8, 8))
    mask = np.ones((8, 8), dtype=bool)
    fitted = fit_constants(SsimConstants(), (8, 8))
    assert fitted.window_size == 7
    assert mssim(x, y, mask) == mssim(x, y, mask, fitted)


@settings(max_examples=200, deadline=None)
@given(dims=st.tuples(*[st.integers(3, 30)] * 3),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_mssim_box_is_mean_of_slice_mssims(dims, density, seed):
    # scoring a box in one pass equals scoring its axial slices one by one
    # and averaging over the slices that touch the mask, bit for bit
    rng = np.random.default_rng(seed)
    x = rng.random(dims)
    y = rng.random(dims)
    mask = rng.random(dims) < density
    mask[:, :, rng.random(dims[2]) < 0.3] = False   # some empty slices
    touched = [k for k in range(dims[2]) if mask[:, :, k].any()]
    if not touched:
        with pytest.raises(ValueError, match="masked voxel"):
            mssim(x, y, mask)
        return
    per_slice = [mssim(x[:, :, k], y[:, :, k], mask[:, :, k]) for k in touched]
    assert mssim(x, y, mask) == float(np.mean(per_slice))


def test_mssim_prefers_true_labels_on_phantom():
    from kfdaseg.phantom import PhantomSpec, generate_phantom, corrupt_boundary_labels
    from kfdaseg.ssim import classified_mean_image

    spec = PhantomSpec(dims=(32, 32, 8), noise_sigma=0.03, pv_blur=0.5, seed=4)
    vol, truth = generate_phantom(spec)
    ref = vol.data[..., 0].astype(np.float64)
    good = classified_mean_image(truth.labels, ref, vol.mask)
    rng = np.random.default_rng(0)
    corrupted_labels = truth.labels.copy()
    tissue = np.flatnonzero(vol.mask.ravel())
    flip = rng.choice(tissue, size=int(0.3 * tissue.size), replace=False)
    corrupted_labels.ravel()[flip] = rng.choice((CSF, GM, WM), size=flip.size)
    bad = classified_mean_image(corrupted_labels, ref, vol.mask)
    assert mssim(good, ref, vol.mask) > mssim(bad, ref, vol.mask)


# ---------------------------------------------------------------------------
# Classified mean image
# ---------------------------------------------------------------------------

def test_mean_image_single_class():
    labels = np.full((6, 6, 2), GM, dtype=np.uint8)
    ref = np.random.default_rng(10).random((6, 6, 2))
    mask = np.ones((6, 6, 2), dtype=bool)
    img = classified_mean_image(labels, ref, mask)
    assert np.allclose(img, ref.mean())


def test_mean_image_two_levels():
    labels = np.full((4, 4, 1), GM, dtype=np.uint8)
    labels[2:] = WM
    ref = np.where(labels == GM, 0.3, 0.7)
    mask = np.ones_like(labels, dtype=bool)
    img = classified_mean_image(labels, ref, mask)
    assert np.allclose(img[labels == GM], 0.3)
    assert np.allclose(img[labels == WM], 0.7)


def test_mean_image_groupby_oracle():
    rng = np.random.default_rng(11)
    labels = rng.choice((CSF, GM, WM), size=(8, 8, 4)).astype(np.uint8)
    mask = rng.random((8, 8, 4)) > 0.2
    labels[~mask] = BG
    ref = rng.random((8, 8, 4))
    img = classified_mean_image(labels, ref, mask)
    for cls in (CSF, GM, WM):
        sel = (labels == cls) & mask
        if sel.any():
            assert np.allclose(img[sel], ref[sel].mean(), atol=1e-12)
    assert np.all(img[~mask] == 0.0)
