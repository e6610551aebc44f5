"""SSIM patch formula, sliding-window MSSIM and classified mean images."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kfdaseg.ssim import (C1, C2, C3, WINDOW_SIGMA, WINDOW_SIZE, ReferenceWindows,
                          _mean_var, _smoother, _ssim_map, _window_counts,
                          classified_mean_image, fit_window, gaussian_window, mssim,
                          reference_windows, ssim_patch)
from kfdaseg.volume import BG, CSF, GM, WM


def ssim_oracle(x, y, weights=None):
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
    lum = (2 * mu_x * mu_y + C1) / (mu_x ** 2 + mu_y ** 2 + C1)
    con = (2 * sx * sy + C2) / (var_x + var_y + C2)
    st = (cov + C3) / (sx * sy + C3)
    return lum * con * st


def windows_at(y, size, sigma):
    """ReferenceWindows of a 3D box y under an explicit size x size window
    of width sigma, every window kept."""
    mean, var = _mean_var(y, _smoother(size, sigma))
    return ReferenceWindows(y, size, sigma, mean, var, np.ones(mean.shape, dtype=bool))


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
    w = gaussian_window()
    for _ in range(200):
        x = rng.random((11, 11))
        y = rng.random((11, 11))
        assert ssim_patch(x, y) == pytest.approx(ssim_oracle(x, y), abs=1e-10)
        assert ssim_patch(x, y, weights=w) == pytest.approx(
            ssim_oracle(x, y, weights=w), abs=1e-10)


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
    for _ in range(50):
        x = rng.random((9, 9)) * 0.5 + 0.25
        offset = rng.uniform(0.05, 0.2)
        # a shift leaves contrast and structure at 1: SSIM is the
        # luminance term alone
        mu_x, mu_y = x.mean(), (x + offset).mean()
        lum_shifted = (2 * mu_x * mu_y + C1) / (mu_x ** 2 + mu_y ** 2 + C1)
        assert lum_shifted < 1.0
        assert ssim_patch(x, x + offset) == pytest.approx(lum_shifted, abs=1e-12)


# ---------------------------------------------------------------------------
# MSSIM
# ---------------------------------------------------------------------------

def test_mssim_reference_vs_itself():
    rng = np.random.default_rng(5)
    img = rng.random((24, 24, 1))
    mask = np.ones((24, 24, 1), dtype=bool)
    assert mssim(img, reference_windows(img, mask)) >= 1.0 - 1e-9


def test_mssim_volume_reference_vs_itself():
    rng = np.random.default_rng(6)
    vol = rng.random((16, 16, 4))
    mask = np.ones(vol.shape, dtype=bool)
    assert mssim(vol, reference_windows(vol, mask)) >= 1.0 - 1e-9


def test_mssim_window_positions_match_patch_ssim():
    # each sliding-window value equals ssim_patch on that Gaussian-weighted patch
    rng = np.random.default_rng(7)
    x = rng.random((15, 15, 1))
    y = rng.random((15, 15, 1))
    mask = np.ones((15, 15, 1), dtype=bool)
    w = gaussian_window()
    windows = reference_windows(y, mask)
    assert (windows.size, windows.sigma) == (WINDOW_SIZE, WINDOW_SIGMA)
    ssim_map = _ssim_map(x, windows)[:, :, 0]
    for r in (0, 2, 4):
        for col in (0, 1, 3):
            patch_x = x[r:r + 11, col:col + 11, 0]
            patch_y = y[r:r + 11, col:col + 11, 0]
            assert ssim_map[r, col] == pytest.approx(
                ssim_patch(patch_x, patch_y, weights=w), abs=1e-10)
    value = mssim(x, windows)
    assert value == pytest.approx(float(ssim_map.mean()), abs=1e-12)
    # the windows fitted to thin boxes, at every position of a 3-slice box
    for size in (3, 5, 7, 9):
        fitted = fit_window((size, size))
        assert fitted[0] == size
        assert fitted[1] == pytest.approx(1.5 * size / 11)
        w = gaussian_window(*fitted)
        bx = rng.random((size + 3, size + 2, 3))
        by = rng.random((size + 3, size + 2, 3))
        ssim_map = _ssim_map(bx, windows_at(by, *fitted))
        assert ssim_map.shape == (4, 3, 3)
        for r, col, k in np.ndindex(ssim_map.shape):
            patch_x = bx[r:r + size, col:col + size, k]
            patch_y = by[r:r + size, col:col + size, k]
            assert ssim_map[r, col, k] == pytest.approx(
                ssim_patch(patch_x, patch_y, weights=w), abs=1e-10)


def test_mssim_background_windows_excluded():
    rng = np.random.default_rng(8)
    x = rng.random((32, 32, 1))
    y = rng.random((32, 32, 1))
    mask = np.zeros((32, 32, 1), dtype=bool)
    mask[:16, :] = True        # lower half fully background
    full = mssim(x, reference_windows(y, np.ones_like(mask)))
    masked = mssim(x, reference_windows(y, mask))
    # masked score only uses windows touching the upper half
    smap = _ssim_map(x, windows_at(y, WINDOW_SIZE, WINDOW_SIGMA))
    counts = _window_counts(mask, 11)
    expected = float(smap[counts > 0].mean())
    assert masked == pytest.approx(expected, abs=1e-12)
    assert masked != pytest.approx(full, abs=1e-12)


def test_mssim_no_masked_window_errors():
    x = np.zeros((16, 16, 1))
    mask = np.zeros((16, 16, 1), dtype=bool)
    with pytest.raises(ValueError, match="masked voxel"):
        reference_windows(x, mask)
    # a 2D image is no box: it must be passed as a one-slice box
    with pytest.raises(ValueError, match="3D boxes"):
        reference_windows(x[:, :, 0], mask[:, :, 0] | True)


def test_mssim_small_slice_uses_fitted_window():
    # an 8x8 slice cannot host the 11x11 window: mssim scores it with the
    # window fit_window shrinks to 7x7
    rng = np.random.default_rng(9)
    x = rng.random((8, 8, 1))
    y = rng.random((8, 8, 1))
    mask = np.ones((8, 8, 1), dtype=bool)
    fitted = fit_window((8, 8))
    assert fitted[0] == 7
    assert mssim(x, reference_windows(y, mask)) == float(_ssim_map(x, windows_at(y, *fitted)).mean())


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
            reference_windows(y, mask)
        return
    per_slice = [mssim(x[:, :, k:k + 1], reference_windows(y[:, :, k:k + 1], mask[:, :, k:k + 1]))
                 for k in touched]
    assert mssim(x, reference_windows(y, mask)) == float(np.mean(per_slice))


def test_mssim_with_reference_windows_is_bit_identical():
    # the reference statistics computed once and reused for many images
    # give the same bits as statistics computed afresh for each, on boxes,
    # a one-slice box and fitted windows
    rng = np.random.default_rng(11)
    for dims in ((24, 20, 5), (9, 12, 3), (16, 16, 1)):
        y = rng.random(dims)
        mask = rng.random(dims) < 0.6
        windows = reference_windows(y, mask)
        for _ in range(3):
            x = rng.random(dims)
            assert mssim(x, windows) == mssim(x, reference_windows(y, mask)), dims


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
    windows = reference_windows(ref, vol.mask)
    assert mssim(good, windows) > mssim(bad, windows)


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
