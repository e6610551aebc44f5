"""Volume container, IO round trips and intensity normalization."""

import json

import numpy as np
import pytest

from kfdaseg import volume as vol_io
from kfdaseg.volume import (BG, CSF, GM, WM, LabelVolume, MultiChannelVolume,
                            VolumeFormatError)


def make_volume(dims=(4, 4, 4), channels=3, seed=0, mask=None):
    rng = np.random.default_rng(seed)
    data = rng.random(dims + (channels,), dtype=np.float32)
    if mask is None:
        mask = np.ones(dims, dtype=bool)
    return MultiChannelVolume(data=data, mask=mask)


def test_header_size_arithmetic(tmp_path):
    vol = make_volume()
    vol_io.save_volume(vol, tmp_path / "v.f32raw")
    payload = np.fromfile(tmp_path / "v.f32raw", dtype="<f4")
    assert payload.size == 4 * 4 * 4 * 3
    loaded = vol_io.load_volume(tmp_path / "v.f32raw")
    assert loaded.dims == (4, 4, 4)
    assert loaded.channels == 3


def test_payload_size_mismatch(tmp_path):
    vol = make_volume()
    vol_io.save_volume(vol, tmp_path / "v.f32raw")
    payload = np.fromfile(tmp_path / "v.f32raw", dtype="<f4")
    payload[:-1].tofile(tmp_path / "v.f32raw")   # drop one float
    with pytest.raises(VolumeFormatError, match="191"):
        vol_io.load_volume(tmp_path / "v.f32raw")


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    dims = (5, 3, 7)
    mask = rng.random(dims) > 0.3
    vol = make_volume(dims, channels=2, seed=7, mask=mask)
    vol_io.save_volume(vol, tmp_path / "v")
    loaded = vol_io.load_volume(tmp_path / "v")
    assert loaded.data.tobytes() == vol.data.tobytes()
    assert np.array_equal(loaded.mask, vol.mask)


def test_disk_order_is_x_fastest(tmp_path):
    # voxel (i,j,k) lands at payload offset ((k*M2 + j)*M1 + i)*C
    vol = make_volume(dims=(3, 4, 5), channels=2, seed=1)
    vol_io.save_volume(vol, tmp_path / "v")
    payload = np.fromfile(tmp_path / "v.f32raw", dtype="<f4")
    m1, m2, _ = vol.dims
    i, j, k, c = 2, 1, 3, 1
    offset = ((k * m2 + j) * m1 + i) * vol.channels + c
    assert payload[offset] == vol.data[i, j, k, c]


def test_nonfinite_rejected_with_voxel_index(tmp_path):
    vol = make_volume()
    vol_io.save_volume(vol, tmp_path / "v")
    payload = np.fromfile(tmp_path / "v.f32raw", dtype="<f4")
    # voxel (2,1,3), channel 0 in x-fastest order
    bad_offset = ((3 * 4 + 1) * 4 + 2) * 3
    payload[bad_offset] = np.nan
    payload.tofile(tmp_path / "v.f32raw")
    with pytest.raises(VolumeFormatError, match=r"\(2, 1, 3\)"):
        vol_io.load_volume(tmp_path / "v")


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        vol_io.load_volume(tmp_path / "absent.f32raw")


def test_labels_round_trip_all_bg(tmp_path):
    lv = LabelVolume(labels=np.full((3, 3, 3), BG, dtype=np.uint8))
    vol_io.save_labels(lv, tmp_path / "l")
    loaded = vol_io.load_labels(tmp_path / "l")
    assert np.array_equal(loaded.labels, lv.labels)


def test_labels_round_trip_random(tmp_path):
    rng = np.random.default_rng(3)
    labels = rng.integers(CSF, BG + 1, size=(6, 5, 4)).astype(np.uint8)
    lv = LabelVolume(labels=labels)
    vol_io.save_labels(lv, tmp_path / "l")
    loaded = vol_io.load_labels(tmp_path / "l")
    assert loaded.labels.tobytes() == lv.labels.tobytes()


def test_label_byte_out_of_range(tmp_path):
    lv = LabelVolume(labels=np.full((2, 2, 2), GM, dtype=np.uint8))
    vol_io.save_labels(lv, tmp_path / "l")
    payload = np.fromfile(tmp_path / "l.u8raw", dtype=np.uint8)
    payload[3] = 7
    payload.tofile(tmp_path / "l.u8raw")
    with pytest.raises(VolumeFormatError, match="label byte 7"):
        vol_io.load_labels(tmp_path / "l")


MASK = "v_mask.u8raw"


@pytest.mark.parametrize("kind, sidecar", [
    ("labels", {"dims": [4, 4]}),
    ("labels", {"dims": [4, 4, -4]}),
    ("labels", {"dims": [4, 4, True]}),
    ("labels", {"dims": "4x4x4"}),
    ("labels", [4, 4, 4]),
    ("labels", "{"),
    ("volume", {"dims": 5, "channels": 3, "mask_file": MASK}),
    ("volume", {"dims": [1, 2], "channels": 3, "mask_file": MASK}),
    ("volume", {"dims": [4, 4, 4], "channels": "3", "mask_file": MASK}),
    ("volume", {"dims": [4, 4, 4], "channels": 0, "mask_file": MASK}),
    ("volume", {"dims": [4, 4, 4], "channels": 3}),
])
def test_malformed_sidecar_rejected(tmp_path, kind, sidecar):
    # a sidecar is a JSON object with three positive integer dims, and a
    # volume's also names its channel count and mask file; anything else
    # is a format error that names the sidecar
    if kind == "volume":
        vol_io.save_volume(make_volume(), tmp_path / "v.f32raw")
        load, path = vol_io.load_volume, tmp_path / "v.f32raw"
    else:
        vol_io.save_labels(LabelVolume(labels=np.full((4, 4, 4), GM, dtype=np.uint8)),
                           tmp_path / "v.u8raw")
        load, path = vol_io.load_labels, tmp_path / "v.u8raw"
    text = sidecar if isinstance(sidecar, str) else json.dumps(sidecar)
    (tmp_path / "v.json").write_text(text)
    with pytest.raises(VolumeFormatError, match=r"v\.json"):
        load(path)


def test_label_volume_rejects_bad_values():
    labels = np.full((2, 2, 2), GM, dtype=np.uint8)
    labels[0, 0, 0] = 0
    with pytest.raises(VolumeFormatError):
        LabelVolume(labels=labels)


def test_mask_consistency():
    mask = np.zeros((3, 3, 3), dtype=bool)
    mask[1, 1, 1] = True
    labels = np.full((3, 3, 3), BG, dtype=np.uint8)
    labels[1, 1, 1] = WM
    assert vol_io.check_mask_consistency(LabelVolume(labels=labels), mask)
    labels[0, 0, 0] = CSF
    assert not vol_io.check_mask_consistency(LabelVolume(labels=labels), mask)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_normalize_affine_endpoints():
    data = np.zeros((3, 1, 1, 1), dtype=np.float32)
    data[:, 0, 0, 0] = [2.0, 4.0, 6.0]
    vol = MultiChannelVolume(data=data, mask=np.ones((3, 1, 1), dtype=bool))
    out = vol_io.normalize_intensities(vol)
    assert out.data[:, 0, 0, 0].tolist() == [0.0, 0.5, 1.0]


def test_normalize_constant_channel_to_zero():
    data = np.full((3, 1, 1, 1), 5.0, dtype=np.float32)
    vol = MultiChannelVolume(data=data, mask=np.ones((3, 1, 1), dtype=bool))
    out = vol_io.normalize_intensities(vol)
    assert np.all(out.data == 0.0)


def test_normalize_random_minmax_scan_oracle():
    # oracle: direct scan of masked values per channel
    rng = np.random.default_rng(11)
    dims = (6, 7, 5)
    mask = rng.random(dims) > 0.4
    data = (rng.random(dims + (3,)) * 10 - 3).astype(np.float32)
    out = vol_io.normalize_intensities(MultiChannelVolume(data=data, mask=mask))
    for c in range(3):
        vals = out.data[..., c][mask]
        assert abs(vals.min() - 0.0) < 1e-7
        assert abs(vals.max() - 1.0) < 1e-7
        assert np.all(out.data[..., c][~mask] == 0.0)


def test_normalize_idempotent_and_preserves_shape():
    rng = np.random.default_rng(2)
    dims = (5, 5, 5)
    mask = rng.random(dims) > 0.2
    vol = make_volume(dims, seed=2, mask=mask)
    once = vol_io.normalize_intensities(vol)
    twice = vol_io.normalize_intensities(once)
    assert np.allclose(once.data, twice.data, atol=1e-7)
    assert np.array_equal(once.mask, vol.mask)
    assert once.dims == vol.dims


def test_normalize_empty_mask_errors():
    vol = make_volume(mask=np.zeros((4, 4, 4), dtype=bool))
    with pytest.raises(ValueError, match="empty mask"):
        vol_io.normalize_intensities(vol)
