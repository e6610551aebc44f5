"""Core volume containers and deterministic file IO.

Volumes are multi-channel 3D intensity grids (typically t1w/t2w/pdw) with an
explicit interior-brain mask; label volumes hold one tissue code per voxel.

File format (shared by every stage of the pipeline):
    <name>.f32raw   little-endian float32 payload, x-fastest (i,j,k) voxel
                    order, channels contiguous per voxel
    <name>.u8raw    little-endian uint8 payload, same voxel order (masks,
                    labels)
    <name>.json     sidecar header {"dims": [M1,M2,M3], "channels": C,
                    "mask_file": "..."}; a label file's holds dims alone

A sidecar that is not such a JSON object (three positive integer dims, a
positive integer channel count for a volume) or a payload of another size
is rejected with VolumeFormatError.

The format is deliberately dependency-free and byte-inspectable; round trips
are bit-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Tissue state space.
CSF = 1
GM = 2
WM = 3
BG = 4
TISSUE_LABELS = (CSF, GM, WM)
ALL_LABELS = (CSF, GM, WM, BG)
REFERENCE_CHANNEL = 0  # t1w: orders k-means clusters, MI partition and MSSIM reference


def box_slices(bounds) -> tuple[slice, ...]:
    """Index of the box with inclusive (lo, hi) bounds on each axis."""
    return tuple(slice(lo, hi + 1) for lo, hi in bounds)


class VolumeFormatError(ValueError):
    """Raised when an on-disk volume violates its header or value contract."""


@dataclass(frozen=True)
class MultiChannelVolume:
    """3D grid of per-voxel intensity vectors plus an interior mask.

    data has shape (M1, M2, M3, channels) float32; mask has shape
    (M1, M2, M3) bool. Instances are treated as immutable after
    construction and are safe for concurrent reads.
    """

    data: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 4:
            raise VolumeFormatError(f"data must be 4D (M1,M2,M3,C), got shape {self.data.shape}")
        if self.mask.shape != self.data.shape[:3]:
            raise VolumeFormatError(
                f"mask shape {self.mask.shape} does not match dims {self.data.shape[:3]}")
        if self.data.dtype != np.float32:
            object.__setattr__(self, "data", self.data.astype(np.float32))
        if self.mask.dtype != bool:
            object.__setattr__(self, "mask", self.mask.astype(bool))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[:3]

    @property
    def channels(self) -> int:
        return self.data.shape[3]


@dataclass(frozen=True)
class LabelVolume:
    """Per-voxel tissue label in {1 CSF, 2 GM, 3 WM, 4 BG}."""

    labels: np.ndarray

    def __post_init__(self):
        if self.labels.ndim != 3:
            raise VolumeFormatError(f"labels must be 3D, got shape {self.labels.shape}")
        if self.labels.dtype != np.uint8:
            object.__setattr__(self, "labels", self.labels.astype(np.uint8))
        bad = (self.labels < CSF) | (self.labels > BG)
        if bad.any():
            idx = tuple(int(v) for v in np.argwhere(bad)[0])
            raise VolumeFormatError(
                f"label {int(self.labels[idx])} at voxel {idx} outside state space {ALL_LABELS}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.labels.shape


def check_mask_consistency(lv: LabelVolume, mask: np.ndarray) -> bool:
    """True iff BG sits exactly off-mask and tissue labels exactly on-mask."""
    on = lv.labels[mask]
    off = lv.labels[~mask]
    return bool(np.all(off == BG)) and bool(np.all((on >= CSF) & (on <= WM)))


# ---------------------------------------------------------------------------
# IO helpers
# ---------------------------------------------------------------------------

def _raw_path(path, suffix: str) -> Path:
    path = Path(path)
    return path if path.suffix == suffix else path.with_suffix(suffix)


def _to_disk_order(arr: np.ndarray) -> np.ndarray:
    # (M1,M2,M3,...) -> payload with i fastest among voxel coordinates;
    # trailing axes (channels) stay contiguous per voxel.
    if arr.ndim == 4:
        return np.ascontiguousarray(np.transpose(arr, (2, 1, 0, 3)))
    return np.ascontiguousarray(np.transpose(arr, (2, 1, 0)))


def _from_disk_order(flat: np.ndarray, dims, channels: int | None) -> np.ndarray:
    m1, m2, m3 = dims
    if channels is None:
        return np.transpose(flat.reshape(m3, m2, m1), (2, 1, 0)).copy()
    return np.transpose(flat.reshape(m3, m2, m1, channels), (2, 1, 0, 3)).copy()


def _flat_to_voxel(flat_index: int, dims) -> tuple[int, int, int]:
    # inverse of the x-fastest payload order
    m1, m2, _ = dims
    k, rem = divmod(flat_index, m1 * m2)
    j, i = divmod(rem, m1)
    return (i, j, k)


def _is_count(value) -> bool:
    # JSON true/false load as bools, which Python counts as integers
    return type(value) is int and value > 0


def _payload(path: Path, what: str, dtype, size: int) -> np.ndarray:
    """The size values of a raw payload file, or VolumeFormatError."""
    if not path.is_file():
        raise FileNotFoundError(f"{what} payload not found: {path}")
    payload = np.fromfile(path, dtype=dtype)
    if payload.size != size:
        raise VolumeFormatError(
            f"{path}: {what} payload holds {payload.size} values, header implies {size}")
    return payload


def _read(path, suffix: str, what: str, dtype,
          volume: bool = False) -> tuple[Path, dict, tuple[int, int, int], np.ndarray]:
    """(payload path, header, dims, payload) of a raw file and its sidecar.

    The sidecar must hold a JSON object whose dims lists three positive
    integers; a volume's must also give channels, a positive integer, and
    mask_file, a file name. Raises FileNotFoundError on a missing file and
    VolumeFormatError naming the sidecar or payload that breaks the format.
    """
    path = _raw_path(path, suffix)
    sidecar = path.with_suffix(".json")
    if not sidecar.exists():
        raise FileNotFoundError(f"{what} sidecar not found: {sidecar}")
    try:
        header = json.loads(sidecar.read_text())
    except json.JSONDecodeError as exc:
        raise VolumeFormatError(f"{sidecar}: sidecar is not JSON ({exc})") from exc
    dims = header.get("dims") if isinstance(header, dict) else None
    valid = isinstance(dims, list) and len(dims) == 3 and all(map(_is_count, dims))
    if volume:
        valid = valid and _is_count(header.get("channels")) \
            and isinstance(header.get("mask_file"), str)
    if not valid:
        raise VolumeFormatError(f"bad header {header!r} in {sidecar}")
    dims = tuple(dims)
    size = math.prod(dims) * (header["channels"] if volume else 1)
    return path, header, dims, _payload(path, what, dtype, size)


def save_volume(vol: MultiChannelVolume, path) -> None:
    """Write <path>.f32raw + JSON sidecar + <stem>_mask.u8raw.

    Payload bytes reproduce the float32 data exactly; load_volume(path)
    returns a bit-identical volume.
    """
    path = _raw_path(path, ".f32raw")
    path.parent.mkdir(parents=True, exist_ok=True)
    mask_name = path.stem + "_mask.u8raw"
    header = {"dims": list(vol.dims), "channels": vol.channels, "mask_file": mask_name}
    path.with_suffix(".json").write_text(json.dumps(header, sort_keys=True))
    _to_disk_order(vol.data).astype("<f4").tofile(path)
    _to_disk_order(vol.mask.astype(np.uint8)).tofile(path.parent / mask_name)


def load_volume(path) -> MultiChannelVolume:
    """Load a volume written by save_volume.

    Raises VolumeFormatError on a malformed sidecar, a header/payload size
    mismatch or non-finite values (diagnostic names the first offending
    voxel), FileNotFoundError on missing files.
    """
    path, header, dims, payload = _read(path, ".f32raw", "volume", "<f4", volume=True)
    channels = header["channels"]
    finite = np.isfinite(payload)
    if not finite.all():
        first = int(np.argmax(~finite))
        voxel = _flat_to_voxel(first // channels, dims)
        raise VolumeFormatError(
            f"{path}: non-finite value {payload[first]} at voxel {voxel}, "
            f"channel {first % channels}")
    mask = _payload(path.parent / header["mask_file"], "mask", np.uint8, math.prod(dims))
    return MultiChannelVolume(data=_from_disk_order(payload, dims, channels),
                              mask=_from_disk_order(mask, dims, None).astype(bool))


def save_labels(lv: LabelVolume, path) -> None:
    """Write <path>.u8raw + JSON sidecar; round trip is bit-exact."""
    path = _raw_path(path, ".u8raw")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.with_suffix(".json").write_text(json.dumps({"dims": list(lv.dims)}, sort_keys=True))
    _to_disk_order(lv.labels).tofile(path)


def load_labels(path) -> LabelVolume:
    """Load labels written by save_labels; raises VolumeFormatError on a
    malformed sidecar, a size mismatch or out-of-range label bytes."""
    path, _, dims, payload = _read(path, ".u8raw", "label", np.uint8)
    bad = (payload < CSF) | (payload > BG)
    if bad.any():
        first = int(np.argmax(bad))
        raise VolumeFormatError(
            f"{path}: label byte {int(payload[first])} at voxel "
            f"{_flat_to_voxel(first, dims)} outside state space {ALL_LABELS}")
    return LabelVolume(labels=_from_disk_order(payload, dims, None))


# ---------------------------------------------------------------------------
# Intensity normalization
# ---------------------------------------------------------------------------

def normalize_intensities(vol: MultiChannelVolume) -> MultiChannelVolume:
    """Affinely map each channel's masked intensities onto [0, 1].

    Per channel, masked min -> 0 and masked max -> 1; unmasked voxels are
    zeroed; a constant channel maps to 0 everywhere (it carries no
    discriminative information). Idempotent. Raises ValueError on an
    empty mask.
    """
    if not vol.mask.any():
        raise ValueError("cannot normalize a volume with an empty mask")
    out = np.zeros_like(vol.data, dtype=np.float64)
    masked = vol.mask
    for c in range(vol.channels):
        chan = vol.data[..., c].astype(np.float64)
        vals = chan[masked]
        lo, hi = vals.min(), vals.max()
        if hi > lo:
            out[..., c][masked] = (vals - lo) / (hi - lo)
    return MultiChannelVolume(data=out.astype(np.float32), mask=vol.mask.copy())
