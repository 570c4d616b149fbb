"""3-D volumes: file I/O and synthesis.

On disk a volume is a raw little-endian float32 payload (``.vol``) next to
a key/value sidecar header (``.volh``) that holds its ``shape`` and
``dtype``; label maps use ``.lab``/``.labh`` with a uint16 payload and a
``num_classes`` key as well. A reader ignores any other header key, so a
``.volh`` that still carries the ``spacing`` and ``modality`` lines of the
older format loads to the same voxels. In memory a volume is float32 too,
as on disk, and label ids are uint16; voxels are widened to float64 only
where they become model inputs (``patches.patchify``,
``models._voxel_blocks``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .rng import Rng, np_generator


class VolumeIOError(ValueError):
    """Malformed header or payload."""


_F32_MAX = float(np.finfo(np.float32).max)
# One past the largest id a uint16 label map can hold.
_LABEL_IDS = 1 << 16


@dataclass
class Volume:
    """Dense voxel grid, channels x depth x height x width.

    It carries no voxel spacing or modality: the synthetic volumes have
    neither, and nothing would read them. ``data`` is stored as float32,
    as on disk: other input is rounded once to float32. A non-finite
    voxel, or a finite one beyond the float32 range (magnitude above
    3.4028235e+38), raises VolumeIOError.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 4:
            raise VolumeIOError(f"volume data must be 4-D (C,D,H,W), got {data.shape}")
        if min(data.shape) < 1:
            raise VolumeIOError(f"all extents must be >= 1, got {data.shape}")
        if not np.isfinite(data).all():
            raise VolumeIOError("volume contains non-finite voxels")
        if data.dtype != np.float32:
            data = np.asarray(data, dtype=np.float64)
            for value in (float(data.min()), float(data.max())):
                if abs(value) > _F32_MAX:
                    raise VolumeIOError(
                        f"voxel {value!r} outside the float32 range "
                        f"[{-_F32_MAX!r}, {_F32_MAX!r}]"
                    )
            data = data.astype(np.float32)
        self.data = data

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def extents(self) -> tuple[int, int, int]:
        return self.data.shape[1:]


@dataclass
class LabelVolume:
    """Voxel-wise class ids, depth x height x width."""

    data: np.ndarray
    num_classes: int

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise VolumeIOError(f"label data must be 3-D (D,H,W), got {data.shape}")
        if not 1 <= self.num_classes <= _LABEL_IDS:
            raise VolumeIOError(
                f"num_classes must be in [1, {_LABEL_IDS}], got {self.num_classes}"
            )
        if not np.issubdtype(data.dtype, np.integer):
            raise VolumeIOError(f"label data must have an integer dtype, got {data.dtype}")
        if data.size:
            for value in (int(data.min()), int(data.max())):
                if not 0 <= value < self.num_classes:
                    raise VolumeIOError(
                        f"label id {value} out of range [0, {self.num_classes})"
                    )
        self.data = data.astype(np.uint16, copy=False)


def check_pair(volume: Volume, labels: LabelVolume, name: str) -> None:
    """Raise VolumeIOError, naming the pair ``name``, when the label map's
    extents differ from the volume's."""
    if labels.data.shape != volume.extents:
        raise VolumeIOError(
            f"{name}: label extents {labels.data.shape} differ from volume extents "
            f"{volume.extents}"
        )


# ---------------------------------------------------------------------------
# key = value sidecar format
# ---------------------------------------------------------------------------

def write_kv(path: str, pairs: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in pairs.items():
            fh.write(f"{key} = {value}\n")


def read_kv(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise VolumeIOError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            pairs[key.strip()] = value.strip()
    return pairs


def _header_path(path: str) -> str:
    base, ext = os.path.splitext(path)
    return base + {".vol": ".volh", ".lab": ".labh"}.get(ext, ext + "h")


# The payload dtype behind each header "dtype" value.
_PAYLOAD = {"f32le": "<f4", "u16le": "<u2"}


def _save(path: str, data: np.ndarray, dtype: str, **header: str) -> None:
    shape = " ".join(str(n) for n in data.shape)
    write_kv(_header_path(path), {"shape": shape, **header, "dtype": dtype})
    data.astype(_PAYLOAD[dtype]).tofile(path)


def _load(path: str, dtype: str, ndim: int, make, parse):
    """``make(payload, *parse(header))`` for the payload of ``path`` shaped
    by its header.

    A missing or garbled header, another dtype or number of axes, an extent
    below 1 or a payload of another size raises VolumeIOError, and so does
    a payload ``make`` rejects, with the path in front of its message.
    """
    header_path = _header_path(path)
    if not os.path.exists(header_path):
        raise VolumeIOError(f"missing header {header_path}")
    header = read_kv(header_path)
    try:
        shape = tuple(int(x) for x in header["shape"].split())
        parsed = parse(header)
        found = header["dtype"]
    except (KeyError, ValueError) as exc:
        raise VolumeIOError(f"garbled header {header_path}: {exc}") from exc
    if found != dtype:
        raise VolumeIOError(f"{header_path}: unsupported dtype {found!r}, expected {dtype}")
    if len(shape) != ndim:
        raise VolumeIOError(f"{header_path}: shape must have {ndim} entries, got {shape}")
    if min(shape) < 1:
        raise VolumeIOError(f"{header_path}: extents must be >= 1, got {shape}")
    expected = math.prod(shape) * np.dtype(_PAYLOAD[dtype]).itemsize
    actual = os.path.getsize(path)
    if actual != expected:
        raise VolumeIOError(f"{path}: payload is {actual} bytes, header implies {expected}")
    try:
        return make(np.fromfile(path, dtype=_PAYLOAD[dtype]).reshape(shape), *parsed)
    except VolumeIOError as exc:
        raise VolumeIOError(f"{path}: {exc}") from None


def save_volume(path: str, volume: Volume) -> None:
    _save(path, volume.data, "f32le")


def load_volume(path: str) -> Volume:
    return _load(path, "f32le", 4, Volume, lambda h: ())


def save_labels(path: str, labels: LabelVolume) -> None:
    _save(path, labels.data, "u16le", num_classes=str(labels.num_classes))


def load_labels(path: str) -> LabelVolume:
    return _load(path, "u16le", 3, LabelVolume, lambda h: (int(h["num_classes"]),))


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

def _ellipsoid_mask(extents, center, semi_axes):
    grids = np.ogrid[0 : extents[0], 0 : extents[1], 0 : extents[2]]
    acc = np.zeros(extents)
    for g, c, a in zip(grids, center, semi_axes):
        acc = acc + ((g - c) / a) ** 2
    return acc <= 1.0


# Placements tried per ellipsoid before synth_generate gives up.
_MAX_RETRIES = 64


def synth_generate(
    seed: int,
    count: int,
    shape: int | tuple[int, int, int],
    num_classes: int,
    noise: float = 0.1,
) -> list[tuple[Volume, LabelVolume]]:
    """Deterministic synthetic volumes: textured ellipsoids on a noisy background.

    Each sample carries one disjoint ellipsoid per foreground class. Class
    mean intensities are distinct but the gaps are comparable to the texture
    noise, so clean segmentation needs spatial context, not just a voxel
    threshold. Voxels are drawn in float64 and rounded once to the
    Volume's float32, as save_volume rounds them, so a saved and reloaded
    sample is the same sample.
    """
    if isinstance(shape, int):
        shape = (shape, shape, shape)
    shape = tuple(int(n) for n in shape)
    if min(shape) < 16:
        raise ValueError(f"every axis must be >= 16, got {shape}")
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")

    levels = np.linspace(0.35, 0.65, num_classes - 1)
    samples = []
    for index in range(count):
        gen = np_generator(seed, "synth", index)
        struct = Rng.derive(seed, "synth-geom", index)
        data = 0.15 + noise * gen.standard_normal(shape)
        labels = np.zeros(shape, dtype=np.uint16)
        for k in range(1, num_classes):
            placed = False
            for _ in range(_MAX_RETRIES):
                semi = [struct.uniform_in(0.10, 0.18) * n for n in shape]
                center = [
                    struct.uniform_in(semi[a] + 1.0, shape[a] - semi[a] - 1.0)
                    for a in range(3)
                ]
                mask = _ellipsoid_mask(shape, center, semi)
                if not mask.any() or labels[mask].any():
                    continue
                inside = int(mask.sum())
                data[mask] = levels[k - 1] + noise * gen.standard_normal(inside)
                labels[mask] = k
                placed = True
                break
            if not placed:
                raise RuntimeError(
                    f"could not place ellipsoid for class {k} after {_MAX_RETRIES} retries"
                )
        volume = Volume(np.clip(data, 0.0, 1.0)[None])
        samples.append((volume, LabelVolume(labels, num_classes)))
    return samples
