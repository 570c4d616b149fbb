"""3-D volumes: file I/O and synthesis.

On disk a volume is a raw little-endian float32 payload (``.vol``) next to
a key/value sidecar header (``.volh``); label maps use ``.lab``/``.labh``
with a uint16 payload. In memory everything is float64.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .rng import Rng, np_generator

MODALITIES = ("CT", "MRI", "SYNTH")


class VolumeIOError(ValueError):
    """Malformed header or payload."""


@dataclass
class Volume:
    """Dense voxel grid, channels x depth x height x width, with spacing in mm."""

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    modality: str = "SYNTH"

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 4:
            raise VolumeIOError(f"volume data must be 4-D (C,D,H,W), got {self.data.shape}")
        if min(self.data.shape) < 1:
            raise VolumeIOError(f"all extents must be >= 1, got {self.data.shape}")
        self.spacing = tuple(float(s) for s in self.spacing)
        if len(self.spacing) != 3 or min(self.spacing) <= 0:
            raise VolumeIOError(f"spacing must be 3 positive floats, got {self.spacing}")
        if self.modality not in MODALITIES:
            raise VolumeIOError(f"modality must be one of {MODALITIES}, got {self.modality!r}")
        if not np.isfinite(self.data).all():
            raise VolumeIOError("volume contains non-finite voxels")

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
        self.data = np.asarray(self.data, dtype=np.uint16)
        if self.data.ndim != 3:
            raise VolumeIOError(f"label data must be 3-D (D,H,W), got {self.data.shape}")
        if self.num_classes < 1:
            raise VolumeIOError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.data.size and int(self.data.max()) >= self.num_classes:
            raise VolumeIOError(
                f"label id {int(self.data.max())} out of range for {self.num_classes} classes"
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


def save_volume(path: str, volume: Volume) -> None:
    header = {
        "shape": " ".join(str(n) for n in volume.data.shape),
        "spacing": " ".join(repr(s) for s in volume.spacing),
        "modality": volume.modality,
        "dtype": "f32le",
    }
    write_kv(_header_path(path), header)
    volume.data.astype("<f4").tofile(path)


def load_volume(path: str) -> Volume:
    header_path = _header_path(path)
    if not os.path.exists(header_path):
        raise VolumeIOError(f"missing header {header_path}")
    header = read_kv(header_path)
    try:
        shape = tuple(int(x) for x in header["shape"].split())
        spacing = tuple(float(x) for x in header["spacing"].split())
        modality = header["modality"]
        dtype = header["dtype"]
    except (KeyError, ValueError) as exc:
        raise VolumeIOError(f"garbled header {header_path}: {exc}") from exc
    if dtype != "f32le":
        raise VolumeIOError(f"{header_path}: unsupported dtype {dtype!r}, expected f32le")
    if len(shape) != 4:
        raise VolumeIOError(f"{header_path}: shape must have 4 entries, got {shape}")
    if min(shape) < 1:
        raise VolumeIOError(f"{header_path}: extents must be >= 1, got {shape}")
    expected = int(np.prod(shape)) * 4
    actual = os.path.getsize(path)
    if actual != expected:
        raise VolumeIOError(f"{path}: payload is {actual} bytes, header implies {expected}")
    raw = np.fromfile(path, dtype="<f4").reshape(shape)
    if not np.isfinite(raw).all():
        raise VolumeIOError(f"{path}: payload contains non-finite voxels")
    return Volume(raw.astype(np.float64), spacing, modality)


def save_labels(path: str, labels: LabelVolume) -> None:
    header = {
        "shape": " ".join(str(n) for n in labels.data.shape),
        "num_classes": str(labels.num_classes),
        "dtype": "u16le",
    }
    write_kv(_header_path(path), header)
    labels.data.astype("<u2").tofile(path)


def load_labels(path: str) -> LabelVolume:
    header_path = _header_path(path)
    if not os.path.exists(header_path):
        raise VolumeIOError(f"missing header {header_path}")
    header = read_kv(header_path)
    try:
        shape = tuple(int(x) for x in header["shape"].split())
        num_classes = int(header["num_classes"])
        dtype = header["dtype"]
    except (KeyError, ValueError) as exc:
        raise VolumeIOError(f"garbled header {header_path}: {exc}") from exc
    if dtype != "u16le":
        raise VolumeIOError(f"{header_path}: unsupported dtype {dtype!r}, expected u16le")
    if min(shape, default=0) < 1:
        raise VolumeIOError(f"{header_path}: extents must be >= 1, got {shape}")
    expected = int(np.prod(shape)) * 2
    actual = os.path.getsize(path)
    if actual != expected:
        raise VolumeIOError(f"{path}: payload is {actual} bytes, header implies {expected}")
    raw = np.fromfile(path, dtype="<u2").reshape(shape)
    return LabelVolume(raw, num_classes)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

def _ellipsoid_mask(extents, center, semi_axes):
    grids = np.ogrid[0 : extents[0], 0 : extents[1], 0 : extents[2]]
    acc = np.zeros(extents)
    for g, c, a in zip(grids, center, semi_axes):
        acc = acc + ((g - c) / a) ** 2
    return acc <= 1.0


def synth_generate(
    seed: int,
    count: int,
    shape: int | tuple[int, int, int],
    num_classes: int,
    noise: float = 0.1,
    max_retries: int = 64,
) -> list[tuple[Volume, LabelVolume]]:
    """Deterministic synthetic volumes: textured ellipsoids on a noisy background.

    Each sample carries one disjoint ellipsoid per foreground class. Class
    mean intensities are distinct but the gaps are comparable to the texture
    noise, so clean segmentation needs spatial context, not just a voxel
    threshold.
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
            for _ in range(max_retries):
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
                    f"could not place ellipsoid for class {k} after {max_retries} retries"
                )
        volume = Volume(np.clip(data, 0.0, 1.0)[None], (1.0, 1.0, 1.0), "SYNTH")
        samples.append((volume, LabelVolume(labels, num_classes)))
    return samples
