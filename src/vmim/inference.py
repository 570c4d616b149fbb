"""Sliding-window inference, Dice evaluation, and reconstruction dumps."""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from .checkpoint import load_checkpoint
from .config import MaskingConfig, SegConfig, SlidingWindowConfig, build, check_window
from .metrics import DiceReport, dice
from .models import mae_forward, simmim_forward, unetr_segment
from .patches import PatchGrid, sample_mask, unpatchify
from .rng import Rng
from .volume import LabelVolume, Volume, check_pair


def _window_starts(extent: int, window: int, stride: int) -> list[int]:
    starts = list(range(0, extent - window + 1, stride))
    if starts[-1] != extent - window:
        starts.append(extent - window)  # final window clamps to the boundary
    return starts


def _coverage(extent: int, window: int, starts: list[int]) -> np.ndarray:
    counts = np.zeros(extent)
    for s in starts:
        counts[s : s + window] += 1.0
    return counts


def sliding_window_infer(
    model: Callable[[np.ndarray], np.ndarray],
    volume: Volume,
    cfg: SlidingWindowConfig,
) -> np.ndarray:
    """Tile the volume, run the model per window, average overlaps.

    model maps a (C, w, w, w) array to (K, w, w, w) logits. Volumes smaller
    than the window are zero-padded for the model and cropped back. Sums
    are accumulated first and divided once, so the result is independent
    of window visit order. The windows are every combination of per-axis
    starts, so a voxel's window count is the product of three per-axis
    counts (small integers, exact in float64); the sums are divided by it
    in place, one depth slice at a time, and no full-size count or output
    array is made beside the sums.
    """
    data = volume.data
    extents = data.shape[1:]
    w = cfg.window
    pad = [max(0, w - n) for n in extents]
    if any(pad):
        data = np.pad(data, [(0, 0)] + [(0, p) for p in pad])
    padded_extents = data.shape[1:]

    starts = [_window_starts(n, w, cfg.stride) for n in padded_extents]
    accum = None
    for sd in starts[0]:
        for sh in starts[1]:
            for sw in starts[2]:
                patch = data[:, sd : sd + w, sh : sh + w, sw : sw + w]
                logits = np.asarray(model(patch))
                if accum is None:
                    accum = np.zeros((logits.shape[0],) + padded_extents)
                accum[:, sd : sd + w, sh : sh + w, sw : sw + w] += logits
    depth, rows, cols = (_coverage(n, w, s) for n, s in zip(padded_extents, starts))
    plane = np.multiply.outer(rows, cols)
    assert depth.min() >= 1.0 and plane.min() >= 1.0
    for d, count in enumerate(depth):
        accum[:, d] /= count * plane
    return accum[:, : extents[0], : extents[1], : extents[2]]


def seg_model_fn(seg_cfg: SegConfig, params: dict) -> Callable[[np.ndarray], np.ndarray]:
    def run(window: np.ndarray) -> np.ndarray:
        return np.moveaxis(unetr_segment(seg_cfg, params, Volume(window)).data, -1, 0)

    return run


def predict_labels(
    seg_cfg: SegConfig,
    params: dict,
    volume: Volume,
    swi_cfg: SlidingWindowConfig,
) -> np.ndarray:
    logits = sliding_window_infer(seg_model_fn(seg_cfg, params), volume, swi_cfg)
    # np.argmax over the class axis copies its operand to class-last order
    # first; one depth slice at a time, that copy is a slice, not a volume.
    labels = np.empty(logits.shape[1:], dtype=np.uint16)
    for d in range(labels.shape[0]):
        labels[d] = np.argmax(logits[:, d], axis=0)
    return labels


def dice_over_dataset(
    predict: Callable[[Volume], np.ndarray],
    dataset: list[tuple[Volume, LabelVolume]],
    num_classes: int,
) -> DiceReport:
    """Per-foreground-class Dice of a predictor, averaged over volumes; each
    pair's extents are checked before the first prediction."""
    if not dataset:
        raise ValueError("evaluation dataset is empty")
    for i, (volume, labels) in enumerate(dataset):
        check_pair(volume, labels, f"pair {i}")
        if labels.num_classes != num_classes:
            raise ValueError(
                f"labels carry {labels.num_classes} classes, model predicts {num_classes}"
            )
    sums = {c: 0.0 for c in range(1, num_classes)}
    for volume, labels in dataset:
        predicted = predict(volume)
        for c in sums:
            sums[c] += dice(labels.data, predicted, c)
    return DiceReport({c: s / len(dataset) for c, s in sums.items()})


def evaluate(
    checkpoint_path: str,
    dataset: list[tuple[Volume, LabelVolume]],
    swi_cfg: SlidingWindowConfig,
) -> DiceReport:
    """Sliding-window segmentation of every volume, Dice per foreground class.

    Per-class scores are averaged over volumes; the report average is the
    mean over foreground classes. Raises ValueError, naming swi.window,
    before any window when the windows split no whole token patches, and
    VolumeIOError, naming the pair, when a pair's extents differ.
    """
    params, config = load_checkpoint(checkpoint_path)
    if config.get("method") != "seg":
        raise ValueError(f"checkpoint method {config.get('method')!r} is not a segmentation model")
    seg_cfg = build("seg", config, vit=build("model", config))
    check_window(swi_cfg.window, seg_cfg.vit.token_patch, "swi.window")
    return dice_over_dataset(
        lambda v: predict_labels(seg_cfg, params, v, swi_cfg),
        dataset,
        seg_cfg.num_classes,
    )


# ---------------------------------------------------------------------------
# Reconstruction visualization
# ---------------------------------------------------------------------------

def write_pgm(path: str, image: np.ndarray) -> None:
    """Binary 8-bit PGM (P5)."""
    image = np.asarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise ValueError(f"PGM image must be 2-D, got {image.shape}")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def _to_bytes(data: np.ndarray) -> np.ndarray:
    """Min-max scaled to 0..255, computed in float64 (volumes are float32)."""
    data = np.asarray(data, dtype=np.float64)
    lo, hi = float(data.min()), float(data.max())
    if hi <= lo:
        return np.zeros(data.shape, dtype=np.uint8)
    return np.clip(np.rint((data - lo) / (hi - lo) * 255.0), 0, 255).astype(np.uint8)


MASK_GRAY = 128


def reconstruct_dump(
    checkpoint_path: str,
    volume: Volume,
    mask_cfg: MaskingConfig,
    depth_indices: list[int],
    out_dir: str,
    seed: int = 0,
) -> list[str]:
    """Original / masked / reconstructed slice triptychs as PGM files.

    Both the original and the reconstruction are min-max scaled over the
    whole volume; masked voxels render as mid-gray 128.
    """
    params, config = load_checkpoint(checkpoint_path)
    method = config.get("method")
    if method not in ("mae", "simmim"):
        raise ValueError(f"checkpoint method {method!r} cannot reconstruct volumes")
    vit = build("model", config)
    grid = PatchGrid.for_volume(volume, vit.token_patch)
    depth_extent = volume.data.shape[1]
    for d in depth_indices:
        if not 0 <= d < depth_extent:
            raise ValueError(f"depth index {d} out of range [0, {depth_extent})")

    rng = Rng.derive(seed, "reconstruct")
    mask = sample_mask(grid, mask_cfg, rng) if mask_cfg.ratio > 0 else None
    if mask is not None and mask.num_masked == 0:
        mask = None
    recon_cfg = build("recon", config)
    if mask is None:
        recon = volume.data  # nothing masked: the target itself
    elif method == "mae":
        dec_cfg = build("dec", config)
        recon = unpatchify(mae_forward(vit, dec_cfg, params, volume, mask, recon_cfg)[0].data, grid)
    else:
        recon = unpatchify(simmim_forward(vit, params, volume, mask, recon_cfg)[0].data, grid)

    os.makedirs(out_dir, exist_ok=True)
    original_bytes = _to_bytes(volume.data[0])
    recon_bytes = _to_bytes(recon[0])
    masked_bytes = original_bytes.copy()
    if mask is not None:
        masked_tokens = np.zeros((grid.num_tokens, grid.token_dim), dtype=bool)
        masked_tokens[mask.masked_token_ids] = True
        masked_bytes[unpatchify(masked_tokens, grid)[0]] = MASK_GRAY

    paths = []
    for d in depth_indices:
        for tag, stack in (
            ("original", original_bytes),
            ("masked", masked_bytes),
            ("reconstruction", recon_bytes),
        ):
            path = os.path.join(out_dir, f"slice{d:03d}_{tag}.pgm")
            write_pgm(path, stack[d])
            paths.append(path)
    return paths
