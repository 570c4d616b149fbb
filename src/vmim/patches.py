"""Patchification, uniform random masking, and sinusoidal position codes.

Tokens are non-overlapping p^3 voxel blocks in row-major (depth, height,
width) grid order. Masking units are q^3 voxel super-cells where q is an
integer multiple of p, so one drawn cell hides (q/p)^3 tokens.
MaskingConfig lives with the key schema in ``config``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MaskingConfig, check_window
from .rng import Rng
from .volume import Volume


@dataclass(frozen=True)
class PatchGrid:
    token_patch: int
    grid: tuple[int, int, int]
    channels: int

    @classmethod
    def for_volume(cls, volume: Volume, token_patch: int) -> "PatchGrid":
        return cls.for_shape(volume.data.shape, token_patch)

    @classmethod
    def for_shape(cls, shape: tuple[int, ...], token_patch: int) -> "PatchGrid":
        channels, *extents = shape
        if token_patch < 1:
            raise ValueError(f"token patch must be >= 1, got {token_patch}")
        for axis, n in enumerate(extents):
            if n % token_patch:
                raise ValueError(
                    f"extent {n} on axis {axis} is not divisible by patch size {token_patch}"
                )
        grid = tuple(n // token_patch for n in extents)
        return cls(token_patch, grid, channels)

    @property
    def num_tokens(self) -> int:
        gd, gh, gw = self.grid
        return gd * gh * gw

    @property
    def token_dim(self) -> int:
        return self.channels * self.token_patch**3

    def coordinates(self) -> np.ndarray:
        """(N, 3) integer grid coordinate of each token, row-major order."""
        gd, gh, gw = self.grid
        d, h, w = np.meshgrid(np.arange(gd), np.arange(gh), np.arange(gw), indexing="ij")
        return np.stack([d.ravel(), h.ravel(), w.ravel()], axis=1)


@dataclass(frozen=True)
class TokenBatch:
    tokens: np.ndarray  # (N, token_dim)
    grid: PatchGrid


@dataclass(frozen=True)
class Mask:
    masked_token_ids: np.ndarray  # sorted unique int64
    total_tokens: int

    def __post_init__(self):
        ids = np.asarray(self.masked_token_ids, dtype=np.int64)
        object.__setattr__(self, "masked_token_ids", ids)
        if ids.size:
            if ids.min() < 0 or ids.max() >= self.total_tokens:
                raise ValueError("masked token id out of range")
            if np.unique(ids).size != ids.size or not (np.diff(ids) > 0).all():
                raise ValueError("masked token ids must be sorted and unique")

    @property
    def num_masked(self) -> int:
        return int(self.masked_token_ids.size)

    def visible_token_ids(self) -> np.ndarray:
        visible = np.ones(self.total_tokens, dtype=bool)
        visible[self.masked_token_ids] = False
        return np.nonzero(visible)[0]


def patchify(volume: Volume, token_patch: int) -> TokenBatch:
    """Split into p^3 blocks; each token is the row-major flat (C,p,p,p) block."""
    grid = PatchGrid.for_volume(volume, token_patch)
    c = grid.channels
    p = grid.token_patch
    gd, gh, gw = grid.grid
    blocks = volume.data.reshape(c, gd, p, gh, p, gw, p)
    tokens = blocks.transpose(1, 3, 5, 0, 2, 4, 6).reshape(grid.num_tokens, grid.token_dim)
    return TokenBatch(np.ascontiguousarray(tokens), grid)


def unpatchify(tokens: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """Inverse of patchify; returns the (C, D, H, W) voxel array."""
    tokens = np.asarray(tokens)
    if tokens.shape != (grid.num_tokens, grid.token_dim):
        raise ValueError(
            f"expected token array of shape {(grid.num_tokens, grid.token_dim)}, "
            f"got {tokens.shape}"
        )
    c = grid.channels
    p = grid.token_patch
    gd, gh, gw = grid.grid
    blocks = tokens.reshape(gd, gh, gw, c, p, p, p)
    data = blocks.transpose(3, 0, 4, 1, 5, 2, 6).reshape(c, gd * p, gh * p, gw * p)
    return np.ascontiguousarray(data)


def sample_mask(grid: PatchGrid, cfg: MaskingConfig, rng: Rng) -> Mask:
    """Uniform random masking at super-cell granularity.

    floor(ratio * n_cells) cells are drawn without replacement by partial
    Fisher-Yates, so the masked count is exact and the draw is portable.
    """
    factor = cfg.cell_factor(grid.token_patch)
    for axis, g in enumerate(grid.grid):
        if g % factor:
            raise ValueError(
                f"token grid extent {g} on axis {axis} is not divisible by "
                f"masked/token patch ratio {factor}"
            )
    cells = tuple(g // factor for g in grid.grid)
    n_cells = cells[0] * cells[1] * cells[2]
    n_draw = int(np.floor(cfg.ratio * n_cells))
    drawn = rng.sample_without_replacement(n_cells, n_draw)
    if not drawn:
        return Mask(np.empty(0, dtype=np.int64), grid.num_tokens)

    cd, ch, cw = cells
    gd, gh, gw = grid.grid
    cell_ids = np.asarray(drawn, dtype=np.int64)
    cell_d, rem = np.divmod(cell_ids, ch * cw)
    cell_h, cell_w = np.divmod(rem, cw)
    offsets = np.arange(factor)
    od, oh, ow = np.meshgrid(offsets, offsets, offsets, indexing="ij")
    token_d = (cell_d[:, None] * factor + od.ravel()[None]).ravel()
    token_h = (cell_h[:, None] * factor + oh.ravel()[None]).ravel()
    token_w = (cell_w[:, None] * factor + ow.ravel()[None]).ravel()
    ids = (token_d * gh + token_h) * gw + token_w
    return Mask(np.sort(ids), grid.num_tokens)


def check_mask_at_window(cfg: MaskingConfig, token_patch: int, window: int) -> None:
    """Raise ValueError, naming mask.ratio, when a mask on a ``window``^3 crop
    would hide no patch or every patch.

    Also raises what check_window and sample_mask raise for that crop.
    """
    check_window(window, token_patch)
    if window % cfg.patch:
        raise ValueError(f"train.window {window} is not divisible by mask.patch {cfg.patch}")
    # Every mask that sample_mask draws on a grid hides as many patches.
    grid = PatchGrid.for_shape((1,) + (window,) * 3, token_patch)
    masked = sample_mask(grid, cfg, Rng(0)).num_masked
    if not 0 < masked < grid.num_tokens:
        raise ValueError(
            f"mask.ratio {cfg.ratio} masks {masked} of {grid.num_tokens} patches at "
            f"train.window {window}; need at least one masked and one visible patch"
        )


def _axis_table(positions: np.ndarray, dim_axis: int) -> np.ndarray:
    half = dim_axis // 2
    omega = 1.0 / (10000.0 ** (np.arange(half) / half))
    angles = positions[:, None] * omega[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


def positional_encoding(grid: PatchGrid, dim: int) -> np.ndarray:
    """Fixed 3-D sinusoidal encoding, dim/3 channels per axis; (N, dim)."""
    if dim % 6:
        raise ValueError(f"encoding dim must be divisible by 6, got {dim}")
    coords = grid.coordinates().astype(np.float64)
    per_axis = dim // 3
    parts = [_axis_table(coords[:, axis], per_axis) for axis in range(3)]
    return np.concatenate(parts, axis=1)


def positional_table(grid: PatchGrid, dim: int) -> np.ndarray:
    """Sinusoidal table padded with zero channels when dim % 6 != 0.

    Model widths (64, 512, ...) are not generally multiples of 6; the
    strict encoding fills the leading 6*floor(dim/6) channels and the
    remainder stays zero.
    """
    usable = (dim // 6) * 6
    table = np.zeros((grid.num_tokens, dim))
    if usable:
        table[:, :usable] = positional_encoding(grid, usable)
    return table
