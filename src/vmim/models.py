"""ViT3D encoder and the method-specific heads built on top of it.

Forward passes operate on one volume at a time (training averages losses
over a batch). Parameter sets are flat name -> Tensor maps; the encoder
parameter names are shared by every method so pretrained weights drop
straight into the segmentation model.

Activations are channel-last throughout: tokens are (N, dim) rows, the
reconstruction heads predict (N, token_dim) tokens, and the segmentation
decoder works on (T, m, C) token blocks and returns (D, H, W, num_classes)
logits. Only the input ``Volume.data`` is (C, D, H, W).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, apply
from .losses import ReconLossConfig, masked_recon_loss, ntxent
from .patches import Mask, PatchGrid, TokenBatch, patchify, positional_table
from .rng import np_generator
from .volume import Volume

Params = dict[str, Tensor]


@dataclass(frozen=True)
class ViTConfig:
    embed_dim: int
    depth: int
    num_heads: int
    token_patch: int
    mlp_ratio: int = 4
    channels: int = 1

    def __post_init__(self):
        if self.embed_dim % self.num_heads:
            raise ValueError(
                f"embed dim {self.embed_dim} not divisible by {self.num_heads} heads"
            )
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")

    @property
    def mlp_dim(self) -> int:
        return self.embed_dim * self.mlp_ratio

    def token_dim(self) -> int:
        return self.channels * self.token_patch**3


@dataclass(frozen=True)
class MAEDecoderConfig:
    decoder_dim: int
    decoder_depth: int
    decoder_heads: int

    def __post_init__(self):
        if self.decoder_dim % self.decoder_heads:
            raise ValueError(
                f"decoder dim {self.decoder_dim} not divisible by "
                f"{self.decoder_heads} heads"
            )


@dataclass(frozen=True)
class SimCLRConfig:
    proj_hidden: int
    proj_dim: int
    temperature: float = 0.5


@dataclass(frozen=True)
class SegConfig:
    vit: ViTConfig
    num_classes: int
    width: int = 16

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"need >= 2 classes, got {self.num_classes}")
        p = self.vit.token_patch
        if p & (p - 1):
            raise ValueError(
                f"segmentation decoder needs a power-of-two token patch, got {p}"
            )


# ---------------------------------------------------------------------------
# Parameter initialization
# ---------------------------------------------------------------------------

def _trunc_normal(gen: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    out = gen.standard_normal(shape)
    while True:
        bad = np.abs(out) > 2.0
        n = int(bad.sum())
        if not n:
            break
        out[bad] = gen.standard_normal(n)
    return out * std


class _Init:
    def __init__(self, seed: int, label: str):
        self.gen = np_generator(seed, "init", label)
        self.params: Params = {}

    def weight(self, name: str, shape) -> None:
        self.params[name] = Tensor(_trunc_normal(self.gen, shape), requires_grad=True)

    def conv_weight(self, name: str, shape, fan_in: int) -> None:
        # He scaling; the 0.02 transformer convention starves stacked convs.
        std = math.sqrt(2.0 / fan_in)
        self.params[name] = Tensor(
            self.gen.standard_normal(shape) * std, requires_grad=True
        )

    def zeros(self, name: str, shape) -> None:
        self.params[name] = Tensor(np.zeros(shape), requires_grad=True)

    def ones(self, name: str, shape) -> None:
        self.params[name] = Tensor(np.ones(shape), requires_grad=True)

    def block(self, prefix: str, dim: int, mlp_dim: int) -> None:
        self.ones(f"{prefix}.ln1.g", (dim,))
        self.zeros(f"{prefix}.ln1.b", (dim,))
        for proj in ("q", "k", "v", "proj"):
            self.weight(f"{prefix}.{proj}.w", (dim, dim))
            self.zeros(f"{prefix}.{proj}.b", (dim,))
        self.ones(f"{prefix}.ln2.g", (dim,))
        self.zeros(f"{prefix}.ln2.b", (dim,))
        self.weight(f"{prefix}.mlp1.w", (dim, mlp_dim))
        self.zeros(f"{prefix}.mlp1.b", (mlp_dim,))
        self.weight(f"{prefix}.mlp2.w", (mlp_dim, dim))
        self.zeros(f"{prefix}.mlp2.b", (dim,))


def _init_encoder(init: _Init, cfg: ViTConfig) -> None:
    init.weight("patch_embed.w", (cfg.token_dim(), cfg.embed_dim))
    init.zeros("patch_embed.b", (cfg.embed_dim,))
    for i in range(cfg.depth):
        init.block(f"enc.{i}", cfg.embed_dim, cfg.mlp_dim)
    init.ones("enc_norm.g", (cfg.embed_dim,))
    init.zeros("enc_norm.b", (cfg.embed_dim,))


def init_mae_params(cfg: ViTConfig, dec_cfg: MAEDecoderConfig, seed: int) -> Params:
    init = _Init(seed, "mae")
    _init_encoder(init, cfg)
    init.weight("dec_embed.w", (cfg.embed_dim, dec_cfg.decoder_dim))
    init.zeros("dec_embed.b", (dec_cfg.decoder_dim,))
    init.weight("mask_token", (1, dec_cfg.decoder_dim))
    for i in range(dec_cfg.decoder_depth):
        init.block(f"dec.{i}", dec_cfg.decoder_dim, dec_cfg.decoder_dim * 4)
    init.ones("dec_norm.g", (dec_cfg.decoder_dim,))
    init.zeros("dec_norm.b", (dec_cfg.decoder_dim,))
    init.weight("dec_head.w", (dec_cfg.decoder_dim, cfg.token_dim()))
    init.zeros("dec_head.b", (cfg.token_dim(),))
    return init.params


def init_simmim_params(cfg: ViTConfig, seed: int) -> Params:
    init = _Init(seed, "simmim")
    _init_encoder(init, cfg)
    init.weight("mask_token", (1, cfg.embed_dim))
    init.weight("head.w", (cfg.embed_dim, cfg.token_dim()))
    init.zeros("head.b", (cfg.token_dim(),))
    return init.params


def init_simclr_params(cfg: ViTConfig, proj: SimCLRConfig, seed: int) -> Params:
    init = _Init(seed, "simclr")
    _init_encoder(init, cfg)
    init.weight("proj1.w", (cfg.embed_dim, proj.proj_hidden))
    init.zeros("proj1.b", (proj.proj_hidden,))
    init.weight("proj2.w", (proj.proj_hidden, proj.proj_dim))
    init.zeros("proj2.b", (proj.proj_dim,))
    return init.params


def init_seg_params(cfg: SegConfig, seed: int) -> Params:
    init = _Init(seed, "seg")
    _init_encoder(init, cfg.vit)
    vit = cfg.vit
    f = cfg.width
    stages = int(math.log2(vit.token_patch))
    if vit.depth < 1:
        raise ValueError("segmentation decoder needs depth >= 1 for its taps")
    init.conv_weight("seg.in.w", (vit.embed_dim, f), vit.embed_dim)
    init.zeros("seg.in.b", (f,))
    for s in range(1, stages + 1):
        init.conv_weight(f"seg.up{s}.w", (f, f, 2, 2, 2), f)
        fuse_width = f
        if 4 - s >= 1:
            init.conv_weight(f"seg.skip{s}.proj.w", (vit.embed_dim, f), vit.embed_dim)
            init.zeros(f"seg.skip{s}.proj.b", (f,))
            for j in range(s):
                init.conv_weight(f"seg.skip{s}.up{j}.w", (f, f, 2, 2, 2), f)
            fuse_width += f
        if s == stages:
            fuse_width += vit.channels  # raw-voxel skip at full resolution
        init.conv_weight(f"seg.fuse{s}.w", (fuse_width, f), fuse_width)
        init.zeros(f"seg.fuse{s}.b", (f,))
    init.conv_weight("seg.head.w", (f, cfg.num_classes), f)
    init.zeros("seg.head.b", (cfg.num_classes,))
    return init.params


ENCODER_PREFIXES = ("patch_embed.", "enc.", "enc_norm.")


def encoder_param_names(params: Params) -> list[str]:
    return [n for n in params if n.startswith(ENCODER_PREFIXES)]


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------

def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _ln(x: Tensor, params: Params, prefix: str) -> Tensor:
    normed = apply("layernorm", (x,), {"eps": 1e-6})
    return normed * params[f"{prefix}.g"] + params[f"{prefix}.b"]


def _linear(x: Tensor, params: Params, prefix: str) -> Tensor:
    return apply("linear", (x, params[f"{prefix}.w"], params[f"{prefix}.b"]))


def _attention(x: Tensor, params: Params, prefix: str, num_heads: int) -> Tensor:
    """Multi-head self-attention of (N, dim) rows: the q, k and v
    projections, one fused ``attention`` node, and the output projection."""
    q, k, v = (_linear(x, params, f"{prefix}.{name}") for name in ("q", "k", "v"))
    mixed = apply("attention", (q, k, v), {"num_heads": num_heads})
    return _linear(mixed, params, f"{prefix}.proj")


def _linear_gelu(x: Tensor, params: Params, prefix: str) -> Tensor:
    return apply("linear_gelu", (x, params[f"{prefix}.w"], params[f"{prefix}.b"]))


def _mlp(x: Tensor, params: Params, prefix: str) -> Tensor:
    return _linear(_linear_gelu(x, params, f"{prefix}.mlp1"), params, f"{prefix}.mlp2")


def _block(x: Tensor, params: Params, prefix: str, num_heads: int) -> Tensor:
    x = x + _attention(_ln(x, params, f"{prefix}.ln1"), params, prefix, num_heads)
    return x + _mlp(_ln(x, params, f"{prefix}.ln2"), params, prefix)


def _run_blocks(x: Tensor, params: Params, stem: str, depth: int, num_heads: int) -> Tensor:
    for i in range(depth):
        x = _block(x, params, f"{stem}.{i}", num_heads)
    return x


def encode(cfg: ViTConfig, params: Params, tokens, positions) -> Tensor:
    """Patch-embed raw tokens, add positions, run the transformer stack.

    tokens may be restricted to the visible rows; positions must be
    row-aligned with tokens.
    """
    x = _as_tensor(tokens)
    pos = _as_tensor(positions)
    if x.shape[-1] != cfg.token_dim():
        raise ValueError(f"token dim {x.shape[-1]} != expected {cfg.token_dim()}")
    if pos.shape != (x.shape[0], cfg.embed_dim):
        raise ValueError(f"positions shape {pos.shape} misaligned with tokens {x.shape}")
    h = _linear(x, params, "patch_embed")
    h = h + pos
    h = _run_blocks(h, params, "enc", cfg.depth, cfg.num_heads)
    return _ln(h, params, "enc_norm")


def _scatter(rows: Tensor, indices: np.ndarray, total: int) -> Tensor:
    return apply("scatter_rows", (rows,), {"indices": indices, "total": total})


def _patchify_masked(cfg: ViTConfig, volume: Volume, mask: Mask) -> TokenBatch:
    """Tokens of a volume whose ``mask`` a reconstruction head will fill."""
    if mask.num_masked == 0:
        raise ValueError("no masked patches to reconstruct")
    batch = patchify(volume, cfg.token_patch)
    if mask.total_tokens != batch.grid.num_tokens:
        raise ValueError(
            f"mask covers {mask.total_tokens} tokens, volume has {batch.grid.num_tokens}"
        )
    return batch


def _fill_masked(rows: Tensor, visible: np.ndarray, token: Tensor, mask: Mask) -> Tensor:
    """The full sequence: ``rows`` at the visible slots, ``token`` at each masked one."""
    token_rows = Tensor(np.zeros((mask.num_masked, token.shape[1]))) + token
    total = mask.total_tokens
    return _scatter(rows, visible, total) + _scatter(token_rows, mask.masked_token_ids, total)


def mae_forward(
    cfg: ViTConfig,
    dec_cfg: MAEDecoderConfig,
    params: Params,
    volume: Volume,
    mask: Mask,
    recon_cfg: ReconLossConfig = ReconLossConfig(),
) -> tuple[Tensor, Tensor]:
    """Autoencoder pass: encoder sees visible tokens only, the decoder sees
    the full sequence with a shared learnable token at masked slots.

    Returns (predicted tokens (N, token_dim), masked reconstruction loss).
    """
    batch = _patchify_masked(cfg, volume, mask)
    if mask.num_masked == mask.total_tokens:
        raise ValueError("no visible patches to encode")
    grid = batch.grid

    visible = mask.visible_token_ids()
    enc_pos = positional_table(grid, cfg.embed_dim)
    latents = encode(cfg, params, batch.tokens[visible], enc_pos[visible])

    projected = _linear(latents, params, "dec_embed")
    full = _fill_masked(projected, visible, params["mask_token"], mask)
    dec_pos = Tensor(positional_table(grid, dec_cfg.decoder_dim))
    full = full + dec_pos
    decoded = _run_blocks(full, params, "dec", dec_cfg.decoder_depth, dec_cfg.decoder_heads)
    decoded = _ln(decoded, params, "dec_norm")
    pred = _linear(decoded, params, "dec_head")

    loss = masked_recon_loss(pred, batch.tokens, mask, recon_cfg)
    return pred, loss


def simmim_forward(
    cfg: ViTConfig,
    params: Params,
    volume: Volume,
    mask: Mask,
    recon_cfg: ReconLossConfig = ReconLossConfig(),
) -> tuple[Tensor, Tensor]:
    """Full-sequence pass with mask-token substitution in embedding space
    and a single linear projection back to voxels.

    Returns (predicted tokens (N, token_dim), masked reconstruction loss).
    """
    batch = _patchify_masked(cfg, volume, mask)
    grid = batch.grid

    embedded = _linear(Tensor(batch.tokens), params, "patch_embed")
    visible = mask.visible_token_ids()
    kept = apply("gather_rows", (embedded,), {"indices": visible})
    mixed = _fill_masked(kept, visible, params["mask_token"], mask)
    pos = Tensor(positional_table(grid, cfg.embed_dim))
    h = mixed + pos
    h = _run_blocks(h, params, "enc", cfg.depth, cfg.num_heads)
    h = _ln(h, params, "enc_norm")
    pred = _linear(h, params, "head")

    loss = masked_recon_loss(pred, batch.tokens, mask, recon_cfg)
    return pred, loss


def _pooled_embedding(cfg: ViTConfig, params: Params, volume: Volume) -> Tensor:
    batch = patchify(volume, cfg.token_patch)
    pos = positional_table(batch.grid, cfg.embed_dim)
    latents = encode(cfg, params, batch.tokens, pos)
    return latents.mean(axis=0, keepdims=True)  # (1, E)


def simclr_forward(
    cfg: ViTConfig,
    params: Params,
    view1: list[Volume],
    view2: list[Volume],
    temperature: float = 0.5,
) -> Tensor:
    """NT-Xent loss over mean-pooled, projected embeddings of two views."""
    if len(view1) != len(view2):
        raise ValueError(f"views differ in batch size: {len(view1)} vs {len(view2)}")
    if len(view1) < 2:
        raise ValueError("contrastive loss needs batch size >= 2 for negatives")
    pooled = [_pooled_embedding(cfg, params, v) for v in view1 + view2]
    stacked = apply("concat", tuple(pooled), {"axis": 0})  # (2B, E)
    projected = _linear(_linear_gelu(stacked, params, "proj1"), params, "proj2")
    normalized = apply("rownorm", (projected,))
    return ntxent(normalized, temperature)


def tap_depths(depth: int) -> list[int]:
    """1-indexed block depths feeding the segmentation decoder."""
    if depth < 1:
        raise ValueError("need depth >= 1 to tap features")
    return sorted({max(1, math.ceil(depth * k / 4)) for k in range(1, 5)})


def _encoder_taps(vit: ViTConfig, params: Params, volume: Volume) -> tuple[PatchGrid, list[Tensor]]:
    """The (T, E) token rows at each of ``tap_depths``, shallow to deep;
    the deepest is layer-normed."""
    batch = patchify(volume, vit.token_patch)
    taps = tap_depths(vit.depth)
    h = _linear(Tensor(batch.tokens), params, "patch_embed")
    h = h + Tensor(positional_table(batch.grid, vit.embed_dim))
    tapped = []
    for i in range(vit.depth):
        h = _block(h, params, f"enc.{i}", vit.num_heads)
        if (i + 1) in taps:
            tapped.append(h)
    tapped[-1] = _ln(tapped[-1], params, "enc_norm")
    return batch.grid, tapped


def _voxel_axes(levels: int) -> list[int]:
    """Permutation of a (gd, gh, gw, [d, h, w] * levels, C) block array into
    (gd, d..., gh, h..., gw, w..., C) voxel order, coarsest bit first."""
    axes = []
    for axis in range(3):
        axes += [axis] + [3 + 3 * level + axis for level in range(levels)]
    return axes + [3 + 3 * levels]


def _voxel_blocks(volume: Volume, grid: PatchGrid) -> np.ndarray:
    """(C, D, H, W) voxels as (T, p^3, C) token blocks (off the tape)."""
    levels = int(math.log2(grid.token_patch))
    split = []
    for n in grid.grid:
        split += [n] + [2] * levels
    blocks = np.moveaxis(volume.data, 0, -1).reshape(split + [grid.channels])
    blocks = blocks.transpose(np.argsort(_voxel_axes(levels)))
    return blocks.reshape(grid.num_tokens, grid.token_patch**3, grid.channels)


def _blocks_to_voxels(x: Tensor, grid: PatchGrid) -> Tensor:
    """(T, p^3, K) token blocks as (D, H, W, K) voxels: one tape permute."""
    p = grid.token_patch
    levels = int(math.log2(p))
    k = x.shape[-1]
    split = x.reshape(grid.grid + (2, 2, 2) * levels + (k,))
    voxels = split.permute(_voxel_axes(levels))
    return voxels.reshape(tuple(n * p for n in grid.grid) + (k,))


def _octant_rows(params: Params, prefix: str) -> Tensor:
    """A (C, K, 2, 2, 2) transposed-conv weight as (8C, K) rows, octant minor."""
    w = params[f"{prefix}.w"]
    c, k = w.shape[:2]
    return w.permute((0, 2, 3, 4, 1)).reshape((8 * c, k))


def _upsample(x: Tensor, params: Params, prefix: str) -> Tensor:
    """Kernel-2, stride-2 transposed conv of (T, m, C) blocks to (T, 8m, K).

    The new octant becomes the finest sub-voxel digit, so this is one GEMM
    and a free reshape: no interleave.
    """
    t, m, c = x.shape
    rows = _octant_rows(params, prefix)
    k = rows.shape[1]
    y = x.reshape((t * m, c)) @ rows.reshape((c, 8 * k))
    return y.reshape((t, 8 * m, k))


def _fold(params: Params, prefix: str, fuse_rows: Tensor) -> Tensor:
    """The upsampling ``prefix`` followed by ``fuse_rows`` as one (C, 8f) map."""
    rows = _octant_rows(params, prefix)
    return (rows @ fuse_rows).reshape((rows.shape[0] // 8, 8 * fuse_rows.shape[1]))


def _rows(w: Tensor, start: int, stop: int) -> Tensor:
    return apply("gather_rows", (w,), {"indices": np.arange(start, stop)})


def unetr_segment(cfg: SegConfig, params: Params, volume: Volume) -> Tensor:
    """Full-sequence encoder plus a U-shaped transposed-convolution decoder.

    Taps at evenly spaced block depths are upsampled back to voxel
    resolution with stride-2 transposed convolutions and merged via skip
    connections. The decoder runs on (T, m, C) token blocks: T tokens in
    raster order, m = 8^level sub-voxels per token, coarsest octant first.
    Each stage's last upsamplings are linear maps feeding the linear fuse,
    so they are folded into the fuse weight and one GEMM at the coarse
    level gives the fuse pre-activation. Returns (D, H, W, num_classes)
    logits.
    """
    vit = cfg.vit
    grid, ordered = _encoder_taps(vit, params, volume)

    # Deepest tap enters at grid resolution; shallower taps join one
    # upsampling stage at a time; the raw volume always joins at full
    # resolution so voxel detail does not have to squeeze through the
    # patch embedding.
    stages = int(math.log2(vit.token_patch))
    f = cfg.width
    t = grid.num_tokens
    tap_shape = (t, 1, vit.embed_dim)
    # seg.in is a token-level linear and gelu (the same bits as linear_gelu),
    # kept apart because the benchmark's smoke test counts gelu calls in a
    # fine-tune run (ROADMAP, Fix first).
    x = apply("gelu", (_linear(ordered[-1].reshape(tap_shape), params, "seg.in"),))
    for s in range(1, stages + 1):
        fuse_w = params[f"seg.fuse{s}.w"]
        parts = [x]
        weights = [_fold(params, f"seg.up{s}", _rows(fuse_w, 0, f))]
        tap_index = 4 - s
        if tap_index >= 1:
            source = min(tap_index, len(ordered)) - 1
            skip = ordered[source].reshape(tap_shape)
            skip = _linear_gelu(skip, params, f"seg.skip{s}.proj")
            for j in range(s - 1):
                skip = _upsample(skip, params, f"seg.skip{s}.up{j}")
            parts.append(skip)
            weights.append(_fold(params, f"seg.skip{s}.up{s - 1}", _rows(fuse_w, f, 2 * f)))
        m = x.shape[1]
        if s == stages:
            # Raw voxels join as the 8 children of each coarse row, through a
            # block-diagonal copy of the fuse's raw-voxel rows.
            c = vit.channels
            raw = _voxel_blocks(volume, grid).reshape(t, m, 8 * c)
            parts.append(Tensor(raw))
            raw_rows = _rows(fuse_w, fuse_w.shape[0] - c, fuse_w.shape[0])
            eye = Tensor(np.eye(8).reshape(8, 1, 8, 1))
            block = (eye * raw_rows.reshape((1, c, 1, f))).reshape((8 * c, 8 * f))
            weights.append(block)
        coarse = apply("concat", tuple(parts), {"axis": -1})
        # The fuse bias, tiled over the 8 octants of each coarse row.
        bias = apply("concat", (params[f"seg.fuse{s}.b"],) * 8)
        fused = apply(
            "linear_gelu",
            (coarse.reshape((t * m, coarse.shape[-1])), apply("concat", tuple(weights)), bias),
        )
        x = fused.reshape((t, 8 * m, f))
    logits = _linear(x, params, "seg.head")
    return _blocks_to_voxels(logits, grid)
