"""ViT3D encoder and the method-specific heads built on top of it.

Forward passes operate on one volume at a time (training averages losses
over a batch). Parameter sets are flat name -> Tensor maps; the encoder
parameter names are shared by every method so pretrained weights drop
straight into the segmentation model.

Activations are channel-last throughout: tokens are (N, dim) rows, the
reconstruction heads predict (N, token_dim) tokens, and the segmentation
decoder works on (T, m, C) token blocks and returns (D, H, W, num_classes)
logits. Only the input ``Volume.data`` is (C, D, H, W).

Each layer is one tape node. A transformer block is a pre-norm
``attention`` node (layer norm, affine and the q, k and v projections),
the ``proj`` linear, a residual add, a pre-norm ``mlp`` node and its
residual add. Every dense layer followed by GELU is one ``gelu`` or
``mlp`` node, and the final ``enc_norm`` and ``dec_norm`` are one
``layernorm`` node each.

The config dataclasses (ViTConfig, MAEDecoderConfig, SimCLRConfig,
SegConfig) live with the key schema in ``config`` and are re-exported here.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor, apply
from .config import MAEDecoderConfig, ReconLossConfig, SegConfig, SimCLRConfig, ViTConfig
from .losses import masked_recon_loss, ntxent
from .patches import Mask, PatchGrid, TokenBatch, patchify, positional_encoding
from .rng import np_generator
from .volume import Volume

Params = dict[str, Tensor]


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
            if proj != "k":  # the softmax cancels a key bias
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
    init.weight("dec_embed.w", (cfg.embed_dim, dec_cfg.dim))
    init.zeros("dec_embed.b", (dec_cfg.dim,))
    init.weight("mask_token", (1, dec_cfg.dim))
    for i in range(dec_cfg.depth):
        init.block(f"dec.{i}", dec_cfg.dim, dec_cfg.dim * 4)
    init.ones("dec_norm.g", (dec_cfg.dim,))
    init.zeros("dec_norm.b", (dec_cfg.dim,))
    init.weight("dec_head.w", (dec_cfg.dim, cfg.token_dim()))
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
    init.weight("proj1.w", (cfg.embed_dim, proj.hidden))
    init.zeros("proj1.b", (proj.hidden,))
    init.weight("proj2.w", (proj.hidden, proj.dim))
    init.zeros("proj2.b", (proj.dim,))
    return init.params


def init_seg_params(cfg: SegConfig, seed: int) -> Params:
    init = _Init(seed, "seg")
    _init_encoder(init, cfg.vit)
    vit = cfg.vit
    f = cfg.width
    stages = int(math.log2(vit.token_patch))
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

def _ln(x: Tensor, params: Params, prefix: str) -> Tensor:
    return apply("layernorm", (x, params[f"{prefix}.g"], params[f"{prefix}.b"]))


def _linear(x: Tensor, params: Params, prefix: str) -> Tensor:
    return apply("linear", (x, params[f"{prefix}.w"], params[f"{prefix}.b"]))


def _attention(x: Tensor, params: Params, prefix: str, num_heads: int) -> Tensor:
    """Pre-norm multi-head self-attention of (N, dim) rows: one fused
    ``attention`` node, which takes the rows, the ``ln1`` affine and the q,
    k and v projection parameters and keeps neither the normed rows nor
    projected heads for its VJP, then the output projection."""
    names = ("ln1.g", "ln1.b", "q.w", "q.b", "k.w", "v.w", "v.b")
    mixed = apply("attention", (x, *(params[f"{prefix}.{n}"] for n in names)),
                  {"num_heads": num_heads})
    return _linear(mixed, params, f"{prefix}.proj")


def _linear_gelu(x: Tensor, params: Params, prefix: str) -> Tensor:
    return apply("gelu", (x, params[f"{prefix}.w"], params[f"{prefix}.b"]))


def _mlp(x: Tensor, params: Params, first: str, second: str, norm: str | None = None) -> Tensor:
    """Dense, GELU, dense as one fused ``mlp`` node, after the affine layer
    norm ``norm`` when one is named."""
    pre = (params[f"{norm}.g"], params[f"{norm}.b"]) if norm else ()
    dense = [params[f"{name}.{p}"] for name in (first, second) for p in ("w", "b")]
    return apply("mlp", (x, *pre, *dense))


def _block(x: Tensor, params: Params, prefix: str, num_heads: int) -> Tensor:
    x = x + _attention(x, params, prefix, num_heads)
    return x + _mlp(x, params, f"{prefix}.mlp1", f"{prefix}.mlp2", norm=f"{prefix}.ln2")


def _run_blocks(x: Tensor, params: Params, stem: str, depth: int, num_heads: int) -> Tensor:
    for i in range(depth):
        x = _block(x, params, f"{stem}.{i}", num_heads)
    return x


def encode(cfg: ViTConfig, params: Params, tokens: Tensor, positions: Tensor) -> Tensor:
    """Patch-embed raw tokens, add positions, run the transformer stack.

    tokens may be restricted to the visible rows; positions must be
    row-aligned with tokens.
    """
    if tokens.shape[-1] != cfg.token_dim():
        raise ValueError(f"token dim {tokens.shape[-1]} != expected {cfg.token_dim()}")
    if positions.shape != (tokens.shape[0], cfg.embed_dim):
        raise ValueError(f"positions shape {positions.shape} misaligned with tokens {tokens.shape}")
    h = _linear(tokens, params, "patch_embed")
    h = h + positions
    h = _run_blocks(h, params, "enc", cfg.depth, cfg.num_heads)
    return _ln(h, params, "enc_norm")


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


def _fill_masked(rows: Tensor, token: Tensor, mask: Mask) -> Tensor:
    """The full sequence: the i-th visible slot holds ``rows[i]``, each
    masked slot ``token``.

    One gather from ``rows`` stacked over one token row per masked slot. The
    token rows are ``token`` added to zeros, so the gather writes each row's
    gradient once and ``token``'s gradient is the add's column sum over the
    masked slots.
    """
    token_rows = Tensor(np.zeros((mask.num_masked, token.shape[1]))) + token
    index = np.empty(mask.total_tokens, dtype=np.int64)
    index[mask.visible_token_ids()] = np.arange(rows.shape[0])
    index[mask.masked_token_ids] = rows.shape[0] + np.arange(mask.num_masked)
    stacked = apply("concat", (rows, token_rows), {"axis": 0})
    return apply("gather_rows", (stacked,), {"indices": index})


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
    enc_pos = positional_encoding(grid, cfg.embed_dim)
    tokens, positions = (Tensor._wrap(a[visible]) for a in (batch.tokens, enc_pos))
    latents = encode(cfg, params, tokens, positions)

    projected = _linear(latents, params, "dec_embed")
    full = _fill_masked(projected, params["mask_token"], mask)
    dec_pos = Tensor._wrap(positional_encoding(grid, dec_cfg.dim))
    full = full + dec_pos
    decoded = _run_blocks(full, params, "dec", dec_cfg.depth, dec_cfg.heads)
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
    and a single linear projection back to voxels. Only the visible tokens
    are patch-embedded: the mask token replaces the others.

    Returns (predicted tokens (N, token_dim), masked reconstruction loss).
    """
    batch = _patchify_masked(cfg, volume, mask)
    grid = batch.grid

    visible = batch.tokens[mask.visible_token_ids()]
    embedded = _linear(Tensor._wrap(visible), params, "patch_embed")
    mixed = _fill_masked(embedded, params["mask_token"], mask)
    pos = Tensor._wrap(positional_encoding(grid, cfg.embed_dim))
    h = mixed + pos
    h = _run_blocks(h, params, "enc", cfg.depth, cfg.num_heads)
    h = _ln(h, params, "enc_norm")
    pred = _linear(h, params, "head")

    loss = masked_recon_loss(pred, batch.tokens, mask, recon_cfg)
    return pred, loss


def _pooled_embedding(cfg: ViTConfig, params: Params, volume: Volume) -> Tensor:
    batch = patchify(volume, cfg.token_patch)
    pos = positional_encoding(batch.grid, cfg.embed_dim)
    latents = encode(cfg, params, Tensor._wrap(batch.tokens), Tensor._wrap(pos))
    return apply("mean", (latents,))  # (1, E)


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
    return ntxent(_mlp(stacked, params, "proj1", "proj2"), temperature)


def tap_depths(depth: int) -> list[int]:
    """1-indexed block depths feeding the segmentation decoder (SegConfig
    needs model.depth >= 1)."""
    return sorted({max(1, math.ceil(depth * k / 4)) for k in range(1, 5)})


def _encoder_taps(vit: ViTConfig, params: Params, volume: Volume) -> tuple[PatchGrid, list[Tensor]]:
    """The (T, E) token rows at each of ``tap_depths``, shallow to deep;
    the deepest is layer-normed."""
    batch = patchify(volume, vit.token_patch)
    taps = tap_depths(vit.depth)
    h = _linear(Tensor._wrap(batch.tokens), params, "patch_embed")
    h = h + Tensor._wrap(positional_encoding(batch.grid, vit.embed_dim))
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
    """(C, D, H, W) voxels as float64 (T, p^3, C) token blocks (off the tape),
    widened by the one copy that reorders them."""
    levels = int(math.log2(grid.token_patch))
    split = []
    for n in grid.grid:
        split += [n] + [2] * levels
    blocks = np.moveaxis(volume.data, 0, -1).reshape(split + [grid.channels])
    blocks = np.ascontiguousarray(blocks.transpose(np.argsort(_voxel_axes(levels))), np.float64)
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
    level gives the fuse pre-activation. The last fuse and the head are one
    ``mlp`` node: each coarse row's 8f GELU outputs are its 8 children's
    features, so the full-resolution features are never stored whole. The
    other dense layers (``seg.in``, the skip projections and the earlier
    fuses) are each one ``gelu`` node, which keeps no pre-activation.
    Returns (D, H, W, num_classes) logits.
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
    x = _linear_gelu(ordered[-1].reshape(tap_shape), params, "seg.in")
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
            parts.append(Tensor._wrap(raw))
            raw_rows = _rows(fuse_w, fuse_w.shape[0] - c, fuse_w.shape[0])
            eye = Tensor(np.eye(8).reshape(8, 1, 8, 1))
            block = (eye * raw_rows.reshape((1, c, 1, f))).reshape((8 * c, 8 * f))
            weights.append(block)
        coarse = apply("concat", tuple(parts), {"axis": -1})
        # The fuse bias, tiled over the 8 octants of each coarse row.
        bias = apply("concat", (params[f"seg.fuse{s}.b"],) * 8)
        fuse = (coarse.reshape((t * m, coarse.shape[-1])), apply("concat", tuple(weights)), bias)
        if s == stages:
            head = (params["seg.head.w"], params["seg.head.b"])
            return _blocks_to_voxels(apply("mlp", fuse + head), grid)
        x = apply("gelu", fuse).reshape((t, 8 * m, f))
    # A token patch of 1 has no upsampling stage to fuse the head into.
    return _blocks_to_voxels(_linear(x, params, "seg.head"), grid)
