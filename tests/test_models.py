"""Encoder/heads: shapes, equivariance, masking semantics, checkpoints."""

import json
import re
import struct

import numpy as np
import pytest

import vmim.models

from helpers import (
    context_arrays,
    conv_transpose_reference,
    finite_diff_check,
    mean_all,
    retained_by_kind,
    retained_bytes,
    unetr_decoder_reference,
    weighted_total,
)
from vmim import autodiff
from vmim.autodiff import Graph, Tensor, apply, backward
from vmim.checkpoint import load_checkpoint, load_checkpoint_config, save_checkpoint
from vmim.inference import seg_model_fn
from vmim.losses import dice_ce_loss, masked_recon_loss
from vmim.models import (
    _block,
    _encoder_taps,
    _fill_masked,
    MAEDecoderConfig,
    SegConfig,
    SimCLRConfig,
    ViTConfig,
    encode,
    init_mae_params,
    init_seg_params,
    init_simclr_params,
    init_simmim_params,
    mae_forward,
    simclr_forward,
    simmim_forward,
    tap_depths,
    unetr_segment,
)
from vmim.patches import (
    Mask, MaskingConfig, PatchGrid, TokenBatch, patchify, positional_encoding, sample_mask,
)
from vmim.rng import Rng
from vmim.volume import Volume


CFG = ViTConfig(64, 4, 4, 8)
DEC = MAEDecoderConfig(32, 2, 4)


def _owner(a):
    """The array that owns the memory of the view a."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _context_report(graph):
    """The tape's VJP context in MiB, in all and per op kind."""
    kinds = sorted(retained_by_kind(graph).items(), key=lambda item: -item[1])
    per_kind = ", ".join(f"{kind} {size / 2**20:.2f}" for kind, size in kinds)
    return f"{retained_bytes(graph) / 2**20:.2f} MiB ({per_kind})"


def small_volume(seed=0, edge=16):
    rng = np.random.default_rng(seed)
    return Volume(rng.uniform(size=(1, edge, edge, edge)))


def mask_for(volume, ratio=0.75, masked_patch=None, seed=0):
    grid = PatchGrid.for_volume(volume, CFG.token_patch)
    cfg = MaskingConfig(masked_patch or CFG.token_patch, ratio)
    return sample_mask(grid, cfg, Rng(seed))


class TestEncode:
    def test_block_records_one_fused_attention_and_mlp(self):
        # Each pre-norm is inside its sub-block's node: attention with its
        # q, k and v projections, the proj linear, the residual add, mlp and
        # its residual add.
        params = init_simmim_params(CFG, seed=0)
        x = Tensor(np.random.default_rng(2).normal(size=(9, CFG.embed_dim)), requires_grad=True)
        with Graph() as g:
            g.watch_all([x, *params.values()])
            _block(x, params, "enc.0", CFG.num_heads)
        kinds = [n.kind for n in g.nodes if not n.is_leaf]
        assert kinds == ["attention", "linear", "add", "mlp", "add"]

    def test_recorded_block_keeps_no_attention_heads(self):
        # The attention VJP rebuilds its normed rows y = layernorm(x) * g +
        # b from the norm's context, its heads from y and its probabilities
        # from each row's log-sum-exp. Its node holds the layernorm output
        # d and the (N, 1) inverse deviations, the ln1 affine, the
        # projection parameters, that (H, N, 1) log-sum-exp and its output,
        # whose memory the proj linear node holds as its input anyway: no
        # y, and no (N, N), (H, N, d) or (H, d, N) array. The block's only
        # (N, C) context arrays are the two norms' d: no y of either norm.
        n, heads = 9, CFG.num_heads
        d = CFG.embed_dim // heads
        params = init_simmim_params(CFG, seed=0)
        x = Tensor(np.random.default_rng(2).normal(size=(n, CFG.embed_dim)), requires_grad=True)
        with Graph() as g:
            g.watch_all([x, *params.values()])
            _block(x, params, "enc.0", heads)
        nodes = [node for node in g.nodes if not node.is_leaf]
        i = [node.kind for node in nodes].index("attention")
        attention, proj = nodes[i], nodes[i + 1]
        names = [f"enc.0.{name}" for name in ("ln1.g", "ln1.b", "q.w", "q.b", "k.w", "v.w", "v.b")]
        normed, inv, *weights, lse, out = attention.ctx
        assert normed.shape == (n, CFG.embed_dim) and inv.shape == (n, 1)
        assert [id(a) for a in weights] == [id(params[name].data) for name in names]
        assert lse.shape == (heads, n, 1)
        assert proj.kind == "linear" and out.shape == (n, CFG.embed_dim)
        assert _owner(out) is _owner(proj.ctx[0])
        shapes = [a.shape for a in context_arrays(g)]
        for shape in ((n, n), (heads, n, d), (heads, d, n)):
            assert shape not in shapes
        assert shapes.count((n, CFG.embed_dim)) == 2

    @pytest.mark.parametrize("stem", ["enc", "dec"])
    def test_recorded_block_keeps_no_mlp_hidden_array(self, stem):
        # The pre-norm mlp's VJP recomputes its pre-activation and its GELU
        # CDF block by block, so its node keeps the layernorm output d, the
        # (N, 1) inverse deviations, the ln2 affine and the dense weights:
        # no array of the hidden width, in an encoder block (64 wide, 256
        # hidden units) or an MAE decoder block (32 wide, 128 hidden units).
        n = 9
        params = init_mae_params(CFG, DEC, seed=0)
        dim, heads = (CFG.embed_dim, CFG.num_heads) if stem == "enc" else (DEC.dim, DEC.heads)
        hidden = params[f"{stem}.0.mlp1.w"].shape[1]
        assert hidden == 4 * dim
        x = Tensor(np.random.default_rng(2).normal(size=(n, dim)), requires_grad=True)
        with Graph() as g:
            g.watch_all([x, *params.values()])
            _block(x, params, f"{stem}.0", heads)
        (mlp,) = [node for node in g.nodes if node.kind == "mlp"]
        normed, inv, *weights = mlp.ctx
        assert normed.shape == (n, dim) and inv.shape == (n, 1)
        names = [f"{stem}.0.{name}" for name in ("ln2.g", "ln2.b", "mlp1.w", "mlp1.b", "mlp2.w")]
        assert [id(a) for a in weights] == [id(params[name].data) for name in names]
        # Of any shape: a kept CDF could be a reshaped view's owner.
        assert not [a.shape for a in context_arrays(g) if a.size == n * hidden]

    def test_simclr_term_at_benchmark_sizes_keeps_under_10_9_mib(self):
        # One SimCLR loss term of the benchmark: 2 crops x 2 views of 48^3 on
        # the default model, 216 tokens a view. The bound sits below the
        # 17.61 MiB the term holds when each transformer MLP keeps its
        # (N, 4 dim) GELU CDF (10.86 MiB without it), below the 20.98 MiB
        # when each sub-block also keeps its normed rows y = layernorm(x) * g
        # + b, and far below the 26.2 MiB with attention's q, k and v head
        # copies.
        params = init_simclr_params(CFG, SimCLRConfig(64, 64), seed=0)
        rng = np.random.default_rng(0)
        views = [Volume(rng.uniform(size=(1, 48, 48, 48))) for _ in range(4)]
        with Graph() as g:
            g.watch_all(params.values())
            simclr_forward(CFG, params, views[:2], views[2:], 0.5)
        assert retained_bytes(g) <= 10.9 * 2**20, _context_report(g)

    @pytest.mark.parametrize(
        "method, bound", [("mae", 3.8), ("simmim", 4.4)], ids=["mae", "simmim"]
    )
    def test_masked_term_at_benchmark_sizes_keeps_under_bound(self, method, bound):
        # One MAE or SimMIM loss term of the benchmark: one 48^3 crop on the
        # default model and decoder, 216 tokens, 75% of them masked. With
        # the transformer MLPs' CDFs recomputed, the terms hold 3.77 and
        # 4.38 MiB, against 4.62 and 6.07 MiB while each MLP kept its CDF.
        v = Volume(np.random.default_rng(0).uniform(size=(1, 48, 48, 48)))
        mask = mask_for(v)
        assert (mask.total_tokens, mask.num_masked) == (216, 162)
        with Graph() as g:
            if method == "mae":
                params = init_mae_params(CFG, DEC, seed=0)
                g.watch_all(params.values())
                mae_forward(CFG, DEC, params, v, mask)
            else:
                params = init_simmim_params(CFG, seed=0)
                g.watch_all(params.values())
                simmim_forward(CFG, params, v, mask)
        assert retained_bytes(g) <= bound * 2**20, _context_report(g)

    def test_depth_zero_is_layernormed_embedding(self):
        cfg = ViTConfig(64, 0, 4, 8)
        params = init_simmim_params(cfg, seed=0)
        rng = np.random.default_rng(1)
        tokens = rng.normal(size=(5, cfg.token_dim()))
        positions = rng.normal(size=(5, cfg.embed_dim))
        out = encode(cfg, params, Tensor(tokens), Tensor(positions)).data

        embedded = tokens @ params["patch_embed.w"].data + params["patch_embed.b"].data
        h = embedded + positions
        mu = h.mean(axis=-1, keepdims=True)
        var = ((h - mu) ** 2).mean(axis=-1, keepdims=True)
        expected = (h - mu) / np.sqrt(var + 1e-6)  # affine is identity at init
        assert np.abs(out - expected).max() < 1e-12

    def test_output_shape_contract(self):
        params = init_simmim_params(CFG, seed=0)
        for n in (1, 7, 27):
            tokens = np.random.default_rng(n).normal(size=(n, CFG.token_dim()))
            out = encode(CFG, params, Tensor(tokens), Tensor(np.zeros((n, CFG.embed_dim))))
            assert out.shape == (n, CFG.embed_dim)

    def test_permutation_equivariance_without_positions(self):
        params = init_simmim_params(CFG, seed=3)
        rng = np.random.default_rng(4)
        tokens = rng.normal(size=(8, CFG.token_dim()))
        zeros = Tensor(np.zeros((8, CFG.embed_dim)))
        base = encode(CFG, params, Tensor(tokens), zeros).data
        perm = rng.permutation(8)
        permuted = encode(CFG, params, Tensor(tokens[perm]), zeros).data
        assert np.abs(permuted - base[perm]).max() < 1e-12

    def test_misaligned_positions_rejected(self):
        params = init_simmim_params(CFG, seed=0)
        with pytest.raises(ValueError, match="misaligned"):
            encode(
                CFG, params, Tensor(np.zeros((4, CFG.token_dim()))),
                Tensor(np.zeros((3, CFG.embed_dim))),
            )


class TestMAE:
    def test_visible_sequence_arithmetic(self):
        # 96^3 at p=16 -> 216 tokens; r=0.75 leaves 54 for the encoder.
        cfg = ViTConfig(24, 1, 4, 16)
        v = Volume(np.random.default_rng(0).uniform(size=(1, 96, 96, 96)))
        grid = PatchGrid.for_volume(v, 16)
        mask = sample_mask(grid, MaskingConfig(16, 0.75), Rng(0))
        visible = mask.visible_token_ids()
        assert (grid.num_tokens, mask.num_masked, len(visible)) == (216, 162, 54)
        params = init_simmim_params(cfg, seed=0)
        pos = positional_encoding(grid, cfg.embed_dim)
        latents = encode(cfg, params, Tensor(patchify(v, 16).tokens[visible]), Tensor(pos[visible]))
        assert latents.shape == (54, cfg.embed_dim)

    def test_decoder_covers_full_sequence(self):
        v = small_volume()
        mask = mask_for(v)
        params = init_mae_params(CFG, DEC, seed=0)
        pred, loss = mae_forward(CFG, DEC, params, v, mask)
        assert pred.shape == (mask.total_tokens, CFG.token_dim())
        assert loss.shape == ()

    def test_encoder_never_sees_masked_voxels(self):
        v = small_volume(seed=5)
        mask = mask_for(v, seed=2)
        params = init_mae_params(CFG, DEC, seed=1)
        recon_a, _ = mae_forward(CFG, DEC, params, v, mask)

        grid = PatchGrid.for_volume(v, CFG.token_patch)
        tokens = patchify(v, CFG.token_patch).tokens.copy()
        tokens[mask.masked_token_ids] = 123.0  # garbage in the hidden region
        from vmim.patches import unpatchify

        perturbed = Volume(unpatchify(tokens, grid))
        recon_b, _ = mae_forward(CFG, DEC, params, perturbed, mask)
        assert recon_a.data.tobytes() == recon_b.data.tobytes()

    def test_self_target_injection_gives_zero_loss(self):
        v = small_volume(seed=6)
        mask = mask_for(v, seed=3)
        params = init_mae_params(CFG, DEC, seed=2)
        pred, _ = mae_forward(CFG, DEC, params, v, mask)
        assert masked_recon_loss(pred, pred.data, mask).item() == 0.0

    def test_empty_mask_rejected(self):
        v = small_volume()
        with pytest.raises(ValueError, match="no masked patches"):
            mae_forward(CFG, DEC, init_mae_params(CFG, DEC, 0), v, mask_for(v, ratio=0.0))

    def test_full_mask_rejected(self):
        v = small_volume()
        with pytest.raises(ValueError, match="no visible patches to encode"):
            mae_forward(CFG, DEC, init_mae_params(CFG, DEC, 0), v, mask_for(v, ratio=1.0))


class TestSimMIM:
    def test_prediction_dim_is_token_dim(self):
        cfg = ViTConfig(24, 1, 4, 16)
        params = init_simmim_params(cfg, seed=0)
        assert params["head.w"].shape == (24, 4096)
        v = Volume(np.random.default_rng(1).uniform(size=(1, 32, 32, 32)))
        grid = PatchGrid.for_volume(v, 16)
        mask = sample_mask(grid, MaskingConfig(16, 0.5), Rng(0))
        pred, _ = simmim_forward(cfg, params, v, mask)
        assert pred.shape == (grid.num_tokens, 4096)

    def test_only_visible_tokens_are_patch_embedded(self, monkeypatch):
        import vmim.models as models

        params = init_simmim_params(CFG, seed=5)
        embedded = []

        def spy(kind, operands, attrs=None):
            if kind == "linear" and operands[1] is params["patch_embed.w"]:
                embedded.append(operands[0].shape)
            return apply(kind, operands, attrs)

        monkeypatch.setattr(models, "apply", spy)
        v = small_volume(seed=9, edge=32)
        mask = mask_for(v)
        simmim_forward(CFG, params, v, mask)
        assert embedded == [(mask.total_tokens - mask.num_masked, CFG.token_dim())]

    def test_encoder_blind_to_masked_content(self):
        v = small_volume(seed=7)
        mask = mask_for(v, seed=4)
        params = init_simmim_params(CFG, seed=3)
        recon_a, _ = simmim_forward(CFG, params, v, mask)
        from vmim.patches import unpatchify

        grid = PatchGrid.for_volume(v, CFG.token_patch)
        tokens = patchify(v, CFG.token_patch).tokens.copy()
        tokens[mask.masked_token_ids] = -55.5
        recon_b, _ = simmim_forward(CFG, params, Volume(unpatchify(tokens, grid) + 55.6), mask)
        # only the visible rows differ between the two inputs after masking;
        # the +55.6 shift ensures visible rows differ, so outputs must differ,
        # while full masking makes them identical (next test)
        assert recon_a.shape == recon_b.shape

    def test_full_mask_rows_identical_when_positions_zeroed(self, monkeypatch):
        import vmim.models as models

        monkeypatch.setattr(models, "positional_encoding", lambda grid, dim: np.zeros((grid.num_tokens, dim)))
        v = small_volume(seed=8)
        mask = mask_for(v, ratio=1.0)
        params = init_simmim_params(CFG, seed=4)
        tokens = simmim_forward(CFG, params, v, mask)[0].data
        assert np.abs(tokens - tokens[0]).max() < 1e-9

    def test_full_mask_rows_differ_only_via_positions(self):
        v = small_volume(seed=8)
        mask = mask_for(v, ratio=1.0)
        params = init_simmim_params(CFG, seed=4)
        tokens = simmim_forward(CFG, params, v, mask)[0].data
        assert np.abs(tokens - tokens[0]).max() > 1e-9


class TestFillMasked:
    def test_rows_at_visible_slots_token_at_masked_ones(self):
        # Visible slots 0, 2 and 4 read rows 0, 1 and 2.
        rows = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        token = Tensor([[-1.0, -2.0]])
        full = _fill_masked(rows, token, Mask(np.array([1, 3]), 5))
        assert np.array_equal(
            full.data, [[1.0, 2.0], [-1.0, -2.0], [3.0, 4.0], [-1.0, -2.0], [5.0, 6.0]]
        )

    def test_gradients_are_the_slot_gradients(self):
        rng = np.random.default_rng(12)
        mask = Mask(np.sort(rng.choice(64, size=48, replace=False)), 64)
        visible = mask.visible_token_ids()
        g = rng.normal(size=(64, 6))
        rows = Tensor(rng.normal(size=(visible.size, 6)), requires_grad=True)
        token = Tensor(rng.normal(size=(1, 6)), requires_grad=True)
        with Graph() as graph:
            graph.watch_all((rows, token))
            loss = weighted_total(_fill_masked(rows, token, mask), g)
        grads = backward(graph, loss)
        assert np.array_equal(grads[rows.node_id].data, g[visible])
        g_token = g[mask.masked_token_ids].sum(axis=0, keepdims=True)
        assert grads[token.node_id].data.tobytes() == g_token.tobytes()


class TestSimCLR:
    def test_loss_is_finite_scalar(self):
        params = init_simclr_params(CFG, SimCLRConfig(64, 32), seed=0)
        batch = [small_volume(seed=i) for i in range(2)]
        other = [small_volume(seed=10 + i) for i in range(2)]
        loss = simclr_forward(CFG, params, batch, other, 0.5)
        assert loss.shape == () and np.isfinite(loss.data).all()

    def test_identical_views_score_lower_than_scrambled(self):
        params = init_simclr_params(CFG, SimCLRConfig(64, 32), seed=1)
        batch = [small_volume(seed=i) for i in range(3)]
        same = simclr_forward(CFG, params, batch, batch, 0.5).item()
        shuffled = [batch[1], batch[2], batch[0]]
        mismatched = simclr_forward(CFG, params, batch, shuffled, 0.5).item()
        assert same < mismatched

    def test_small_batch_rejected(self):
        params = init_simclr_params(CFG, SimCLRConfig(64, 32), seed=0)
        with pytest.raises(ValueError, match=">= 2"):
            simclr_forward(CFG, params, [small_volume()], [small_volume()], 0.5)


class TestUNETR:
    def test_recorded_crop_holds_no_copy_of_its_tokens(self, monkeypatch):
        # The patch embedding keeps the token array patchify built, not a
        # second copy of it.
        seg = SegConfig(CFG, num_classes=3, width=4)
        params = init_seg_params(seg, seed=0)
        built = []

        def recording_patchify(volume, token_patch):
            built.append(patchify(volume, token_patch).tokens)
            return TokenBatch(built[-1], PatchGrid.for_volume(volume, token_patch))

        monkeypatch.setattr(vmim.models, "patchify", recording_patchify)
        with Graph() as g:
            g.watch_all(params.values())
            unetr_segment(seg, params, small_volume(seed=7))
        (tokens,) = built
        copies = [a for a in context_arrays(g) if a.dtype == tokens.dtype
                  and a.size == tokens.size and np.array_equal(a.reshape(tokens.shape), tokens)]
        assert [id(a) for a in copies] == [id(_owner(tokens))]

    def test_output_matches_input_spatial_shape(self):
        seg = SegConfig(CFG, num_classes=3, width=8)
        params = init_seg_params(seg, seed=0)
        for edge in (16, 24):
            v = small_volume(seed=edge, edge=edge)
            logits = unetr_segment(seg, params, v)
            assert logits.shape == (edge, edge, edge, 3)

    def test_fourteen_class_head(self):
        seg = SegConfig(CFG, num_classes=14, width=8)
        params = init_seg_params(seg, seed=0)
        logits = unetr_segment(seg, params, small_volume())
        assert logits.shape[-1] == 14

    def test_tap_depths(self):
        assert tap_depths(4) == [1, 2, 3, 4]
        assert tap_depths(12) == [3, 6, 9, 12]
        assert tap_depths(2) == [1, 2]

    def test_raw_skip_joins_final_stage(self):
        seg = SegConfig(ViTConfig(24, 4, 4, 16), num_classes=2, width=4)
        params = init_seg_params(seg, seed=0)
        # p=16 -> 4 stages; the last has no tap left, only the raw channel
        assert params["seg.fuse4.w"].shape[0] == 4 + 1
        # p=8 -> 3 stages; the last fuses upsample + tap + raw channel
        seg8 = SegConfig(ViTConfig(24, 4, 4, 8), num_classes=2, width=4)
        params8 = init_seg_params(seg8, seed=0)
        assert params8["seg.fuse3.w"].shape[0] == 4 + 4 + 1
        v = Volume(np.random.default_rng(0).uniform(size=(1, 32, 32, 32)))
        assert unetr_segment(seg, params, v).shape == (32, 32, 32, 2)

    def test_decoder_records_no_layout_permutes(self):
        # Attention is one node with no permutes. The block-layout decoder
        # permutes activations once, to return the logits as voxels; its
        # other permutes flatten upsampling weights.
        seg = SegConfig(CFG, num_classes=3, width=8)
        params = init_seg_params(seg, seed=0)
        with Graph() as g:
            g.watch_all(params.values())
            unetr_segment(seg, params, small_volume())
        leaves = {p.node_id for p in params.values()}
        permutes = [n for n in g.nodes if n.kind == "permute"]
        on_weights = [n for n in permutes if n.input_ids[0] in leaves]
        ups = [n for n in params if ".up" in n]
        assert len(on_weights) == len(ups)
        assert len(permutes) == 1 + len(on_weights)

    def test_last_fuse_and_head_are_one_mlp_node(self):
        seg = SegConfig(CFG, num_classes=3, width=8)
        params = init_seg_params(seg, seed=0)
        with Graph() as g:
            g.watch_all(params.values())
            unetr_segment(seg, params, small_volume())
        mlps = [n for n in g.nodes if n.kind == "mlp"]
        head = {params["seg.head.w"].node_id, params["seg.head.b"].node_id}
        # The encoder's pre-norm MLPs, then the tail's plain form.
        assert [len(n.input_ids) for n in mlps] == [7] * CFG.depth + [5]
        assert [n for n in mlps if head <= set(n.input_ids)] == [mlps[-1]]
        assert mlps[-1].shape == (16**3, 3)
        assert not [n for n in g.nodes if n.kind == "linear" and head & set(n.input_ids)]

    def test_recorded_crop_keeps_only_the_cdf_of_its_tail_mlp(self):
        # The default segmenter on one 48^3 crop with its Dice+CE loss. The
        # tail mlp's VJP recomputes the (n, hidden) pre-activation, so its
        # CDF is the one full-size hidden array left on the tape; a second
        # one (13.5 MiB) would take the tape past the bound.
        seg = SegConfig(CFG, num_classes=3, width=16)
        params = init_seg_params(seg, seed=0)
        rng = np.random.default_rng(0)
        v = Volume(rng.uniform(size=(1, 48, 48, 48)))
        labels = rng.integers(0, 3, size=(48, 48, 48))
        with Graph() as g:
            g.watch_all(params.values())
            dice_ce_loss(unetr_segment(seg, params, v), labels)
        tail = [n for n in g.nodes if n.kind == "mlp"][-1]
        x, w1 = tail.ctx[:2]
        assert (x.shape[0], w1.shape[1]) == (24**3, 8 * 16)
        hidden = [a for a in tail.ctx if getattr(a, "shape", None) == (24**3, 8 * 16)]
        assert len(hidden) == 1
        assert retained_bytes(g) < 44 * 2**20, f"{retained_bytes(g) / 2**20:.1f} MiB"

    def test_recorded_crop_at_benchmark_size_keeps_under_28_6_mib(self):
        # The default segmenter on one 48^3 crop with its Dice+CE loss, a
        # benchmark finetune term. Each dense layer before the tail is one
        # gelu node that keeps its operands and CDF, not its pre-activation,
        # and each encoder sub-block its layernorm output, not its normed
        # rows, and each encoder MLP no CDF: 28.57 MiB, against 30.26 while
        # those MLPs kept their CDFs and 33.10 with the normed rows too.
        seg = SegConfig(CFG, num_classes=3, width=16)
        params = init_seg_params(seg, seed=0)
        rng = np.random.default_rng(0)
        v = Volume(rng.uniform(size=(1, 48, 48, 48)))
        labels = rng.integers(0, 3, size=(48, 48, 48))
        with Graph() as g:
            g.watch_all(params.values())
            dice_ce_loss(unetr_segment(seg, params, v), labels)
        gelus = [n for n in g.nodes if n.kind == "gelu"]
        stages = int(np.log2(CFG.token_patch))
        assert len(gelus) == 1 + (stages - 1) + min(stages, 3)  # seg.in, fuses, skips
        for node in gelus:
            x, w, b, cdf = node.ctx
            assert cdf.shape == x.shape[:-1] + w.shape[1:] == node.shape
        assert retained_bytes(g) <= 28.6 * 2**20, _context_report(g)

    @pytest.mark.parametrize(
        "patch,channels,shape",
        [(8, 1, (16, 16, 16)), (8, 2, (16, 16, 16)), (16, 1, (32, 32, 32)),
         (16, 2, (32, 32, 32)), (8, 1, (16, 24, 32))],
        ids=["p8-c1", "p8-c2", "p16-c1", "p16-c2", "p8-c1-16x24x32"],
    )
    def test_matches_interleaved_reference(self, patch, channels, shape):
        seg = SegConfig(ViTConfig(32, 4, 4, patch, channels=channels), num_classes=3, width=4)
        params = init_seg_params(seg, seed=patch + channels)
        v = Volume(np.random.default_rng(len(shape) + channels).uniform(size=(channels,) + shape))
        _, taps = _encoder_taps(seg.vit, params, v)
        expected = unetr_decoder_reference(seg, params, v, [t.data for t in taps])
        logits = unetr_segment(seg, params, v).data
        assert logits.shape == expected.shape
        assert np.abs(logits - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_conv_transpose_reference_matches_brute_force(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 2, 2))
        w = rng.normal(size=(2, 3, 2, 2, 2))
        brute = np.zeros((4, 6, 4, 3))
        for c in range(2):
            for k in range(3):
                for d in range(2):
                    for h in range(3):
                        for wd in range(2):
                            for i in range(2):
                                for j in range(2):
                                    for l in range(2):
                                        brute[2 * d + i, 2 * h + j, 2 * wd + l, k] += (
                                            x[d, h, wd, c] * w[c, k, i, j, l]
                                        )
        assert np.allclose(conv_transpose_reference(x, w), brute, atol=1e-14)

    @pytest.mark.parametrize(
        "name",
        ["seg.up1.w", "seg.up3.w", "seg.skip1.up0.w", "seg.skip3.up0.w", "seg.skip3.up2.w",
         "seg.fuse1.w", "seg.fuse3.w"],
    )
    def test_folded_weights_pass_gradient_check(self, name):
        # The last upsamplings fold into the fuse weight on the tape; the
        # gradient must still reach each factor. seg.skip3.up0 is an
        # intermediate (unfolded) skip upsampling.
        seg = SegConfig(CFG, num_classes=3, width=4)
        params = init_seg_params(seg, seed=4)
        v = small_volume(seed=5)
        weights = Tensor(np.random.default_rng(6).normal(size=(16, 16, 16, 3)))

        def f(t):
            return mean_all(unetr_segment(seg, {**params, name: t}, v) * weights)

        assert finite_diff_check(f, params[name].data, h=1e-5) < 1e-6

    def test_gradients_reach_every_parameter(self):
        seg = SegConfig(CFG, num_classes=3, width=8)
        params = init_seg_params(seg, seed=1)
        v = small_volume(seed=2)
        rng = np.random.default_rng(3)
        with Graph() as g:
            g.watch_all(params.values())
            logits = unetr_segment(seg, params, v)
            loss = mean_all(logits * Tensor(rng.normal(size=logits.shape)))
        grads = backward(g, loss)
        dead = [
            name
            for name, p in params.items()
            if np.abs(grads[p.node_id].data).max() == 0.0
        ]
        assert dead == []

    def test_non_power_of_two_patch_rejected(self):
        with pytest.raises(ValueError, match="power-of-two"):
            SegConfig(ViTConfig(24, 4, 4, 6), num_classes=2)


class TestParameters:
    def test_init_bitwise_reproducible(self):
        a = init_mae_params(CFG, DEC, seed=7)
        b = init_mae_params(CFG, DEC, seed=7)
        assert set(a) == set(b)
        for name in a:
            assert a[name].data.tobytes() == b[name].data.tobytes()
        c = init_mae_params(CFG, DEC, seed=8)
        assert {n: p.shape for n, p in c.items()} == {n: p.shape for n, p in a.items()}
        assert any(a[n].data.tobytes() != c[n].data.tobytes() for n in a)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            ViTConfig(65, 4, 4, 8)
        with pytest.raises(ValueError, match="divisible"):
            MAEDecoderConfig(33, 2, 4)


def _model_terms():
    """name -> (params, loss term) of one small seeded term per model: MAE,
    SimMIM and SimCLR pretraining and a fine-tuning crop of the segmenter."""
    vit, dec = ViTConfig(32, 2, 4, 8), MAEDecoderConfig(16, 1, 2)
    seg = SegConfig(vit, 3, width=4)
    v, views = small_volume(seed=1), [small_volume(seed=i) for i in range(2, 6)]
    mask = mask_for(v, 0.5)
    labels = np.random.default_rng(1).integers(0, 3, size=(16, 16, 16))
    return {
        "mae": (init_mae_params(vit, dec, 0), lambda p: mae_forward(vit, dec, p, v, mask)[1]),
        "simmim": (init_simmim_params(vit, 0), lambda p: simmim_forward(vit, p, v, mask)[1]),
        "simclr": (init_simclr_params(vit, SimCLRConfig(32, 16), 0),
                   lambda p: simclr_forward(vit, p, views[:2], views[2:], 0.5)),
        "seg": (init_seg_params(seg, 0),
                lambda p: dice_ce_loss(unetr_segment(seg, p, v), labels)),
    }, seg


# Non-leaf tape nodes per loss term at the default sizes, by kind: one 48^3
# crop, 162 of its 216 tokens masked, for MAE and SimMIM and the segmenter,
# and 2 crops of 2 views for SimCLR. A change that fuses or splits nodes
# updates these on purpose.
TERM_NODES = {
    "mae": {"add": 15, "attention": 6, "concat": 1, "gather_rows": 1, "layernorm": 2,
            "linear": 9, "mlp": 6, "recon": 1},
    "simmim": {"add": 10, "attention": 4, "concat": 1, "gather_rows": 1, "layernorm": 1,
               "linear": 6, "mlp": 4, "recon": 1},
    "simclr": {"add": 36, "attention": 16, "concat": 1, "layernorm": 4, "linear": 20,
               "mean": 4, "mlp": 17, "ntxent": 1},
    "seg": {"add": 9, "attention": 4, "concat": 9, "dice_ce": 1, "gather_rows": 7, "gelu": 6,
            "layernorm": 1, "linear": 14, "mlp": 5, "mul": 1, "permute": 10, "reshape": 37},
}


@pytest.mark.parametrize(
    "model, total", [("mae", 41), ("simmim", 28), ("simclr", 99), ("seg", 104)]
)
def test_term_at_default_sizes_records_pinned_nodes(model, total):
    rng = np.random.default_rng(0)
    v, views = Volume(rng.uniform(size=(1, 48, 48, 48))), [
        Volume(rng.uniform(size=(1, 48, 48, 48))) for _ in range(4)
    ]
    mask = mask_for(v)
    seg = SegConfig(CFG, 3, width=16)
    labels = rng.integers(0, 3, size=(48, 48, 48))
    params, term = {
        "mae": (init_mae_params(CFG, DEC, 0), lambda p: mae_forward(CFG, DEC, p, v, mask)),
        "simmim": (init_simmim_params(CFG, 0), lambda p: simmim_forward(CFG, p, v, mask)),
        "simclr": (init_simclr_params(CFG, SimCLRConfig(64, 64), 0),
                   lambda p: simclr_forward(CFG, p, views[:2], views[2:], 0.5)),
        "seg": (init_seg_params(seg, 0), lambda p: dice_ce_loss(unetr_segment(seg, p, v), labels)),
    }[model]
    with Graph() as g:
        g.watch_all(params.values())
        term(params)
    kinds = [node.kind for node in g.nodes if not node.is_leaf]
    assert {kind: kinds.count(kind) for kind in set(kinds)} == TERM_NODES[model]
    assert len(kinds) == total


class TestNothingDead:
    @pytest.mark.parametrize("model", ["mae", "simmim", "simclr", "seg"])
    def test_every_parameter_gets_a_gradient_above_rounding_noise(self, model):
        # A parameter whose gradient is analytically zero does nothing: the
        # attention key bias, which the softmax cancels, got about 1e-17.
        params, term = _model_terms()[0][model]
        with Graph() as graph:
            graph.watch_all(params.values())
            loss = term(params)
        grads = backward(graph, loss)
        peaks = {name: np.abs(grads[p.node_id].data).max() for name, p in params.items()}
        top = max(peaks.values())
        assert [name for name, peak in peaks.items() if peak <= 1e-10 * top] == []

    def test_models_run_every_registered_op_kind(self, monkeypatch):
        # A kind or a form that only the tests call is dead code: every
        # kind must run in a recorded term of some model or in an
        # unrecorded window, and so must each operand count of a kind that
        # takes a few (mlp's plain and pre-norm forms, linear with and
        # without a bias).
        seen = set()

        def recording(kind, kernel):
            def run(arrays, attrs):
                seen.add((kind, len(arrays)))
                return kernel(arrays, attrs)

            return run

        for kind, op in autodiff._REGISTRY.items():
            monkeypatch.setattr(op, "forward", recording(kind, op.forward))
            monkeypatch.setattr(op, "run", recording(kind, op.run))
        terms, seg = _model_terms()
        for params, term in terms.values():
            with Graph() as graph:
                graph.watch_all(params.values())
                term(params)
        seg_model_fn(seg, terms["seg"][0])(small_volume(seed=6).data)
        assert {kind for kind, _ in seen} == set(autodiff._REGISTRY)
        forms = {(kind, n) for kind, op in autodiff._REGISTRY.items()
                 if not isinstance(op.counts, range) for n in op.counts}
        assert forms <= seen


class TestCheckpoint:
    def test_save_load_save_identical_bytes(self, tmp_path):
        params = init_simmim_params(CFG, seed=0)
        config = {"method": "simmim", "model.embed_dim": 64}
        p1 = str(tmp_path / "a.vmim")
        p2 = str(tmp_path / "b.vmim")
        save_checkpoint(p1, params, config)
        loaded, loaded_cfg = load_checkpoint(p1)
        assert loaded_cfg == config
        save_checkpoint(p2, loaded, loaded_cfg)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_values_survive_round_trip(self, tmp_path):
        params = init_simmim_params(CFG, seed=5)
        path = str(tmp_path / "c.vmim")
        save_checkpoint(path, params, {})
        loaded, _ = load_checkpoint(path)
        for name in params:
            assert np.array_equal(loaded[name].data, params[name].data)
            assert loaded[name].requires_grad

    def test_config_is_read_from_the_header_alone(self, tmp_path):
        # With the payload cut short, load_checkpoint fails on the first
        # tensor, and the header still gives the config echo.
        from vmim.checkpoint import CheckpointError

        config = {"method": "simmim", "model.embed_dim": 64}
        path = tmp_path / "c.vmim"
        save_checkpoint(str(path), init_simmim_params(CFG, seed=0), config)
        assert load_checkpoint_config(str(path)) == config
        path.write_bytes(path.read_bytes()[:-8])
        assert load_checkpoint_config(str(path)) == config
        with pytest.raises(CheckpointError, match="runs past the payload"):
            load_checkpoint(str(path))
        path.write_bytes(b"VMIM1\n" + struct.pack("<Q", 2) + b"[]")
        with pytest.raises(CheckpointError, match="malformed tensor index"):
            load_checkpoint_config(str(path))

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        path = tmp_path / "c.vmim"
        save_checkpoint(str(path), init_simmim_params(CFG, seed=0), {"step": 1})
        before = path.read_bytes()

        class FailingPayload:
            shape, size = (3,), 3

            def __array__(self, dtype=None, copy=None):
                raise OSError("disk full")

        # Sorted last, so every other tensor is written before the failure.
        last = Tensor(np.zeros(3))
        last.data = FailingPayload()
        params = {**init_simmim_params(CFG, seed=1), "zz": last}
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(str(path), params, {"step": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.vmim"]

    @pytest.mark.parametrize("corrupt", ["huge_header_length", "not_utf8", "not_json",
                                         "offset_past_payload", "shape_past_payload"])
    def test_corrupt_file_raises_checkpoint_error(self, tmp_path, corrupt):
        from vmim.checkpoint import CheckpointError

        def header(offset=0, shape=(2, 2)):
            index = [{"name": "w", "shape": list(shape), "offset": offset}]
            return json.dumps({"version": 1, "config": {}, "tensors": index}).encode()

        raw_header = {
            "huge_header_length": b"{}",
            "not_utf8": b"\xff\xfe{}",
            "not_json": b"{\"tensors\": [",
            "offset_past_payload": header(offset=8),
            "shape_past_payload": header(shape=(3, 2)),
        }[corrupt]
        length = 10**12 if corrupt == "huge_header_length" else len(raw_header)
        path = tmp_path / "corrupt.vmim"
        path.write_bytes(b"VMIM1\n" + struct.pack("<Q", length) + raw_header + bytes(32))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_names_file_and_tensor(self, tmp_path, value):
        from vmim.checkpoint import CheckpointError

        params = init_simmim_params(CFG, seed=0)
        data = params["head.w"].data.copy()
        data[3, 1] = value
        params["head.w"] = Tensor(data)
        path = str(tmp_path / "c.vmim")
        save_checkpoint(path, params, {})
        message = re.escape(f"{path}: tensor head.w holds non-finite values")
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.vmim")
        with open(path, "wb") as fh:
            fh.write(b"NOTVMIM___")
        from vmim.checkpoint import CheckpointError

        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)
