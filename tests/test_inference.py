"""Sliding-window stitching, evaluation protocol, reconstruction dumps."""

import os

import numpy as np
import pytest

import vmim.inference
import vmim.models
from helpers import attention_reference, traced_peak
from vmim.autodiff import Graph, Tensor
from vmim.checkpoint import load_checkpoint, save_checkpoint
from vmim.config import checkpoint_config
from vmim.inference import (
    SlidingWindowConfig,
    _window_starts,
    dice_over_dataset,
    evaluate,
    predict_labels,
    reconstruct_dump,
    seg_model_fn,
    sliding_window_infer,
    write_pgm,
)
from vmim.models import (
    MAEDecoderConfig,
    ReconLossConfig,
    SegConfig,
    ViTConfig,
    encoder_param_names,
    init_mae_params,
    init_seg_params,
    unetr_segment,
)
from vmim.patches import MaskingConfig, PatchGrid, sample_mask
from vmim.rng import Rng
from vmim.train import TrainConfig, finetune, load_encoder_weights, pretrain
from vmim.volume import LabelVolume, Volume, VolumeIOError, synth_generate


def identity_model(window):
    return window.copy()


def window_dependent_model(window):
    # Three classes whose values depend on the whole window, so overlapping
    # windows disagree and the blend decides the result.
    x = window[0]
    return np.stack([x - x.mean(), x * x.std(), np.sin(3.0 * x) + x.max()])


def full_count_reference(model, volume, cfg):
    """The blend with a full-size count array, one += 1 per window and one
    whole-array division."""
    data = volume.data
    extents = data.shape[1:]
    w = cfg.window
    data = np.pad(data, [(0, 0)] + [(0, max(0, w - n)) for n in extents])
    starts = [_window_starts(n, w, cfg.stride) for n in data.shape[1:]]
    accum, counts = None, np.zeros(data.shape[1:])
    for sd in starts[0]:
        for sh in starts[1]:
            for sw in starts[2]:
                cube = (slice(sd, sd + w), slice(sh, sh + w), slice(sw, sw + w))
                logits = model(data[(slice(None),) + cube])
                if accum is None:
                    accum = np.zeros((logits.shape[0],) + data.shape[1:])
                accum[(slice(None),) + cube] += logits
                counts[cube] += 1.0
    return (accum / counts[None])[:, : extents[0], : extents[1], : extents[2]]


class TestTiling:
    def test_stride_rule(self):
        assert SlidingWindowConfig(64, 0.5).stride == 32
        assert SlidingWindowConfig(96, 0.25).stride == 72
        assert SlidingWindowConfig(2, 0.9).stride == 1

    def test_window_starts_clamp_to_boundary(self):
        assert _window_starts(96, 64, 32) == [0, 32]
        assert _window_starts(100, 64, 32) == [0, 32, 36]
        assert _window_starts(64, 64, 32) == [0]

    def test_coverage_counts_for_96_64_half_overlap(self):
        counts = np.zeros((96, 96, 96))
        starts = _window_starts(96, 64, 32)
        for sd in starts:
            for sh in starts:
                for sw in starts:
                    counts[sd : sd + 64, sh : sh + 64, sw : sw + 64] += 1
        assert len(starts) == 2
        assert set(np.unique(counts).astype(int)) == {1, 2, 4, 8}
        assert counts.min() >= 1

    def test_identity_model_reproduces_input(self):
        rng = np.random.default_rng(0)
        v = Volume(rng.uniform(size=(1, 24, 20, 28)))
        out = sliding_window_infer(identity_model, v, SlidingWindowConfig(8, 0.5))
        assert np.abs(out - v.data).max() <= 1e-12

    def test_single_window_equals_direct_call(self):
        rng = np.random.default_rng(1)
        v = Volume(rng.uniform(size=(1, 8, 8, 8)))
        out = sliding_window_infer(identity_model, v, SlidingWindowConfig(8, 0.5))
        assert np.array_equal(out, identity_model(v.data))

    def test_small_volume_padded_and_cropped_back(self):
        rng = np.random.default_rng(2)
        v = Volume(rng.uniform(size=(1, 5, 8, 6)))
        out = sliding_window_infer(identity_model, v, SlidingWindowConfig(8, 0.5))
        assert out.shape == v.data.shape
        assert np.abs(out - v.data).max() <= 1e-12

    def test_multi_channel_output(self):
        def two_headed(window):
            return np.stack([window[0], -window[0]])

        v = Volume(np.random.default_rng(3).uniform(size=(1, 16, 16, 16)))
        out = sliding_window_infer(two_headed, v, SlidingWindowConfig(8, 0.25))
        assert out.shape == (2, 16, 16, 16)
        assert np.abs(out[0] + out[1]).max() <= 1e-12

    @pytest.mark.parametrize(
        "shape, window, overlap",
        [((1, 24, 20, 28), 8, 0.5), ((1, 19, 23, 17), 8, 0.6), ((1, 5, 8, 6), 8, 0.5),
         ((1, 5, 19, 8), 8, 0.25), ((1, 16, 24, 16), 8, 0.0)],
        ids=["ragged", "ragged-0.6", "padded", "padded-ragged", "zero-overlap"],
    )
    def test_blend_matches_full_count_reference_bitwise(self, shape, window, overlap):
        v = Volume(np.random.default_rng(sum(shape)).normal(size=shape))
        cfg = SlidingWindowConfig(window, overlap)
        out = sliding_window_infer(window_dependent_model, v, cfg)
        expected = full_count_reference(window_dependent_model, v, cfg)
        assert out.shape == expected.shape == (3,) + shape[1:]
        assert out.tobytes() == expected.tobytes()

    def test_blend_allocates_little_beyond_the_sums(self):
        # Three classes on 48^3 at 125 windows: no full-size count array and
        # no second full-size output beside the (3, 48, 48, 48) sums.
        v = Volume(np.random.default_rng(4).normal(size=(1, 48, 48, 48)))
        cfg = SlidingWindowConfig(16, 0.5)
        out, peak = traced_peak(
            lambda: sliding_window_infer(lambda w: np.repeat(w, 3, axis=0), v, cfg)
        )
        assert out.shape == (3, 48, 48, 48)
        assert peak <= 1.2 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the sums"

    def test_invalid_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            SlidingWindowConfig(8, 1.0)


def _untrained_seg_checkpoint(tmp_path):
    seg = SegConfig(ViTConfig(32, 2, 4, 8), 3, width=8)
    path = str(tmp_path / "seg.vmim")
    save_checkpoint(path, init_seg_params(seg, 0), checkpoint_config(
        "seg", TrainConfig(batch_size=1, warmup_epochs=0, total_epochs=1, window=16),
        model=seg.vit, seg=seg))
    return path


class TestEvaluationProtocol:
    def test_perfect_oracle_scores_one(self):
        dataset = synth_generate(3, 2, 16, 3)
        lookup = {id(v): l.data for v, l in dataset}
        report = dice_over_dataset(lambda v: lookup[id(v)], dataset, 3)
        assert report.per_class == {1: 1.0, 2: 1.0}
        assert report.average == 1.0

    def test_constant_background_scores_zero(self):
        dataset = synth_generate(4, 2, 16, 3)
        report = dice_over_dataset(
            lambda v: np.zeros(v.data.shape[1:], dtype=np.uint16), dataset, 3
        )
        assert report.per_class == {1: 0.0, 2: 0.0}

    def test_average_is_mean_of_entries(self):
        dataset = synth_generate(5, 1, 16, 4)
        rng = np.random.default_rng(0)
        report = dice_over_dataset(
            lambda v: rng.integers(0, 4, size=v.data.shape[1:]).astype(np.uint16),
            dataset,
            4,
        )
        values = [report.per_class[c] for c in sorted(report.per_class)]
        assert abs(report.average - sum(values) / len(values)) < 1e-12

    def test_class_count_mismatch_rejected(self):
        dataset = synth_generate(6, 1, 16, 3)
        with pytest.raises(ValueError, match="classes"):
            dice_over_dataset(lambda v: v.data[0].astype(np.uint16), dataset, 5)

    def test_predicted_labels_are_the_argmax_of_the_blended_logits(self):
        seg = SegConfig(ViTConfig(32, 2, 4, 4), num_classes=3, width=8)
        params = init_seg_params(seg, seed=5)
        v = Volume(np.random.default_rng(5).normal(size=(1, 12, 16, 20)))
        cfg = SlidingWindowConfig(8, 0.5)
        logits = sliding_window_infer(seg_model_fn(seg, params), v, cfg)
        labels = predict_labels(seg, params, v, cfg)
        assert labels.dtype == np.uint16
        assert labels.tobytes() == np.argmax(logits, axis=0).astype(np.uint16).tobytes()
        assert len(np.unique(labels)) == 3

    def test_unrecorded_window_logits_equal_recorded_bitwise(self):
        # The window model runs every op unrecorded; under a graph with the
        # parameters watched, the same ops record a tape and keep contexts.
        seg = SegConfig(ViTConfig(32, 2, 4, 4), num_classes=3, width=8)
        params = init_seg_params(seg, seed=3)
        window = np.random.default_rng(3).normal(size=(1, 16, 16, 16))
        unrecorded = seg_model_fn(seg, params)(window)
        with Graph() as graph:
            graph.watch_all(params.values())
            recorded = unetr_segment(seg, params, Volume(window))
        assert len(graph.nodes) > len(params)
        assert unrecorded.shape == (3, 16, 16, 16)
        assert unrecorded.tobytes() == np.moveaxis(recorded.data, -1, 0).tobytes()

    def test_evaluate_from_trained_checkpoint(self, tmp_path):
        vit = ViTConfig(32, 2, 4, 8)
        labeled = synth_generate(7, 3, 16, 3)
        cfg = TrainConfig(batch_size=2, warmup_epochs=0, total_epochs=1, window=16, seed=0)
        result = finetune(None, SegConfig(vit, 3, width=8), cfg, labeled[:2], [],
                          str(tmp_path / "ft"))
        report = evaluate(result.checkpoint_path, labeled[2:], SlidingWindowConfig(16, 0.5))
        assert set(report.per_class) == {1, 2}
        assert all(0.0 <= s <= 1.0 for s in report.per_class.values())

    def test_evaluate_rejects_a_window_that_splits_no_token_patch(self, tmp_path, monkeypatch):
        # It used to fail in the first window's patchify, naming no key:
        # "extent 20 on axis 0 is not divisible by patch size 8".
        path = _untrained_seg_checkpoint(tmp_path)
        monkeypatch.setattr(vmim.inference, "predict_labels", None)  # no window may run
        with pytest.raises(ValueError, match=r"^swi.window 20 is not divisible by "
                                             r"model.token_patch 8$"):
            evaluate(path, synth_generate(8, 1, 24, 3), SlidingWindowConfig(20, 0.5))

    def test_evaluate_rejects_a_pair_of_other_extents_before_any_window(
        self, tmp_path, monkeypatch
    ):
        # It used to run the model over the whole volume, then fail in
        # metrics.dice with "label shapes differ", naming no pair.
        path = _untrained_seg_checkpoint(tmp_path)
        monkeypatch.setattr(vmim.inference, "predict_labels", None)  # no window may run
        good = synth_generate(8, 1, 32, 3)[0]
        bad = (good[0], synth_generate(8, 1, 40, 3)[0][1])
        pattern = r"^pair 1: label extents \(40, 40, 40\) differ from volume extents \(32, "
        with pytest.raises(VolumeIOError, match=pattern):
            evaluate(path, [good, bad], SlidingWindowConfig(16, 0.5))

    def test_evaluate_rejects_non_seg_checkpoint(self, tmp_path):
        vit = ViTConfig(32, 2, 4, 8)
        vols = [v for v, _ in synth_generate(8, 2, 16, 3)]
        cfg = TrainConfig(batch_size=2, warmup_epochs=0, total_epochs=1, window=16, seed=0)
        pre = pretrain("simmim", vit, cfg, vols, str(tmp_path / "pre"),
                       mask_cfg=MaskingConfig(8, 0.5))
        with pytest.raises(ValueError, match="not a segmentation model"):
            evaluate(pre.checkpoint_path, synth_generate(8, 1, 16, 3),
                     SlidingWindowConfig(16, 0.5))


class TestPGM:
    def test_header_and_payload(self, tmp_path):
        path = str(tmp_path / "img.pgm")
        image = np.arange(6, dtype=np.uint8).reshape(2, 3)
        write_pgm(path, image)
        raw = open(path, "rb").read()
        assert raw == b"P5\n3 2\n255\n" + bytes(range(6))


@pytest.fixture(scope="module")
def simmim_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("rec")
    vit = ViTConfig(32, 2, 4, 8)
    vols = [v for v, _ in synth_generate(9, 2, 16, 3)]
    cfg = TrainConfig(batch_size=2, warmup_epochs=0, total_epochs=1, window=16, seed=0)
    result = pretrain("simmim", vit, cfg, vols, str(out), mask_cfg=MaskingConfig(8, 0.75))
    return result.checkpoint_path


class TestReconstructDump:
    def test_file_count_is_three_per_depth(self, simmim_checkpoint, tmp_path):
        v = Volume(np.random.default_rng(1).uniform(size=(1, 16, 16, 16)))
        paths = reconstruct_dump(
            simmim_checkpoint, v, MaskingConfig(8, 0.75), [2, 9, 13], str(tmp_path / "d")
        )
        assert len(paths) == 9
        assert all(os.path.exists(p) for p in paths)

    def test_zero_ratio_masked_equals_original(self, simmim_checkpoint, tmp_path):
        v = Volume(np.random.default_rng(2).uniform(size=(1, 16, 16, 16)))
        paths = reconstruct_dump(
            simmim_checkpoint, v, MaskingConfig(8, 0.0), [5], str(tmp_path / "z")
        )
        blobs = {os.path.basename(p): open(p, "rb").read() for p in paths}
        assert blobs["slice005_masked.pgm"] == blobs["slice005_original.pgm"]

    def test_mid_gray_pixel_count_matches_mask_geometry(self, simmim_checkpoint, tmp_path):
        # Volume of only 0s and 1s scales to bytes {0, 255}: 128 can only
        # come from masking.
        rng = np.random.default_rng(3)
        v = Volume((rng.uniform(size=(1, 16, 16, 16)) > 0.5).astype(np.float64))
        depth = 4
        paths = reconstruct_dump(
            simmim_checkpoint, v, MaskingConfig(8, 0.5), [depth], str(tmp_path / "g"), seed=7
        )
        masked_img = [p for p in paths if "masked" in p][0]
        raw = open(masked_img, "rb").read()
        pixels = np.frombuffer(raw.split(b"\n", 3)[3], dtype=np.uint8).reshape(16, 16)

        grid = PatchGrid.for_volume(v, 8)
        mask = sample_mask(grid, MaskingConfig(8, 0.5), Rng.derive(7, "reconstruct"))
        expected = np.zeros((16, 16, 16), dtype=bool)
        for token_id in mask.masked_token_ids:
            td, rem = divmod(int(token_id), 4)
            th, tw = divmod(rem, 2)
            expected[td * 8 : td * 8 + 8, th * 8 : th * 8 + 8, tw * 8 : tw * 8 + 8] = True
        assert (pixels == 128).sum() == expected[depth].sum()

    def test_depth_out_of_range(self, simmim_checkpoint, tmp_path):
        v = Volume(np.zeros((1, 16, 16, 16)))
        with pytest.raises(ValueError, match="depth index"):
            reconstruct_dump(simmim_checkpoint, v, MaskingConfig(8, 0.5), [16], str(tmp_path))


def _save_with_key_biases(path, params, config):
    """A checkpoint of ``params`` as written while every block had a key
    bias: one nonzero ``<block>.k.b`` beside each ``<block>.k.w``."""
    rng = np.random.default_rng(11)
    old = dict(params)
    for name, w in params.items():
        if name.endswith(".k.w"):
            old[name[:-1] + "b"] = Tensor(rng.normal(size=w.shape[1]))
    save_checkpoint(path, old, config)
    return path


def _recorded_attention(monkeypatch):
    """(operand arrays, heads, output) of every attention the models run."""
    calls = []
    real_apply = vmim.models.apply

    def spy(kind, operands, attrs=None):
        out = real_apply(kind, operands, attrs)
        if kind == "attention":
            calls.append(([t.data for t in operands], attrs["num_heads"], out.data))
        return out

    monkeypatch.setattr(vmim.models, "apply", spy)
    return calls


def _assert_match_reference_with_key_bias(calls, path):
    # Each output against the unfused graph with its block's stored key bias,
    # which shifts each row of scores by a constant that the softmax cancels.
    params, _ = load_checkpoint(path)
    blocks = {name[:-4]: p.data for name, p in params.items() if name.endswith(".q.w")}
    assert calls
    for (x, *rest), heads, out in calls:
        wq = rest[2]
        (block,) = [b for b, w in blocks.items() if np.array_equal(w, wq)]
        bk = params[f"{block}.k.b"].data
        assert np.abs(bk).min() > 0
        want, _ = attention_reference(x, rest, heads, np.zeros_like(out), bk=bk)
        assert np.abs(out - want).max() <= 1e-14 * np.abs(want).max(), block


class TestCheckpointsWithKeyBias:
    """Checkpoints written while attention had a key bias load, and their
    ``*.k.b`` tensors are ignored."""

    VIT = ViTConfig(32, 2, 4, 8)
    TRAIN = TrainConfig(batch_size=1, warmup_epochs=0, total_epochs=1, window=16)

    def test_encoder_weights_load_without_the_key_biases(self, tmp_path):
        path = _save_with_key_biases(
            str(tmp_path / "mae.vmim"),
            init_mae_params(self.VIT, MAEDecoderConfig(16, 1, 2), 1),
            checkpoint_config("mae", self.TRAIN, model=self.VIT),
        )
        stored, _ = load_checkpoint(path)
        assert "enc.0.k.b" in stored
        scratch = init_seg_params(SegConfig(self.VIT, 3, width=8), 0)
        warm = load_encoder_weights(scratch, stored)
        assert list(warm) == list(scratch)
        for name in encoder_param_names(scratch):
            assert warm[name].data.tobytes() == stored[name].data.tobytes(), name

    def test_evaluate_ignores_the_key_biases(self, tmp_path, monkeypatch):
        seg = SegConfig(self.VIT, 3, width=8)
        params = init_seg_params(seg, 2)
        config = checkpoint_config("seg", self.TRAIN, model=self.VIT, seg=seg)
        plain = str(tmp_path / "plain.vmim")
        save_checkpoint(plain, params, config)
        old = _save_with_key_biases(str(tmp_path / "old.vmim"), params, config)
        dataset = synth_generate(4, 1, 16, 3)
        swi = SlidingWindowConfig(16, 0.5)
        calls = _recorded_attention(monkeypatch)
        report = evaluate(old, dataset, swi)
        _assert_match_reference_with_key_bias(calls, old)
        assert report.per_class == evaluate(plain, dataset, swi).per_class

    def test_reconstruct_ignores_the_key_biases(self, tmp_path, monkeypatch):
        dec = MAEDecoderConfig(16, 1, 2)
        config = checkpoint_config(
            "mae", self.TRAIN, model=self.VIT, dec=dec, recon=ReconLossConfig()
        )
        old = _save_with_key_biases(
            str(tmp_path / "old.vmim"), init_mae_params(self.VIT, dec, 3), config
        )
        v = Volume(np.random.default_rng(4).uniform(size=(1, 16, 16, 16)))
        calls = _recorded_attention(monkeypatch)
        paths = reconstruct_dump(old, v, MaskingConfig(8, 0.5), [3], str(tmp_path / "d"))
        assert len(paths) == 3
        # Two encoder blocks on the visible tokens, one decoder block on all.
        assert len(calls) == 3
        _assert_match_reference_with_key_bias(calls, old)
