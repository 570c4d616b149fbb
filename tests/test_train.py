"""Training loops: sampling, subsetting, determinism, trace bookkeeping."""

import ctypes
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import vmim
from helpers import finetune_step_peak, mean_all, pretrain_step_peak
from vmim.autodiff import Graph, NonFiniteError, Tensor, backward
from vmim.inference import SlidingWindowConfig
from vmim.losses import ReconLossConfig, dice_ce_loss
from vmim.models import (
    MAEDecoderConfig,
    SegConfig,
    ViTConfig,
    encoder_param_names,
    init_seg_params,
    init_simmim_params,
    simmim_forward,
    unetr_segment,
)
from vmim.optim import OptState
from vmim.patches import MaskingConfig, PatchGrid, sample_mask
from vmim.rng import Rng
from vmim.train import (
    TrainConfig,
    _add_grads,
    _batch_grads,
    _step,
    _train,
    crop_sampler,
    finetune,
    load_encoder_weights,
    pretrain,
    subset_labeled,
)
from vmim.volume import (
    LabelVolume, Volume, VolumeIOError, load_volume, save_volume, synth_generate,
)

TINY = ViTConfig(32, 2, 4, 8)


def quick_cfg(**kw):
    base = dict(
        batch_size=4,
        warmup_epochs=1,
        total_epochs=2,
        window=16,
        seed=0,
        base_lr=1e-3,
    )
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def volumes():
    return [v for v, _ in synth_generate(5, 6, 24, 3)]


@pytest.fixture(scope="module")
def labeled():
    return synth_generate(6, 4, 24, 3)


class TestCropSampler:
    def test_full_window_returns_whole_volume(self):
        v = Volume(np.random.default_rng(0).uniform(size=(1, 16, 16, 16)))
        crop, _ = crop_sampler(v, None, 16, Rng(0))
        assert np.array_equal(crop.data, v.data)

    def test_labels_cropped_identically(self):
        rng = np.random.default_rng(1)
        v = Volume(rng.uniform(size=(1, 24, 24, 24)))
        labels = LabelVolume((v.data[0] > 0.5).astype(np.uint16), 2)
        crop, label_crop = crop_sampler(v, labels, 8, Rng(3))
        assert np.array_equal(label_crop.data, (crop.data[0] > 0.5).astype(np.uint16))

    def test_deterministic_in_seed(self):
        v = Volume(np.random.default_rng(2).uniform(size=(1, 20, 20, 20)))
        a, _ = crop_sampler(v, None, 8, Rng(9))
        b, _ = crop_sampler(v, None, 8, Rng(9))
        assert np.array_equal(a.data, b.data)

    def test_start_positions_uniform(self):
        # 1-D analogue: depth ramp makes the crop corner reveal the start.
        extent, window = 20, 8
        ramp = np.broadcast_to(
            np.arange(float(extent))[:, None, None], (extent, extent, extent)
        ).copy()
        v = Volume(ramp[None])
        rng = Rng(123)
        draws = 10_000
        n_starts = extent - window + 1
        counts = np.zeros(n_starts)
        for _ in range(draws):
            crop, _ = crop_sampler(v, None, window, rng)
            counts[int(crop.data[0, 0, 0, 0])] += 1
        expected = draws / n_starts
        sigma = np.sqrt(draws * (1 / n_starts) * (1 - 1 / n_starts))
        assert np.abs(counts - expected).max() <= 4 * sigma

    def test_window_too_large(self):
        v = Volume(np.zeros((1, 8, 8, 8)))
        with pytest.raises(ValueError, match="exceeds"):
            crop_sampler(v, None, 9, Rng(0))


class TestSubsetLabeled:
    def test_half_of_24_is_12(self):
        ids = list(range(24))
        picked = subset_labeled(ids, 0.5, seed=1)
        assert len(picked) == 12
        assert len(set(picked)) == 12

    def test_full_ratio_is_identity_in_order(self):
        ids = ["a", "b", "c"]
        assert subset_labeled(ids, 1.0, seed=9) == ids

    def test_deterministic(self):
        ids = list(range(100))
        assert subset_labeled(ids, 0.3, seed=4) == subset_labeled(ids, 0.3, seed=4)
        assert subset_labeled(ids, 0.3, seed=4) != subset_labeled(ids, 0.3, seed=5)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="selects nothing"):
            subset_labeled([1, 2, 3], 0.1, seed=0)
        with pytest.raises(ValueError, match="ratio"):
            subset_labeled([1], 0.0, seed=0)


class TestPretrain:
    @pytest.mark.parametrize("method", ["mae", "simmim", "simclr"])
    def test_runs_and_trace_bookkeeping(self, method, volumes, tmp_path):
        cfg = quick_cfg(batch_size=3)
        result = pretrain(
            method,
            TINY,
            cfg,
            volumes,
            str(tmp_path / method),
            mask_cfg=MaskingConfig(8, 0.75),
            dec_cfg=MAEDecoderConfig(32, 2, 4),
        )
        steps_per_epoch = 2  # 6 volumes, batch 3
        assert len(result.losses) == steps_per_epoch * cfg.total_epochs
        rows = open(result.trace_path).read().splitlines()
        assert len(rows) == len(result.losses)
        first = rows[0].split("\t")
        assert first[0] == "0" and len(first) == 3

    def test_bitwise_deterministic(self, volumes, tmp_path):
        cfg = quick_cfg()
        a = pretrain("simmim", TINY, cfg, volumes, str(tmp_path / "a"),
                     mask_cfg=MaskingConfig(8, 0.75))
        b = pretrain("simmim", TINY, cfg, volumes, str(tmp_path / "b"),
                     mask_cfg=MaskingConfig(8, 0.75))
        assert open(a.checkpoint_path, "rb").read() == open(b.checkpoint_path, "rb").read()
        assert open(a.trace_path).read() == open(b.trace_path).read()

    @pytest.mark.parametrize("method", ["mae", "simmim", "simclr"])
    def test_in_memory_volumes_train_as_saved_and_reloaded(self, method, volumes, tmp_path):
        # Volumes hold what a .vol file holds, so a round trip through disk
        # changes no checkpoint byte.
        reloaded = []
        for i, v in enumerate(volumes):
            path = str(tmp_path / f"v{i}.vol")
            save_volume(path, v)
            reloaded.append(load_volume(path))
        cfg = quick_cfg(total_epochs=1, warmup_epochs=0, batch_size=3)
        kw = dict(mask_cfg=MaskingConfig(8, 0.75), dec_cfg=MAEDecoderConfig(32, 1, 4))
        a = pretrain(method, TINY, cfg, volumes, str(tmp_path / "memory"), **kw)
        b = pretrain(method, TINY, cfg, reloaded, str(tmp_path / "disk"), **kw)
        assert open(a.checkpoint_path, "rb").read() == open(b.checkpoint_path, "rb").read()

    def test_seed_changes_outcome(self, volumes, tmp_path):
        a = pretrain("simmim", TINY, quick_cfg(seed=0), volumes, str(tmp_path / "s0"),
                     mask_cfg=MaskingConfig(8, 0.75))
        b = pretrain("simmim", TINY, quick_cfg(seed=1), volumes, str(tmp_path / "s1"),
                     mask_cfg=MaskingConfig(8, 0.75))
        assert a.losses != b.losses

    def test_intermediate_checkpoints_written(self, volumes, tmp_path):
        out = tmp_path / "ck"
        pretrain("simmim", TINY, quick_cfg(total_epochs=4, checkpoint_every=2),
                 volumes, str(out), mask_cfg=MaskingConfig(8, 0.75))
        names = sorted(p.name for p in out.glob("*.vmim"))
        assert names == ["checkpoint.vmim", "checkpoint_ep0002.vmim"]

    def test_missing_head_configs_come_from_defaults(self, volumes, tmp_path):
        cfg = quick_cfg(total_epochs=1, warmup_epochs=0, batch_size=6)
        mae = pretrain("mae", TINY, cfg, volumes, str(tmp_path / "mae")).config
        assert (mae["dec.dim"], mae["dec.depth"], mae["dec.heads"]) == (32, 2, 4)
        assert (mae["mask.patch"], mae["mask.ratio"]) == (TINY.token_patch, 0.75)
        simclr = pretrain("simclr", TINY, cfg, volumes, str(tmp_path / "simclr")).config
        assert (simclr["simclr.hidden"], simclr["simclr.dim"]) == (32, 32)

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            pretrain("mae", TINY, quick_cfg(), [], str(tmp_path / "x"))

    def test_window_divisibility_enforced(self, volumes, tmp_path):
        with pytest.raises(ValueError, match="divisible"):
            pretrain("mae", TINY, quick_cfg(window=20), volumes, str(tmp_path / "w"))


class TestFinetune:
    @pytest.mark.parametrize("which", ["train_set", "val_set"])
    def test_label_extents_unlike_the_volume_rejected_naming_the_pair(
        self, labeled, tmp_path, which
    ):
        # Pair 1's 24^3 volume with a 16^3 label map: rejected before any
        # step, so the run leaves no out_dir.
        volume, labels = labeled[1]
        bad = (volume, LabelVolume(labels.data[:16, :16, :16], labels.num_classes))
        sets = {"train_set": labeled[:2], "val_set": labeled[2:4]}
        sets[which] = [sets[which][0], bad]
        out = tmp_path / "ft"
        pattern = (rf"^{which} pair 1: label extents \(16, 16, 16\) differ from volume "
                   r"extents \(24, 24, 24\)$")
        with pytest.raises(VolumeIOError, match=pattern):
            finetune(None, SegConfig(TINY, 3, width=8), quick_cfg(), sets["train_set"],
                     sets["val_set"], str(out))
        assert not out.exists()

    def test_dice_trace_in_range_and_loss_decreases_early(self, labeled, tmp_path):
        seg = SegConfig(TINY, 3, width=8)
        cfg = quick_cfg(total_epochs=3, eval_every=1, batch_size=2)
        result = finetune(None, seg, cfg, labeled[:3], labeled[3:], str(tmp_path / "ft"))
        assert result.dice_trace
        for _, scores, avg in result.dice_trace:
            assert 0.0 <= avg <= 1.0
            assert all(0.0 <= s <= 1.0 for s in scores.values())
        assert len(result.losses) == 2 * 3  # ceil(3/2) batches x 3 epochs

    def test_checkpoint_init_differs_only_in_encoder(self, labeled, tmp_path, volumes):
        pre = pretrain("simmim", TINY, quick_cfg(), volumes, str(tmp_path / "pre"),
                       mask_cfg=MaskingConfig(8, 0.75))
        seg = SegConfig(TINY, 3, width=8)
        scratch = init_seg_params(seg, seed=42)
        warm = load_encoder_weights(scratch, pre.params)
        enc = set(encoder_param_names(scratch))
        for name in scratch:
            same = np.array_equal(scratch[name].data, warm[name].data)
            if name in enc:
                assert not same, name
            else:
                assert same, name

    def test_checkpoint_shape_mismatch_rejected(self, labeled):
        seg = SegConfig(TINY, 3, width=8)
        scratch = init_seg_params(seg, seed=0)
        other = init_seg_params(SegConfig(ViTConfig(16, 2, 4, 8), 3, width=8), seed=0)
        from vmim.train import CheckpointMismatchError

        with pytest.raises(CheckpointMismatchError, match="shape"):
            load_encoder_weights(scratch, other)

    def test_swi_window_that_splits_no_token_patch_fails_before_the_first_step(
        self, labeled, tmp_path
    ):
        # It used to train the whole epoch and write its trace row, then fail
        # at validation with "extent 20 on axis 0 is not divisible by patch
        # size 8".
        out = tmp_path / "ft"
        with pytest.raises(ValueError, match=r"^swi.window 20 is not divisible by "
                                             r"model.token_patch 8$"):
            finetune(None, SegConfig(TINY, 3, width=8), quick_cfg(), labeled[:2], labeled[2:],
                     str(out), swi_cfg=SlidingWindowConfig(20, 0.5))
        assert not (out / "trace.tsv").exists()

    def test_bitwise_deterministic(self, labeled, tmp_path):
        seg = SegConfig(TINY, 3, width=8)
        cfg = quick_cfg(total_epochs=2, batch_size=2)
        a = finetune(None, seg, cfg, labeled[:2], [], str(tmp_path / "da"))
        b = finetune(None, seg, cfg, labeled[:2], [], str(tmp_path / "db"))
        assert open(a.checkpoint_path, "rb").read() == open(b.checkpoint_path, "rb").read()

    def test_labeled_ratio_subsets(self, labeled, tmp_path):
        seg = SegConfig(TINY, 3, width=8)
        cfg = quick_cfg(total_epochs=1, batch_size=4)
        result = finetune(None, seg, cfg, labeled, [], str(tmp_path / "half"),
                          labeled_ratio=0.5)
        assert len(result.losses) == 1  # 2 volumes in one batch


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_loss_reports_step(volumes, tmp_path):
    # Absurd learning rate drives SimMIM into overflow within a few steps.
    cfg = quick_cfg(base_lr=1e18, total_epochs=30, warmup_epochs=0, batch_size=6)
    with pytest.raises(NonFiniteError, match=r"step \d+"):
        pretrain("simmim", TINY, cfg, volumes, str(tmp_path / "boom"),
                 mask_cfg=MaskingConfig(8, 0.75))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("grad_clip", [0.0, 1.0])
def test_non_finite_gradient_reports_step_and_parameter(grad_clip):
    # The loss is finite, but backward overflows: d/dx meets 1e300 * 1e300 = inf
    # on two paths of opposite sign (inf + -inf = NaN) and d/dy is inf. "w" has a
    # finite gradient and comes first: a NaN global norm would turn its clipped
    # gradient NaN, so a check after clipping would name "w" instead of "x".
    params = {
        "w": Tensor(np.ones(2), requires_grad=True),
        "x": Tensor(np.array([1e-300]), requires_grad=True),
        "y": Tensor(np.array([1e-300]), requires_grad=True),
    }

    def overflow(t):
        return mean_all(t.scale(1e300).scale(1e300))

    with Graph() as graph:
        graph.watch_all(params.values())
        loss = mean_all(params["w"]) + (overflow(params["x"]) + overflow(params["x"]).scale(-1.0))
        loss = loss + overflow(params["y"])
    assert np.isfinite(loss.item())
    cfg = quick_cfg(grad_clip=grad_clip)
    with pytest.raises(NonFiniteError,
                       match=r"non-finite gradient for parameter 'x' at step 7"):
        _step(params, _add_grads({}, params, graph, loss, 7), OptState.init(params), 1e-3, cfg, 7)


def _two_crop_finetune(labeled):
    seg = SegConfig(TINY, 3, width=8)
    rng = Rng.derive(0, "terms")
    crops = [crop_sampler(v, l, 16, rng) for v, l in labeled[:2]]

    def term_loss(params, ids):
        (i,) = ids
        crop, labels = crops[i]
        return dice_ce_loss(unetr_segment(seg, params, crop), labels.data)

    return init_seg_params(seg, 0), term_loss


def _two_crop_simmim(volumes):
    rng = Rng.derive(0, "terms")
    samples = []
    for v in volumes[:2]:
        crop, _ = crop_sampler(v, None, 16, rng)
        mask = sample_mask(PatchGrid.for_volume(crop, 8), MaskingConfig(8, 0.5), rng)
        samples.append((crop, mask))

    def term_loss(params, ids):
        (i,) = ids
        return simmim_forward(TINY, params, *samples[i], ReconLossConfig())[1]

    return init_simmim_params(TINY, 0), term_loss


@pytest.mark.parametrize("model", ["finetune", "simmim"])
def test_summed_term_gradients_match_one_batched_tape(model, labeled, volumes):
    params, term_loss = (
        _two_crop_finetune(labeled) if model == "finetune" else _two_crop_simmim(volumes)
    )
    loss, grads = _batch_grads(params, [0, 1], term_loss, False, 0)
    with Graph() as graph:
        graph.watch_all(params.values())
        batched = (term_loss(params, [0]) + term_loss(params, [1])).scale(0.5)
    assert loss == batched.item()
    reference = backward(graph, batched)
    for name, p in params.items():
        expected = reference[p.node_id].data
        assert np.abs(grads[name] - expected).max() <= 1e-12 * np.abs(expected).max(), name


def test_a_step_holds_one_crops_tape(labeled, tmp_path):
    # Each crop's tape is freed by its backward before the next crop's is
    # recorded, so a second crop adds a gradient sum, not a second tape.
    seg = SegConfig(TINY, 3, width=8)
    one = finetune_step_peak(seg, labeled[:1], 24, str(tmp_path / "one"))
    two = finetune_step_peak(seg, labeled[:2], 24, str(tmp_path / "two"))
    assert two <= 1.15 * one


def test_a_simclr_step_at_benchmark_sizes_peaks_under_18_mib(tmp_path):
    # A one-step SimCLR pretrain() on the default model, 2 crops x 2 views
    # of 48^3, as in the benchmark: one term whose tape is the whole batch.
    # Each transformer MLP's VJP recomputes its GELU CDF, so the step peaks
    # at 17.66 MiB, against 24.29 MiB while each MLP kept its (N, 4 dim) CDF.
    rng = np.random.default_rng(0)
    volumes = [Volume(rng.uniform(size=(1, 64, 64, 64))) for _ in range(2)]
    vit = ViTConfig(64, 4, 4, 8)
    peak = pretrain_step_peak("simclr", vit, volumes, 48, str(tmp_path))
    assert peak <= 18 * 2**20, f"{peak / 2**20:.2f} MiB"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_second_term_reports_step_before_any_update(monkeypatch, tmp_path):
    params = {"w": Tensor(np.ones(2), requires_grad=True)}
    terms = []

    def term_loss(params, ids):
        terms.append(ids)
        factor = np.inf if len(terms) == 4 else 1.0  # step 1's second term
        return mean_all(params["w"].scale(factor))

    updates = []
    real_adamw_step = vmim.train.adamw_step

    def counting_adamw_step(*args):
        updates.append(None)
        return real_adamw_step(*args)

    monkeypatch.setattr(vmim.train, "adamw_step", counting_adamw_step)
    cfg = quick_cfg(batch_size=2, total_epochs=1, warmup_epochs=0)
    with pytest.raises(NonFiniteError, match=r"^non-finite loss at step 1$"):
        _train(params, cfg, 4, Rng.derive(0, "terms"), term_loss, lambda *a: None,
               str(tmp_path), {})
    assert len(terms) == 4 and len(updates) == 1


def _libc_has_mallopt():
    try:
        return hasattr(ctypes.CDLL("libc.so.6"), "mallopt")
    except OSError:
        return False


# A tiny pretrain, then 96 MiB of 1 MiB arrays written and freed twice. 96 MiB
# is more than twice glibc's largest dynamic mmap threshold, so under glibc's
# default policy the second pass maps fresh pages (about 24k minor faults).
_HEAP_CHURN = """
import resource, tempfile
import numpy as np
from vmim.models import ViTConfig
from vmim.train import TrainConfig, pretrain
from vmim.volume import Volume

rng = np.random.default_rng(0)
volumes = [Volume(rng.uniform(size=(1, 16, 16, 16))) for _ in range(2)]
cfg = TrainConfig(batch_size=2, warmup_epochs=0, total_epochs=1, window=16, seed=0)
with tempfile.TemporaryDirectory() as out:
    pretrain("simmim", ViTConfig(16, 1, 2, 8), cfg, volumes, out)

def churn():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    blocks = [np.ones(1 << 17) for _ in range(96)]
    del blocks
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

churn()
print(churn())
"""


@pytest.mark.skipif(not _libc_has_mallopt(), reason="the C library has no mallopt")
def test_training_keeps_the_freed_heap_mapped():
    # A fresh interpreter, so the malloc policy is the one training set.
    src = os.path.dirname(os.path.dirname(os.path.abspath(vmim.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _HEAP_CHURN], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert int(out.split()[-1]) < 1000


@pytest.mark.parametrize("missing", ["no mallopt", "no library"])
def test_training_runs_where_libc_has_no_mallopt(missing, volumes, monkeypatch, tmp_path):
    cfg = quick_cfg(total_epochs=1, warmup_epochs=0)
    expected = pretrain("simmim", TINY, cfg, volumes, str(tmp_path / "libc"),
                        mask_cfg=MaskingConfig(8, 0.75)).losses
    opened = []

    def cdll(name, *args, **kwargs):
        opened.append(name)
        if missing == "no library":
            raise OSError(f"{name}: cannot open shared object file")
        return types.SimpleNamespace()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    result = pretrain("simmim", TINY, cfg, volumes, str(tmp_path / "none"),
                      mask_cfg=MaskingConfig(8, 0.75))
    assert opened and result.losses == expected
