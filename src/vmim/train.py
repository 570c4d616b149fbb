"""Pretraining and fine-tuning loops: cropping, subsetting, stepping.

Both loops are bitwise reproducible given (seed, config, dataset): every
random draw comes from derived splitmix streams consumed in a fixed order,
and parameter updates are functional.

A step's loss is the mean of its loss terms: one per crop for fine-tuning,
MAE and SimMIM, and one for the whole batch for SimCLR, whose NT-Xent loss
couples the batch. Each term is recorded on a tape of its own and
backpropagated before the next term's inputs are drawn, so a step holds
one term's VJP context at a time, not the batch's. The terms' gradients
are summed before the one clip and AdamW update.

Training sets a process-wide malloc policy. Every term frees its tape in
``backward`` and the next term's forward refills it, so from the first
training call on, glibc keeps up to 1 GiB of freed heap mapped for reuse
instead of returning it to the kernel and faulting it back in. Peak RSS
is unchanged by that policy.
"""

from __future__ import annotations

import ctypes
import math
import os
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Graph, NonFiniteError, Tensor, backward
from .checkpoint import save_checkpoint
from .config import (
    DEFAULTS,
    MAEDecoderConfig,
    MaskingConfig,
    ReconLossConfig,
    SegConfig,
    SimCLRConfig,
    SlidingWindowConfig,
    TrainConfig,
    ViTConfig,
    build,
    check,
    check_window,
    checkpoint_config,
    derived,
    flatten,
)
from .inference import dice_over_dataset, predict_labels
from .losses import dice_ce_loss
from .models import (
    encoder_param_names,
    init_mae_params,
    init_seg_params,
    init_simclr_params,
    init_simmim_params,
    mae_forward,
    simclr_forward,
    simmim_forward,
    unetr_segment,
)
from .optim import OptState, adamw_step, clip_grad_norm, lr_at
from .patches import PatchGrid, check_mask_at_window, sample_mask
from .rng import Rng
from .volume import LabelVolume, Volume, check_pair

PRETRAIN_METHODS = ("mae", "simmim", "simclr")


class CheckpointMismatchError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def crop_sampler(
    volume: Volume,
    labels: LabelVolume | None,
    window: int,
    rng: Rng,
) -> tuple[Volume, LabelVolume | None]:
    """Uniform random axis-aligned window crop, labels cropped identically."""
    extents = volume.extents
    if any(window > n for n in extents):
        raise ValueError(f"window {window} exceeds volume extents {extents}")
    starts = [rng.randbelow(n - window + 1) for n in extents]
    slices = tuple(slice(s, s + window) for s in starts)
    crop = Volume(volume.data[(slice(None),) + slices].copy())
    label_crop = None
    if labels is not None:
        label_crop = LabelVolume(labels.data[slices].copy(), labels.num_classes)
    return crop, label_crop


def check_crop_window(window: int, volumes: Iterable[tuple[int, Volume]], name: str) -> None:
    """Raise ValueError, naming train.window and the volume's index, when a
    ``window``^3 crop does not fit in one of the (index, volume) ``volumes``."""
    for i, volume in volumes:
        if any(window > n for n in volume.extents):
            raise ValueError(
                f"train.window {window} exceeds the extents {volume.extents} of {name} {i}"
            )


def subset_labeled(ids: list, ratio: float, seed: int) -> list:
    """floor(ratio * n) ids drawn without replacement; ratio 1.0 is identity."""
    check("train.labeled_ratio", ratio)
    if ratio == 1.0:
        return list(ids)
    k = int(math.floor(ratio * len(ids)))
    if k == 0:
        raise ValueError(f"train.labeled_ratio {ratio} of {len(ids)} ids selects nothing")
    rng = Rng.derive(seed, "subset")
    picks = rng.sample_without_replacement(len(ids), k)
    return [ids[i] for i in picks]


# ---------------------------------------------------------------------------
# The training loop
# ---------------------------------------------------------------------------

_M_TRIM_THRESHOLD = -1  # mallopt(3) parameter numbers, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap_mapped() -> None:
    """Serve allocations up to 32 MiB from the heap and trim it only past 1 GiB.

    32 MiB is the largest mmap threshold glibc allows on 64-bit. By default
    glibc trims the heap top once the free space there exceeds about twice
    the largest freed mmapped chunk, a few MiB in training. Does nothing
    where the C library has no mallopt (not glibc).
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _make_batches(order: list[int], batch_size: int, min_size: int = 1) -> list[list[int]]:
    batches = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    if len(batches) > 1 and len(batches[-1]) < min_size:
        batches[-2].extend(batches[-1])
        batches.pop()
    return batches


def _trace_row(step: int, lr: float, loss: float, dice_scores: dict | None = None) -> str:
    """One trace line: step, lr, loss, then optional per-class dice."""
    cells = [str(step), repr(lr), repr(loss)]
    if dice_scores is not None:
        cells.extend(repr(dice_scores[c]) for c in sorted(dice_scores))
    return "\t".join(cells) + "\n"


def _add_grads(grads: dict, params, graph, loss, step: int) -> dict:
    """Backpropagate ``loss`` over ``graph`` and add each parameter's
    gradient into ``grads`` (name -> array), which it returns.

    A non-finite loss raises NonFiniteError naming the step, before any
    backward.
    """
    if not np.isfinite(loss.data).all():
        raise NonFiniteError(f"non-finite loss at step {step}")
    gradmap = backward(graph, loss)
    for name, p in params.items():
        g = gradmap.pop(p.node_id).data
        held = grads.get(name)
        grads[name] = g if held is None else held + g
    return grads


def _batch_grads(params, batch_ids, term_loss, coupled: bool, step: int):
    """One step's mean loss, and the sum of its loss terms' gradients.

    A term is one example of ``batch_ids``, or the whole batch when
    ``coupled``. Each of the n terms records ``term_loss(params, ids)
    .scale(1 / n)`` on a tape of its own, backpropagated before the next
    term is recorded. The gradient seeds and the mean loss are bitwise
    those of one tape of ``(l_1 + ... + l_n).scale(1 / n)``. The summed
    gradients may differ from that tape's in rounding, since their float
    sums are grouped by term.
    """
    terms = [batch_ids] if coupled else [[i] for i in batch_ids]
    scale = 1.0 / len(terms)
    grads: dict[str, np.ndarray] = {}
    total = None
    for ids in terms:
        with Graph() as graph:
            graph.watch_all(params.values())
            term = term_loss(params, ids)
            loss = term.scale(scale)
        _add_grads(grads, params, graph, loss, step)
        total = term.item() if total is None else total + term.item()
    mean = total * scale
    if not math.isfinite(mean):
        raise NonFiniteError(f"non-finite loss at step {step}")
    return mean, grads


def _step(params, grads, state, lr, cfg: TrainConfig, step: int):
    """Clip the summed gradients ``grads`` and AdamW-update; returns the new
    (params, state).

    A non-finite gradient raises NonFiniteError naming the first such
    parameter in ``params`` order and the step, before any update: clipping
    finds it when the global norm is not finite, AdamW otherwise.
    """
    try:
        grads = clip_grad_norm(grads, cfg.grad_clip)
        return adamw_step(params, grads, state, lr, cfg.adamw)
    except NonFiniteError as exc:
        raise NonFiniteError(f"{exc} at step {step}") from None


@dataclass
class PretrainResult:
    """What a training run wrote, and the parameters it ended with."""

    checkpoint_path: str
    trace_path: str
    losses: list[float]
    params: dict = field(repr=False, default_factory=dict)
    config: dict = field(default_factory=dict)


def _train(params, cfg: TrainConfig, n, rng, term_loss, epoch_end, out_dir, config,
           coupled=False):
    """The one training loop behind pretrain and finetune.

    Each epoch draws a permutation of the ``n`` example ids from ``rng`` and
    cuts it into batches of ``cfg.batch_size``. ``term_loss(params, ids)``
    draws its inputs and builds one loss term on the active graph: the loss
    of the one example in ``ids``, or, when ``coupled``, of the whole batch
    (a coupled batch needs two examples, so a last batch of one joins the
    one before). It should keep no reference to its inputs once it returns,
    so that they are freed before its backward. A step records and
    backpropagates its terms one at a time, so one term's tape is alive at
    a time, and sums their gradients before the one clip and AdamW update.
    After every epoch ``epoch_end(epochs_done, steps_done, params)`` may
    return per-class Dice scores, which are traced on an extra row. Numpy
    overflow warnings are silenced inside a step: the explicit finiteness
    checks report divergence instead. Creates ``out_dir`` and writes
    trace.tsv and checkpoint.vmim there.
    """
    _keep_freed_heap_mapped()
    os.makedirs(out_dir, exist_ok=True)
    state = OptState.init(params)
    min_batch = 2 if coupled else 1
    spe = len(_make_batches(list(range(n)), cfg.batch_size, min_batch))
    total_steps = spe * cfg.total_epochs
    warmup_steps = spe * cfg.warmup_epochs
    trace_path = os.path.join(out_dir, "trace.tsv")
    losses: list[float] = []
    step = 0
    with open(trace_path, "w", encoding="utf-8") as trace:
        for epoch in range(cfg.total_epochs):
            order = rng.permutation(n)
            for batch_ids in _make_batches(order, cfg.batch_size, min_batch):
                lr = lr_at(step, warmup_steps, total_steps, cfg.base_lr, cfg.min_lr)
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    loss_value, grads = _batch_grads(params, batch_ids, term_loss, coupled, step)
                    params, state = _step(params, grads, state, lr, cfg, step)
                del grads  # not held through the next step's forward
                losses.append(loss_value)
                trace.write(_trace_row(step, lr, loss_value))
                step += 1
            scores = epoch_end(epoch + 1, step, params)
            if scores is not None:
                trace.write(_trace_row(step, lr, loss_value, scores))
    checkpoint_path = os.path.join(out_dir, "checkpoint.vmim")
    save_checkpoint(checkpoint_path, params, config)
    return PretrainResult(checkpoint_path, trace_path, losses, params, config)


# ---------------------------------------------------------------------------
# Pretraining
# ---------------------------------------------------------------------------

def _augment_view(volume: Volume, window: int, rng: Rng) -> Volume:
    """A random crop scaled by a random factor in [0.9, 1.1]: the product is
    taken in float64 and rounded once to the view's float32."""
    crop, _ = crop_sampler(volume, None, window, rng)
    factor = rng.uniform_in(0.9, 1.1)
    return Volume(crop.data.astype(np.float64) * factor)


def pretrain(
    method: str,
    vit_cfg: ViTConfig,
    train_cfg: TrainConfig,
    dataset: list[Volume],
    out_dir: str,
    mask_cfg: MaskingConfig | None = None,
    dec_cfg: MAEDecoderConfig | None = None,
    recon_cfg: ReconLossConfig = ReconLossConfig(),
    simclr_cfg: SimCLRConfig | None = None,
) -> PretrainResult:
    """Self-supervised pretraining; emits checkpoints and a loss trace.

    A None head or masking config takes config.DEFAULTS, resolved against
    ``vit_cfg``. Raises ValueError, naming train.window, before the first
    step when a crop does not fit a volume; MAE and SimMIM raise it, naming
    mask.ratio, when a mask at ``train_cfg.window`` would hide no patch or
    every patch. Raises NonFiniteError, naming the step, when the loss or a
    gradient turns non-finite.

    Sets the process-wide malloc policy of _keep_freed_heap_mapped.
    """
    if method not in PRETRAIN_METHODS:
        raise ValueError(f"method must be one of {PRETRAIN_METHODS}, got {method!r}")
    if not dataset:
        raise ValueError("dataset is empty")
    check_window(train_cfg.window, vit_cfg.token_patch)
    defaults = derived({**DEFAULTS, **flatten("model", vit_cfg)})
    mask_cfg = mask_cfg or build("mask", defaults)
    dec_cfg = dec_cfg or build("dec", defaults)
    simclr_cfg = simclr_cfg or build("simclr", defaults)
    window, seed = train_cfg.window, train_cfg.seed
    if method != "simclr":
        check_mask_at_window(mask_cfg, vit_cfg.token_patch, window)
    check_crop_window(window, enumerate(dataset), "dataset volume")
    if method == "simclr":
        if train_cfg.batch_size < 2 or len(dataset) < 2:
            raise ValueError("contrastive pretraining needs batch size >= 2 and >= 2 volumes")
        params = init_simclr_params(vit_cfg, simclr_cfg, seed)
        heads = {"simclr": simclr_cfg}
    elif method == "mae":
        params = init_mae_params(vit_cfg, dec_cfg, seed)
        heads = {"dec": dec_cfg, "mask": mask_cfg, "recon": recon_cfg}
    else:
        params = init_simmim_params(vit_cfg, seed)
        heads = {"mask": mask_cfg, "recon": recon_cfg}
    config = checkpoint_config(method, train_cfg, model=vit_cfg, **heads)
    rng = Rng.derive(seed, "pretrain", method)

    def term_loss(params, ids):
        if method == "simclr":
            views1 = [_augment_view(dataset[i], window, rng) for i in ids]
            views2 = [_augment_view(dataset[i], window, rng) for i in ids]
            return simclr_forward(vit_cfg, params, views1, views2, simclr_cfg.temperature)
        (i,) = ids
        crop, _ = crop_sampler(dataset[i], None, window, rng)
        mask = sample_mask(PatchGrid.for_volume(crop, vit_cfg.token_patch), mask_cfg, rng)
        if method == "mae":
            return mae_forward(vit_cfg, dec_cfg, params, crop, mask, recon_cfg)[1]
        return simmim_forward(vit_cfg, params, crop, mask, recon_cfg)[1]

    cadence = train_cfg.checkpoint_cadence()

    def epoch_end(epoch, step, params):
        if epoch % cadence == 0 and epoch < train_cfg.total_epochs:
            path = os.path.join(out_dir, f"checkpoint_ep{epoch:04d}.vmim")
            save_checkpoint(path, params, config)

    return _train(
        params, train_cfg, len(dataset), rng, term_loss, epoch_end, out_dir, config,
        coupled=method == "simclr",
    )


# ---------------------------------------------------------------------------
# Fine-tuning
# ---------------------------------------------------------------------------

@dataclass
class FinetuneResult(PretrainResult):
    # (step, per-class Dice, mean Dice) at each validation
    dice_trace: list[tuple[int, dict[int, float], float]] = field(default_factory=list)

    @property
    def final_dice(self) -> float:
        return self.dice_trace[-1][2] if self.dice_trace else 0.0


def load_encoder_weights(params: dict, checkpoint_params: dict) -> dict:
    """Copy encoder weights from a pretraining checkpoint into seg params."""
    updated = dict(params)
    for name in encoder_param_names(params):
        if name not in checkpoint_params:
            raise CheckpointMismatchError(f"checkpoint lacks encoder parameter {name!r}")
        source = checkpoint_params[name]
        if source.shape != params[name].shape:
            raise CheckpointMismatchError(
                f"encoder parameter {name!r} has shape {source.shape} in checkpoint, "
                f"expected {params[name].shape}"
            )
        updated[name] = Tensor(source.data, requires_grad=True)
    return updated


def finetune(
    checkpoint_params: dict | None,
    seg_cfg: SegConfig,
    train_cfg: TrainConfig,
    train_set: list[tuple[Volume, LabelVolume]],
    val_set: list[tuple[Volume, LabelVolume]],
    out_dir: str,
    labeled_ratio: float = 1.0,
    swi_cfg: SlidingWindowConfig | None = None,
) -> FinetuneResult:
    """Supervised segmentation training, optionally from pretrained encoder.

    checkpoint_params None trains from scratch (the supervised baseline).
    Validation Dice is recorded every eval cadence and at the final epoch.
    Raises VolumeIOError, naming the set and the pair index, when a pair's
    label extents differ from its volume's; ValueError, naming the key, at
    set-up when train.window or swi.window splits no whole token patches or
    a crop does not fit a volume of the labeled subset; and NonFiniteError,
    naming the step, when the loss or a gradient turns non-finite.

    Sets the process-wide malloc policy of _keep_freed_heap_mapped.
    """
    if not train_set:
        raise ValueError("labeled training set is empty")
    for set_name, pairs in (("train_set", train_set), ("val_set", val_set)):
        for i, pair in enumerate(pairs):
            check_pair(*pair, f"{set_name} pair {i}")
    vit = seg_cfg.vit
    check_window(train_cfg.window, vit.token_patch)
    swi_cfg = swi_cfg or build("swi", DEFAULTS, window=train_cfg.window)
    check_window(swi_cfg.window, vit.token_patch, "swi.window")
    picked = subset_labeled(list(range(len(train_set))), labeled_ratio, train_cfg.seed)
    check_crop_window(train_cfg.window, ((i, train_set[i][0]) for i in picked), "train_set volume")
    active = [train_set[i] for i in picked]

    params = init_seg_params(seg_cfg, train_cfg.seed)
    if checkpoint_params is not None:
        params = load_encoder_weights(params, checkpoint_params)
    config = checkpoint_config("seg", train_cfg, labeled_ratio, model=vit, seg=seg_cfg)

    rng = Rng.derive(train_cfg.seed, "finetune")

    def term_loss(params, ids):
        (i,) = ids
        crop, label_crop = crop_sampler(active[i][0], active[i][1], train_cfg.window, rng)
        return dice_ce_loss(unetr_segment(seg_cfg, params, crop), label_crop.data)

    eval_cadence = train_cfg.eval_cadence()
    dice_trace: list[tuple[int, dict[int, float], float]] = []

    def epoch_end(epoch, step, params):
        if val_set and (epoch % eval_cadence == 0 or epoch == train_cfg.total_epochs):
            scores = dice_over_dataset(
                lambda v: predict_labels(seg_cfg, params, v, swi_cfg),
                val_set,
                seg_cfg.num_classes,
            ).per_class
            dice_trace.append((step, scores, sum(scores.values()) / len(scores)))
            return scores

    result = _train(params, train_cfg, len(active), rng, term_loss, epoch_end, out_dir, config)
    return FinetuneResult(**vars(result), dice_trace=dice_trace)
