"""The benchmark's workloads: seeded inputs, the timed call, and a reference case.

Each workload calls vmim through module attributes (``train.pretrain``,
not a name imported once), so the tracer's wrappers see every call. The
program only ever receives generated inputs: ``synth_generate`` volumes
and a ``TrainConfig.seed`` derived from the workload seed.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field

from vmim import checkpoint, inference, train, volume
from vmim.config import DEFAULTS, derived
from vmim.inference import SlidingWindowConfig
from vmim.losses import ReconLossConfig
from vmim.models import MAEDecoderConfig, SegConfig, SimCLRConfig, ViTConfig
from vmim.patches import MaskingConfig

# The tiny model that config.DEFAULTS describes, at batch 2 on 48^3 crops.
_C = derived(DEFAULTS)
VIT = ViTConfig(
    _C["model.embed_dim"], _C["model.depth"], _C["model.num_heads"],
    _C["model.token_patch"], _C["model.mlp_ratio"], _C["model.channels"],
)
# Passed explicitly: pretrain(dec_cfg=None) would build a 512/8/16 decoder.
DEC = MAEDecoderConfig(_C["dec.dim"], _C["dec.depth"], _C["dec.heads"])
MASK = MaskingConfig(_C["mask.patch"], _C["mask.ratio"])
RECON = ReconLossConfig(_C["recon.norm"])
SIMCLR = SimCLRConfig(_C["simclr.hidden"], _C["simclr.dim"], _C["simclr.temperature"])
NUM_CLASSES = _C["seg.num_classes"]
SEG = SegConfig(VIT, NUM_CLASSES, _C["seg.width"])
CROP = _C["train.window"]
BATCH = 2
SWI = SlidingWindowConfig(_C["swi.window"], _C["swi.overlap"])
METHODS = ("mae", "simmim", "simclr")

# Timed calls cycle through this many input sets, so every set after the
# first repeat checks that the program is deterministic.
INPUT_SETS = 2
# Inputs of the reference case, independent of the workload seed.
REF_SEED = 20220425


def input_seed(seed: int, *tags) -> int:
    text = "/".join(str(part) for part in (seed,) + tags).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little")


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def train_config(seed: int, epochs: int, batch: int = BATCH) -> train.TrainConfig:
    return train.TrainConfig(
        base_lr=_C["train.base_lr"], weight_decay=_C["train.weight_decay"],
        beta1=_C["train.beta1"], beta2=_C["train.beta2"], batch_size=batch,
        warmup_epochs=epochs // 2, total_epochs=epochs, window=CROP, seed=seed,
        min_lr=_C["train.min_lr"], grad_clip=_C["train.grad_clip"],
    )


def windows_per_volume(extents, cfg: SlidingWindowConfig) -> int:
    count = 1
    for n in extents:
        starts = len(range(0, n - cfg.window + 1, cfg.stride))
        count *= starts + (0 if (starts - 1) * cfg.stride == n - cfg.window else 1)
    return count


@dataclass
class Outcome:
    """One call into the program: what it did, how long it took, what it gave."""

    label: str
    key: str
    seconds: float = 0.0
    crops: int = 0
    outputs: dict = field(default_factory=dict)
    error: str | None = None


def timed(label: str, key: str, call, summarize) -> Outcome:
    """Time ``call()`` alone; ``summarize(result)`` gives (outputs, crops)."""
    outcome = Outcome(label, key)
    start = time.perf_counter()
    try:
        result = call()
        outcome.seconds = time.perf_counter() - start
        outcome.outputs, outcome.crops = summarize(result)
    except Exception as exc:  # a failed call is counted, and the run goes on
        outcome.seconds = outcome.seconds or time.perf_counter() - start
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


def check_losses(outcome: Outcome, steps: int) -> str | None:
    losses = outcome.outputs[f"{outcome.label}.losses"]
    if len(losses) != steps:
        return f"{len(losses)} losses, expected {steps}"
    if not all(math.isfinite(x) for x in losses):
        return "non-finite loss"
    return None


class _Training:
    """Shared inputs of the training workloads: labelled 64^3 synth volumes."""

    VOLUMES, EXTENT = 4, 64

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.sets: list = []

    def sizes(self) -> dict:
        return {"volume_extent": self.EXTENT, "crop": CROP, "batch": BATCH,
                "volumes": self.VOLUMES, "epochs": self.EPOCHS}

    def build(self, seed: int) -> None:
        self.sets = []
        for k in range(INPUT_SETS):
            s = input_seed(seed, self.name, k)
            self.sets.append((volume.synth_generate(s, self.VOLUMES, self.EXTENT, NUM_CLASSES), s))

    def reference_pairs(self) -> list:
        return volume.synth_generate(REF_SEED, 2, self.EXTENT, NUM_CLASSES)


class Pretrain(_Training):
    """mae, simmim and simclr pretrain() calls in turn on 48^3 crops of 64^3 volumes."""

    name = "pretrain"
    EPOCHS = 2
    metrics = {m: (f"{m}_samples_per_s", "1/s") for m in METHODS}

    def _pretrain(self, method: str, pairs, seed: int, key: str) -> Outcome:
        out_dir = os.path.join(self.work_dir, self.name, method)
        vols = [v for v, _ in pairs]
        steps = math.ceil(len(vols) / BATCH) * self.EPOCHS
        views = 2 if method == "simclr" else 1

        def summarize(result):
            outputs = {f"{method}.losses": list(result.losses),
                       f"{method}.checkpoint": file_sha256(result.checkpoint_path)}
            return outputs, len(result.losses) * BATCH * views

        outcome = timed(method, f"{key}/{method}", lambda: train.pretrain(
            method, VIT, train_config(seed, self.EPOCHS), vols, out_dir,
            mask_cfg=MASK, dec_cfg=DEC, recon_cfg=RECON, simclr_cfg=SIMCLR,
        ), summarize)
        if outcome.error is None:
            outcome.error = check_losses(outcome, steps)
        return outcome

    def call(self, index: int) -> list[Outcome]:
        pairs, s = self.sets[index % INPUT_SETS]
        return [self._pretrain(m, pairs, s, f"set{index % INPUT_SETS}") for m in METHODS]

    def reference(self) -> list[Outcome]:
        pairs = self.reference_pairs()
        return [self._pretrain(m, pairs, REF_SEED, "reference") for m in METHODS]


class Finetune(_Training):
    """finetune() calls without a validation set on 48^3 crops of 64^3 volumes."""

    name = "finetune"
    EPOCHS = 1
    metrics = {"seg": ("seg_samples_per_s", "1/s")}

    def _finetune(self, pairs, seed: int, key: str) -> Outcome:
        out_dir = os.path.join(self.work_dir, self.name)
        steps = math.ceil(len(pairs) / BATCH) * self.EPOCHS

        def summarize(result):
            outputs = {"seg.losses": list(result.losses),
                       "seg.checkpoint": file_sha256(result.checkpoint_path)}
            return outputs, len(result.losses) * BATCH

        outcome = timed("seg", key, lambda: train.finetune(
            None, SEG, train_config(seed, self.EPOCHS), pairs, [], out_dir
        ), summarize)
        if outcome.error is None:
            outcome.error = check_losses(outcome, steps)
        return outcome

    def call(self, index: int) -> list[Outcome]:
        pairs, s = self.sets[index % INPUT_SETS]
        return [self._finetune(pairs, s, f"set{index % INPUT_SETS}")]

    def reference(self) -> list[Outcome]:
        return [self._finetune(self.reference_pairs(), REF_SEED, "reference")]


def _train_seg_checkpoint(pairs, seed: int, out_dir: str):
    """Seg checkpoint from a one-step finetune() at batch 1."""
    return train.finetune(None, SEG, train_config(seed, 1, batch=1), pairs[:1], [], out_dir)


class Infer:
    """evaluate() on 96^3 volumes read from disk, 27 windows each at overlap 0.5."""

    name = "infer"
    VOLUMES, EXTENT = 2, 96
    REF_EXTENTS = (48, 48, 72)  # two overlapping windows: blending is exercised
    PROBES = 8
    metrics = {"volume": ("infer_volume_s", "s")}

    def __init__(self, work_dir: str):
        self.work_dir = os.path.join(work_dir, self.name)
        self.paths: list = []
        self.checkpoint_path = ""

    def sizes(self) -> dict:
        return {"volume_extent": self.EXTENT, "crop": CROP, "batch": 1, "volumes": self.VOLUMES,
                "windows_per_volume": windows_per_volume((self.EXTENT,) * 3, SWI),
                "overlap": SWI.overlap}

    def build(self, seed: int) -> None:
        os.makedirs(self.work_dir, exist_ok=True)
        pairs = volume.synth_generate(input_seed(seed, self.name), self.VOLUMES, self.EXTENT, NUM_CLASSES)
        self.paths = []
        for i, (vol, labels) in enumerate(pairs):
            vol_path = os.path.join(self.work_dir, f"volume{i}.vol")
            lab_path = os.path.join(self.work_dir, f"labels{i}.lab")
            volume.save_volume(vol_path, vol)
            volume.save_labels(lab_path, labels)
            self.paths.append((vol_path, lab_path))
        self.checkpoint_path = _train_seg_checkpoint(
            pairs, input_seed(seed, self.name, "train"), os.path.join(self.work_dir, "seg")
        ).checkpoint_path

    def call(self, index: int) -> list[Outcome]:
        i = index % self.VOLUMES
        vol_path, lab_path = self.paths[i]
        windows = windows_per_volume((self.EXTENT,) * 3, SWI)

        def evaluate():
            pair = (volume.load_volume(vol_path), volume.load_labels(lab_path))
            return inference.evaluate(self.checkpoint_path, [pair], SWI)

        outcome = timed("volume", f"volume{i}", evaluate,
                        lambda report: ({"dice": _dice_values(report)}, windows))
        if outcome.error is None:
            dice = outcome.outputs["dice"]
            if len(dice) != NUM_CLASSES - 1 or not all(0.0 <= d <= 1.0 for d in dice):
                outcome.error = f"Dice report out of range: {dice}"
        return [outcome]

    def reference(self) -> list[Outcome]:
        (pair,) = volume.synth_generate(REF_SEED, 1, self.REF_EXTENTS, NUM_CLASSES)
        ref_dir = os.path.join(self.work_dir, "reference")
        ckpt = timed("reference", "reference/checkpoint",
                     lambda: _train_seg_checkpoint([pair], REF_SEED, ref_dir),
                     lambda r: ({"seg.losses": list(r.losses),
                                 "seg.checkpoint": file_sha256(r.checkpoint_path)}, 0))
        if ckpt.error:
            return [ckpt]
        ckpt_path = os.path.join(ref_dir, "checkpoint.vmim")

        def logits():
            params, _ = checkpoint.load_checkpoint(ckpt_path)
            return inference.sliding_window_infer(inference.seg_model_fn(SEG, params), pair[0], SWI)

        def logit_summary(out):
            flat = out.reshape(-1)
            step = flat.size // self.PROBES
            summary = {"logits.sum": [float(flat.sum())],
                       "logits.abs_sum": [float(abs(flat).sum())],
                       "logits.probes": [float(x) for x in flat[::step][: self.PROBES]],
                       "logits.sha256": hashlib.sha256(out.tobytes()).hexdigest()}
            return summary, windows_per_volume(self.REF_EXTENTS, SWI)

        report = timed("reference", "reference/dice",
                       lambda: inference.evaluate(ckpt_path, [pair], SWI),
                       lambda r: ({"dice": _dice_values(r)}, 0))
        return [ckpt, timed("reference", "reference/logits", logits, logit_summary), report]


def _dice_values(report) -> list[float]:
    return [report.per_class[c] for c in sorted(report.per_class)]


WORKLOADS = {w.name: w for w in (Pretrain, Finetune, Infer)}
