"""The names ``import vmim`` exports: a change to this set must be deliberate."""

import os
import subprocess
import sys
import types

import vmim

PUBLIC_NAMES = {
    # autodiff
    "Graph", "Tensor", "apply", "backward", "finite_diff_check",
    # inference
    "SlidingWindowConfig", "evaluate", "reconstruct_dump", "sliding_window_infer",
    # losses
    "ReconLossConfig", "dice_ce_loss", "masked_recon_loss", "ntxent",
    # metrics
    "DiceReport", "dice",
    # models
    "MAEDecoderConfig", "SegConfig", "SimCLRConfig", "ViTConfig", "encode",
    "mae_forward", "simclr_forward", "simmim_forward", "unetr_segment",
    # optim
    "OptState", "adamw_step", "lr_at",
    # patches
    "Mask", "MaskingConfig", "PatchGrid", "patchify", "positional_encoding",
    "sample_mask", "unpatchify",
    # rng
    "Rng",
    # train
    "TrainConfig", "crop_sampler", "finetune", "pretrain", "subset_labeled",
    # volume
    "LabelVolume", "Volume", "load_volume", "save_volume", "synth_generate",
}


def test_exported_names_are_pinned():
    exported = {
        name
        for name, value in vars(vmim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


def test_import_loads_no_scipy():
    # numpy is the one runtime dependency: scipy.special alone added about
    # 26 MiB of RSS and 0.3 s to every process that imported vmim.
    src = os.path.dirname(os.path.dirname(os.path.abspath(vmim.__file__)))
    code = "import sys, vmim, vmim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"
