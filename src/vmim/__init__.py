"""Masked image modeling for 3D volumetric images.

MAE- and SimMIM-style pretraining with a SimCLR contrastive baseline,
UNETR-style segmentation fine-tuning, Dice evaluation, and sliding-window
inference, all on a small deterministic float64 autodiff engine.
"""

__version__ = "0.1.0"

from .autodiff import Graph, Tensor, apply, backward, finite_diff_check
from .inference import SlidingWindowConfig, evaluate, reconstruct_dump, sliding_window_infer
from .losses import ReconLossConfig, dice_ce_loss, masked_recon_loss, ntxent
from .metrics import DiceReport, dice
from .models import (
    MAEDecoderConfig,
    SegConfig,
    SimCLRConfig,
    ViTConfig,
    encode,
    mae_forward,
    simclr_forward,
    simmim_forward,
    unetr_segment,
)
from .optim import OptState, adamw_step, lr_at
from .patches import (
    Mask,
    MaskingConfig,
    PatchGrid,
    patchify,
    positional_encoding,
    sample_mask,
    unpatchify,
)
from .rng import Rng
from .train import TrainConfig, crop_sampler, finetune, pretrain, subset_labeled
from .volume import (
    LabelVolume,
    Volume,
    load_volume,
    save_volume,
    synth_generate,
)
