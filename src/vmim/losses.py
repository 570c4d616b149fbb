"""Training objectives: masked reconstruction, Dice+CE, and NT-Xent.

Inputs are channel-last: reconstruction predictions are (N, token_dim)
token rows and segmentation logits are (D, H, W, num_classes).
Dice+CE and NT-Xent's log-softmax are single fused ops of the autodiff
registry (``dice_ce`` and ``log_softmax``), each with a closed-form
gradient. ReconLossConfig lives with the key schema in ``config``.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, apply
from .config import ReconLossConfig
from .patches import Mask


def masked_recon_loss(
    pred: Tensor,
    target: Tensor | np.ndarray,
    mask: Mask,
    cfg: ReconLossConfig = ReconLossConfig(),
) -> Tensor:
    """Mean |residual| (l1) or residual^2 (l2) over masked-token voxels only.

    Visible tokens never enter the computation, so the loss is bitwise
    invariant to their contents.
    """
    if mask.num_masked == 0:
        raise ValueError("no masked patches to reconstruct")
    if not isinstance(target, Tensor):
        target = Tensor(target)
    if pred.shape != target.shape:
        raise ValueError(f"pred shape {pred.shape} != target shape {target.shape}")
    ids = mask.masked_token_ids
    residual = apply("gather_rows", (pred,), {"indices": ids}) - apply(
        "gather_rows", (target,), {"indices": ids}
    )
    if cfg.norm == "l1":
        per_voxel = apply("abs", (residual,))
    else:
        per_voxel = residual * residual
    return per_voxel.mean()


def dice_ce_loss(
    logits: Tensor,
    labels: np.ndarray,
    weight_dice: float = 0.5,
    smooth: float = 1e-5,
) -> Tensor:
    """weight_dice * (1 - soft Dice) + (1 - weight_dice) * cross-entropy.

    logits: (D, H, W, num_classes); labels: (D, H, W) integer ids.
    Soft Dice is computed on softmax probabilities and averaged over all
    classes, with a small smoothing term so absent classes are neutral.

    The loss is one ``dice_ce`` tape node: a class-major kernel that takes
    one softmax and has a closed-form gradient. Its value and gradient are
    within 1e-12 relative of the composite softmax/log/one-hot graph it
    replaced (measured about 1e-15).

    Raises ValueError, naming the argument, for labels that are not
    integers, do not match the logits or lie outside [0, num_classes), for
    no voxels, for weight_dice outside [0, 1] and for smooth <= 0.
    """
    return apply(
        "dice_ce", (logits,), {"labels": labels, "weight_dice": weight_dice, "smooth": smooth}
    )


def ntxent(embeddings: Tensor, temperature: float) -> Tensor:
    """NT-Xent over 2B row-normalized embeddings; rows i and i+B are positives."""
    n = embeddings.shape[0]
    if n % 2 or n < 4:
        raise ValueError(f"need an even number >= 4 of embeddings, got {n}")
    norms = np.sqrt((embeddings.data**2).sum(axis=-1))
    if np.abs(norms - 1.0).max() > 1e-6:
        raise ValueError("embeddings must be L2-normalized rows")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")

    b = n // 2
    sim = embeddings @ embeddings.permute((1, 0))
    logits = sim.scale(1.0 / temperature)
    # Anchors never compare against themselves.
    logits = logits + Tensor(np.diag(np.full(n, -1e9)))
    log_probs = apply("log_softmax", (logits,))
    pos = np.zeros((n, n))
    pos[np.arange(b), np.arange(b) + b] = 1.0
    pos[np.arange(b) + b, np.arange(b)] = 1.0
    return (log_probs * Tensor(pos)).sum(axis=-1).mean().scale(-1.0)
