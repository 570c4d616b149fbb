"""Training objectives: masked reconstruction, Dice+CE, and NT-Xent.

Inputs are channel-last: reconstruction predictions are (N, token_dim)
token rows and segmentation logits are (D, H, W, num_classes).
Each objective is one op of the autodiff registry (``recon``, ``dice_ce``
and ``ntxent``), one tape node with a closed-form gradient.
ReconLossConfig lives with the key schema in ``config``.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, apply
from .config import ReconLossConfig
from .patches import Mask


def masked_recon_loss(
    pred: Tensor,
    target: np.ndarray,
    mask: Mask,
    cfg: ReconLossConfig = ReconLossConfig(),
) -> Tensor:
    """Mean |residual| (l1) or residual^2 (l2) over masked-token voxels only.

    Visible tokens never enter the computation, so the loss is bitwise
    invariant to their contents.

    The loss is one ``recon`` tape node, bitwise equal in value and
    gradient to the gather, subtract, abs or square, and mean graph it
    replaced. Raises ValueError for an empty mask or mismatched shapes.
    """
    ids = mask.masked_token_ids
    return apply("recon", (pred,), {"target": target, "ids": ids, "norm": cfg.norm})


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
    """NT-Xent over 2B embedding rows; rows i and i+B are positives.

    Rows are L2-normalised inside the one ``ntxent`` tape node (a norm is
    clamped at 1e-12), so unnormalised projections give the loss of their
    normalised rows. Each anchor's softmax leaves out its own row exactly.
    Raises ValueError for fewer than 4 or an odd number of rows and for a
    temperature that is not positive.
    """
    return apply("ntxent", (embeddings,), {"temperature": temperature})
