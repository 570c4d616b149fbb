"""Shared probe functions for gradient checks, and numpy references of model
parts, across test modules."""

import math

import numpy as np
from scipy.special import erf

from vmim.autodiff import Tensor, apply

DIFFERENTIABLE_PROBES = {
    "add": lambda t, aux: (t + aux["b"]).sum(),
    "sub": lambda t, aux: (t - aux["b"]).sum(),
    "mul": lambda t, aux: (t * aux["b"]).sum(),
    "scale": lambda t, aux: t.scale(1.7).sum(),
    "matmul": lambda t, aux: (t @ aux["m"]).sum(),
    "linear": lambda t, aux: apply("linear", (t, aux["w"], aux["bias"])).sum(),
    "reshape": lambda t, aux: (t.reshape((20,)) * aux["v20"]).sum(),
    "permute": lambda t, aux: (t.permute((1, 0)) * aux["b_t"]).sum(),
    "concat": lambda t, aux: (
        apply("concat", (t, aux["b"]), {"axis": 0}) * aux["cat_w"]
    ).sum(),
    "gather_rows": lambda t, aux: (
        apply("gather_rows", (t,), {"indices": np.array([3, 1, 1, 0])}) * aux["g_w"]
    ).sum(),
    "scatter_rows": lambda t, aux: (
        apply("scatter_rows", (t,), {"indices": np.array([5, 2, 0, 3, 1]), "total": 7})
        * aux["sc_w"]
    ).sum(),
    "softmax": lambda t, aux: (apply("softmax", (t,), {"axis": -1}) * aux["b"]).sum(),
    "layernorm": lambda t, aux: (
        apply("layernorm", (t,), {"eps": 1e-6}) * aux["b"]
    ).sum(),
    "gelu": lambda t, aux: apply("gelu", (t,)).sum(),
    "sum": lambda t, aux: (t.sum(axis=1) * aux["v4"]).sum(),
    "mean": lambda t, aux: (t.mean(axis=0) * aux["v5"]).sum(),
    "abs": lambda t, aux: apply("abs", (t,)).sum(),
    "log_softmax": lambda t, aux: (apply("log_softmax", (t,)) * aux["b"]).sum(),
    # Four voxels of five classes: class 2 is absent from the labels. The
    # scale gives the op an upstream gradient other than 1.
    "dice_ce": lambda t, aux: apply(
        "dice_ce", (t,), {"labels": np.array([4, 0, 1, 3]), "weight_dice": 0.5, "smooth": 1e-5}
    ).scale(1.7),
    "rownorm": lambda t, aux: (apply("rownorm", (t,)) * aux["b"]).sum(),
}


def probe_aux(rng):
    return {
        "b": Tensor(rng.normal(size=(4, 5))),
        "b_t": Tensor(rng.normal(size=(5, 4))),
        "m": Tensor(rng.normal(size=(5, 3))),
        "w": Tensor(rng.normal(size=(5, 2))),
        "bias": Tensor(rng.normal(size=(2,))),
        "v20": Tensor(rng.normal(size=(20,))),
        "v4": Tensor(rng.normal(size=(4,))),
        "v5": Tensor(rng.normal(size=(5,))),
        "cat_w": Tensor(rng.normal(size=(8, 5))),
        "g_w": Tensor(rng.normal(size=(4, 5))),
        "sc_w": Tensor(rng.normal(size=(7, 5))),
    }


# Probes of a channel-last input operand: linear's probe above runs on 2-D
# rows. kind -> (probe, input shape).
INPUT_PROBES = {
    "linear": (
        lambda t, aux: (apply("linear", (t, aux["w"], aux["bias"])) * aux["lin_w"]).sum(),
        (2, 3, 2, 5),
    ),
}


def input_probe_aux(rng):
    return {
        **probe_aux(rng),
        "lin_w": Tensor(rng.normal(size=(2, 3, 2, 2))),
    }


def probe_input(kind, rng):
    x = rng.uniform(-2.0, 2.0, size=(4, 5))
    if kind == "abs":
        x = x + np.sign(x) * 0.1
    if kind == "scatter_rows":
        x = rng.uniform(-2.0, 2.0, size=(5, 5))
    return x


def conv_transpose_reference(x, w):
    """Kernel-2, stride-2 transposed conv of (D, H, W, C) voxels to
    (2D, 2H, 2W, K): each kernel offset writes its own strided sub-grid."""
    d, h, wd, _ = x.shape
    out = np.zeros((2 * d, 2 * h, 2 * wd, w.shape[1]))
    for i in range(2):
        for j in range(2):
            for l in range(2):
                out[i::2, j::2, l::2] = x @ w[:, :, i, j, l]
    return out


def unetr_decoder_reference(cfg, params, volume, taps):
    """Numpy UNETR decoder on interleaved (D, H, W, C) voxels: per stage a
    transposed conv of the running features and of the skip, a channel
    concat with the raw voxels at the last stage, and the fuse.

    ``taps`` are the encoder's (T, E) tap rows, shallow to deep. Returns
    (D, H, W, num_classes) logits.
    """
    w = {name: t.data for name, t in params.items()}

    def gelu(a):
        return 0.5 * a * (1.0 + erf(a / math.sqrt(2.0)))

    def pointwise(a, prefix):
        return a @ w[f"{prefix}.w"] + w[f"{prefix}.b"]

    p = cfg.vit.token_patch
    tap_shape = tuple(n // p for n in volume.data.shape[1:]) + (-1,)
    stages = int(math.log2(p))
    x = gelu(pointwise(taps[-1].reshape(tap_shape), "seg.in"))
    for s in range(1, stages + 1):
        parts = [conv_transpose_reference(x, w[f"seg.up{s}.w"])]
        if 4 - s >= 1:
            skip = taps[min(4 - s, len(taps)) - 1].reshape(tap_shape)
            skip = gelu(pointwise(skip, f"seg.skip{s}.proj"))
            for j in range(s):
                skip = conv_transpose_reference(skip, w[f"seg.skip{s}.up{j}.w"])
            parts.append(skip)
        if s == stages:
            parts.append(np.moveaxis(volume.data, 0, -1))
        x = gelu(pointwise(np.concatenate(parts, axis=-1), f"seg.fuse{s}"))
    return pointwise(x, "seg.head")


def dice_ce_reference(logits, labels, weight_dice=0.5, smooth=1e-5):
    """Numpy copy of the composite Dice+CE graph the fused op replaced:
    a shifted log-softmax through exp, sum and log, a second softmax, one-hot
    products and the reciprocal as exp(-log(t)), differentiated node by node
    in reverse. Returns (loss, gradient with respect to the logits)."""
    k = logits.shape[-1]
    z = logits.reshape(-1, k)
    v = z.shape[0]
    onehot = np.zeros((v, k))
    onehot[np.arange(v), labels.reshape(-1)] = 1.0

    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(s)
    ce = -(log_probs * onehot).sum(axis=-1).mean()
    probs = np.exp(shifted) / s
    num = 2.0 * (probs * onehot).sum(axis=0) + smooth
    den = probs.sum(axis=0) + onehot.sum(axis=0) + smooth
    recip = np.exp(-np.log(den))
    loss = (1.0 - (num * recip).mean()) * weight_dice + ce * (1.0 - weight_dice)

    g_dice = np.full(k, -weight_dice / k)
    g_den = -(g_dice * num) * recip / den
    g_probs = 2.0 * (g_dice * recip) * onehot + g_den
    g_z = probs * (g_probs - (g_probs * probs).sum(axis=-1, keepdims=True))
    g_log_probs = onehot * (-(1.0 - weight_dice) / v)
    g_z += g_log_probs - e * (g_log_probs.sum(axis=-1, keepdims=True) / s)
    return loss, g_z.reshape(logits.shape)
