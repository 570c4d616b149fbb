"""Shared probe functions for gradient checks, and numpy references of model
parts, across test modules."""

import math
import tracemalloc

import numpy as np
from scipy.special import erf

from vmim.autodiff import Tensor, apply
from vmim.train import TrainConfig, finetune

DIFFERENTIABLE_PROBES = {
    "add": lambda t, aux: (t + aux["b"]).sum(),
    "sub": lambda t, aux: (t - aux["b"]).sum(),
    "mul": lambda t, aux: (t * aux["b"]).sum(),
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
    "layernorm": lambda t, aux: (
        apply("layernorm", (t,), {"eps": 1e-6}) * aux["b"]
    ).sum(),
    # The input is q, k and v at once; INPUT_PROBES check each operand alone.
    "attention": lambda t, aux: (
        apply("attention", (t, t, t), {"num_heads": 1}) * aux["b"]
    ).sum(),
    "gelu": lambda t, aux: apply("gelu", (t,)).sum(),
    # The hidden width 6 splits into 3 rows of h = 2 per input row.
    "mlp": lambda t, aux: (
        apply("mlp", (t, aux["w1"], aux["b1"], aux["w2"], aux["b2"])) * aux["mlp_w"]
    ).sum(),
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
        **_side_normals(rng, w1=(5, 6), b1=(6,), w2=(2, 3), b2=(3,), mlp_w=(12, 3)),
    }


def _side_normals(rng, **shapes):
    # Drawn from a jumped-ahead copy of rng's stream, so rng itself draws
    # nothing and every other probe's inputs stay as they were before these
    # entries existed.
    side = np.random.Generator(rng.bit_generator.jumped())
    return {name: Tensor(side.normal(size=shape)) for name, shape in shapes.items()}


def _attention_probe(operand):
    def probe(t, aux):
        qkv = [aux["q"], aux["k"], aux["v"]]
        qkv["qkv".index(operand)] = t
        return (apply("attention", tuple(qkv), {"num_heads": 2}) * aux["att_w"]).sum()

    return probe


_MLP_OPERANDS = ("x", "w1", "b1", "w2", "b2")


def _mlp_probe(operand):
    def probe(t, aux):
        args = [aux["mlp_x"], aux["w1"], aux["b1"], aux["w2"], aux["b2"]]
        args[_MLP_OPERANDS.index(operand)] = t
        return (apply("mlp", tuple(args)) * aux["mlp_x_w"]).sum()

    return probe


# Probes of one operand at a time, or of a channel-last input: the probes
# above differentiate only their (4, 5) input. name -> (probe, input shape).
INPUT_PROBES = {
    "linear": (
        lambda t, aux: (apply("linear", (t, aux["w"], aux["bias"])) * aux["lin_w"]).sum(),
        (2, 3, 2, 5),
    ),
    **{f"attention.{o}": (_attention_probe(o), (6, 4)) for o in "qkv"},
    **{
        f"mlp.{o}": (_mlp_probe(o), shape)
        for o, shape in zip(_MLP_OPERANDS, [(2, 3, 2, 5), (5, 6), (6,), (2, 3), (3,)])
    },
}


def input_probe_aux(rng):
    return {
        **probe_aux(rng),
        "lin_w": Tensor(rng.normal(size=(2, 3, 2, 2))),
        **{name: Tensor(rng.normal(size=(6, 4))) for name in ("q", "k", "v", "att_w")},
        **_side_normals(rng, mlp_x=(2, 3, 2, 5), mlp_x_w=(36, 3)),
    }


def probe_input(kind, rng):
    x = rng.uniform(-2.0, 2.0, size=(4, 5))
    if kind == "abs":
        x = x + np.sign(x) * 0.1
    return x


def traced_peak(f):
    """f's result and the peak bytes it allocated, under tracemalloc."""
    tracemalloc.start()
    try:
        out = f()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def finetune_step_peak(seg_cfg, pairs, window, out_dir):
    """Peak bytes that a from-scratch finetune() of one step, on a batch of
    all of ``pairs``, allocates under tracemalloc."""
    cfg = TrainConfig(batch_size=len(pairs), warmup_epochs=0, total_epochs=1, window=window)
    _, peak = traced_peak(lambda: finetune(None, seg_cfg, cfg, pairs, [], out_dir))
    return peak


def retained_bytes(graph):
    """Bytes of the distinct arrays that the nodes of ``graph`` hold as VJP
    context. A view counts once, as the whole array that owns its memory."""
    owners = {}

    def visit(item):
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            owners[id(item)] = item.nbytes
        elif isinstance(item, (tuple, list)):
            for part in item:
                visit(part)

    for node in graph.nodes:
        visit(node.ctx)
    return sum(owners.values())


def attention_reference(q, k, v, num_heads, g):
    """Numpy copy of the unfused attention graph the ``attention`` op
    replaced: reshape and permute copies of the heads and of k^T, matmul,
    scale, softmax, matmul and the merge, differentiated node by node in
    reverse for the upstream gradient ``g``. Returns (out, (gq, gk, gv))."""
    n, dim = q.shape
    d = dim // num_heads

    def heads(a):
        return a.reshape(n, num_heads, d).transpose(1, 0, 2).copy()

    qh, kh, vh = heads(q), heads(k), heads(v)
    kt = kh.transpose(0, 2, 1).copy()
    scale = 1.0 / math.sqrt(d)
    scores = np.matmul(qh, kt) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    out = np.matmul(weights, vh).transpose(1, 0, 2).copy().reshape(n, dim)

    g_mixed = g.reshape(n, num_heads, d).transpose(1, 0, 2)
    g_weights = np.matmul(g_mixed, np.swapaxes(vh, -1, -2))
    g_vh = np.matmul(np.swapaxes(weights, -1, -2), g_mixed)
    g_scores = weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True))
    g_scores = g_scores * scale
    g_qh = np.matmul(g_scores, np.swapaxes(kt, -1, -2))
    g_kt = np.matmul(np.swapaxes(qh, -1, -2), g_scores)
    g_kh = np.transpose(g_kt, (0, 2, 1))
    merge = [np.transpose(a, (1, 0, 2)).reshape(n, dim) for a in (g_qh, g_kh, g_vh)]
    return out, tuple(merge)


def linear_gelu_reference(x, w, b, g):
    """Numpy copy of the ``gelu(linear(x, w, b))`` graph, differentiated in
    reverse for the upstream gradient ``g``. Returns (out, (gx, gw, gb))."""
    x2 = x.reshape(-1, x.shape[-1])
    a = x2 @ w + b
    cdf = 0.5 * (1.0 + erf(a * (1.0 / np.sqrt(2.0))))
    out = (a * cdf).reshape(x.shape[:-1] + (w.shape[1],))

    pdf = np.exp((a * a) * -0.5) * (1.0 / np.sqrt(2.0 * np.pi))
    ga = (pdf * a + cdf) * g.reshape(a.shape)
    return out, ((ga @ w.T).reshape(x.shape), x2.T @ ga, ga.sum(axis=0))


def mlp_reference(x, w1, b1, w2, b2, g):
    """Numpy copy of ``linear(gelu(linear(x, w1, b1)).reshape(-1, h), w2, b2)``
    with w2 of shape (h, K), as whole arrays, differentiated in reverse for
    the upstream gradient ``g``. Returns (out, (gx, gw1, gb1, gw2, gb2))."""
    h = w2.shape[0]
    g_act = (g @ w2.T).reshape(-1, w1.shape[1])
    act, first = linear_gelu_reference(x, w1, b1, g_act)
    act = act.reshape(-1, h)
    return act @ w2 + b2, first + (act.T @ g, g.sum(axis=0))


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
