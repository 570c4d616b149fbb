"""Shared probe functions for gradient checks, and numpy references of model
parts, across test modules."""

import math
import tracemalloc
from typing import Callable

import numpy as np

from vmim import autodiff
from vmim.autodiff import Graph, NonFiniteError, Tensor, apply, backward
from vmim.train import TrainConfig, finetune, pretrain

DIFFERENTIABLE_PROBES = {
    "add": lambda t, aux: mean_all(t + aux["b"]),
    "mul": lambda t, aux: mean_all(t * aux["b"]),
    "matmul": lambda t, aux: mean_all(t @ aux["m"]),
    "linear": lambda t, aux: mean_all(apply("linear", (t, aux["w"], aux["bias"]))),
    "reshape": lambda t, aux: mean_all(t.reshape((20,)) * aux["v20"]),
    "permute": lambda t, aux: mean_all(t.permute((1, 0)) * aux["b_t"]),
    "concat": lambda t, aux: mean_all(
        apply("concat", (t, aux["b"]), {"axis": 0}) * aux["cat_w"]
    ),
    "gather_rows": lambda t, aux: mean_all(
        apply("gather_rows", (t,), {"indices": np.array([3, 1, 1, 0])}) * aux["g_w"]
    ),
    "layernorm": lambda t, aux: mean_all(
        apply("layernorm", (t, aux["ln_g"], aux["ln_b"])) * aux["b"]
    ),
    # The input is the rows x; INPUT_PROBES check each operand alone.
    "attention": lambda t, aux: mean_all(
        apply("attention", (t, *_attention_params(aux)), {"num_heads": 1}) * aux["b"]
    ),
    "gelu": lambda t, aux: mean_all(apply("gelu", (t, aux["w"], aux["bias"])) * aux["gelu_w"]),
    # The hidden width 6 splits into 3 rows of h = 2 per input row.
    "mlp": lambda t, aux: mean_all(
        apply("mlp", (t, aux["w1"], aux["b1"], aux["w2"], aux["b2"])) * aux["mlp_w"]
    ),
    # The same after an affine layer norm of the rows.
    "mlp.ln": lambda t, aux: mean_all(
        apply("mlp", (t, aux["ln_g"], aux["ln_b"], aux["w1"], aux["b1"], aux["w2"], aux["b2"]))
        * aux["mlp_w"]
    ),
    "mean": lambda t, aux: mean_all(apply("mean", (t,)) * aux["v5"]),
    # Four voxels of five classes: class 2 is absent from the labels. The
    # scale gives the op an upstream gradient other than 1, as in the loss
    # probes below.
    "dice_ce": lambda t, aux: apply(
        "dice_ce", (t,), {"labels": np.array([4, 0, 1, 3]), "weight_dice": 0.5, "smooth": 1e-5}
    ).scale(1.7),
    # Rows 0, 2 and 3 of the four are masked.
    "recon.l1": lambda t, aux: _recon(t, "l1"),
    "recon.l2": lambda t, aux: _recon(t, "l2"),
    # Four unnormalised rows: B = 2 pairs.
    "ntxent": lambda t, aux: apply("ntxent", (t,), {"temperature": 0.5}).scale(1.7),
}


# The reconstruction probes' target: -1.0, -0.9, ..., 0.9 as (4, 5).
_RECON_TARGET = np.arange(-10.0, 10.0).reshape(4, 5) / 10.0


def _recon(t, norm):
    attrs = {"target": _RECON_TARGET, "ids": np.array([0, 2, 3]), "norm": norm}
    return apply("recon", (t,), attrs).scale(1.7)


# Probes of one form of an op, named after the form -> the op they call.
# ``@`` is a linear with no bias.
PROBE_OPS = {"matmul": "linear", "mlp.ln": "mlp", "recon.l1": "recon", "recon.l2": "recon"}


def probe_op(kind):
    """The op kind that the DIFFERENTIABLE_PROBES entry ``kind`` checks."""
    return PROBE_OPS.get(kind, kind)


def probe_aux(rng):
    return {
        "b": Tensor(rng.normal(size=(4, 5))),
        "b_t": Tensor(rng.normal(size=(5, 4))),
        "m": Tensor(rng.normal(size=(5, 3))),
        "w": Tensor(rng.normal(size=(5, 2))),
        "bias": Tensor(rng.normal(size=(2,))),
        "v20": Tensor(rng.normal(size=(20,))),
        "v5": Tensor(rng.normal(size=(5,))),
        "cat_w": Tensor(rng.normal(size=(8, 5))),
        "g_w": Tensor(rng.normal(size=(4, 5))),
        **_side_normals(
            rng, w1=(5, 6), b1=(6,), w2=(2, 3), b2=(3,), mlp_w=(12, 3), **_attention_shapes(5),
            gelu_w=(4, 2), ln_g=(5,), ln_b=(5,),
        ),
    }


def _side_normals(rng, **shapes):
    # Drawn from a jumped-ahead copy of rng's stream, so rng itself draws
    # nothing and every other probe's inputs stay as they were before these
    # entries existed.
    side = np.random.Generator(rng.bit_generator.jumped())
    return {name: Tensor(side.normal(size=shape)) for name, shape in shapes.items()}


_ATTENTION_OPERANDS = ("x", "g", "b", "wq", "bq", "wk", "wv", "bv")


def _attention_shapes(dim):
    # The norm's affine and the q, k and v projection parameters of an
    # attention over width dim.
    return {f"att_{name}": (dim, dim) if name[0] == "w" else (dim,)
            for name in _ATTENTION_OPERANDS[1:]}


def _attention_params(aux):
    return tuple(aux[f"att_{name}"] for name in _ATTENTION_OPERANDS[1:])


def _operand_probes(form, kind, operands, x_key, weight, prefix="", attrs=None):
    """INPUT_PROBES entries ``form.<operand>``, each differentiating one
    operand of ``kind`` at its input shape; ``operands`` are (name, shape)
    pairs, x first. The other operands are aux[x_key] and aux[prefix +
    name], and the output is weighted by aux[weight]."""
    keys = [x_key] + [prefix + name for name, _ in operands[1:]]

    def probe_of(i):
        def probe(t, aux):
            args = [t if j == i else aux[key] for j, key in enumerate(keys)]
            return mean_all(apply(kind, tuple(args), attrs) * aux[weight])

        return probe

    return {f"{form}.{name}": (probe_of(i), shape) for i, (name, shape) in enumerate(operands)}


_MLP_SHAPES = [("w1", (5, 6)), ("b1", (6,)), ("w2", (2, 3)), ("b2", (3,))]

# Probes of one operand at a time, or of a channel-last input: the probes
# above differentiate only their (4, 5) input. name -> (probe, input shape).
INPUT_PROBES = {
    "linear": (
        lambda t, aux: mean_all(apply("linear", (t, aux["w"], aux["bias"])) * aux["lin_w"]),
        (2, 3, 2, 5),
    ),
    # The weight of a linear with no bias, on a channel-last input.
    "linear.w": (lambda t, aux: mean_all((aux["lin_x"] @ t) * aux["lin_w"]), (5, 2)),
    **_operand_probes(
        "attention", "attention",
        list(zip(_ATTENTION_OPERANDS, [(6, 4), *_attention_shapes(4).values()])),
        "att_x", "att_w", prefix="att_", attrs={"num_heads": 2},
    ),
    **_operand_probes("mlp", "mlp", [("x", (2, 3, 2, 5)), *_MLP_SHAPES], "mlp_x", "mlp_x_w"),
    **_operand_probes(
        "mlp.ln", "mlp", [("x", (2, 3, 2, 5)), ("ln_g", (5,)), ("ln_b", (5,)), *_MLP_SHAPES],
        "mlp_x", "mlp_x_w",
    ),
    **_operand_probes(
        "gelu", "gelu", [("x", (2, 3, 2, 5)), ("w", (5, 2)), ("bias", (2,))], "lin_x", "lin_w"
    ),
    **_operand_probes(
        "layernorm", "layernorm", [("x", (2, 3, 2, 5)), ("ln_g", (5,)), ("ln_b", (5,))],
        "lin_x", "ln_x_w",
    ),
}


def input_probe_aux(rng):
    return {
        **probe_aux(rng),
        "lin_w": Tensor(rng.normal(size=(2, 3, 2, 2))),
        # Width 4 in two heads, in place of probe_aux's width-5 attention.
        **{name: Tensor(rng.normal(size=(6, 4))) for name in ("att_x", "att_w")},
        **{name: Tensor(rng.normal(size=(4, 4))) for name in ("att_wq", "att_wk", "att_wv")},
        **_side_normals(rng, mlp_x=(2, 3, 2, 5), mlp_x_w=(36, 3), att_bq=(4,), att_bv=(4,),
                        lin_x=(2, 3, 2, 5), att_g=(4,), att_b=(4,), ln_x_w=(2, 3, 2, 5)),
    }


def probe_input(kind, rng):
    x = rng.uniform(-2.0, 2.0, size=(4, 5))
    if kind == "recon.l1":
        # Residuals at least 0.1 from the kink of |r|.
        x = x + np.sign(x - _RECON_TARGET) * 0.1
    return x


def finite_diff_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor | np.ndarray,
    h: float = 1e-5,
    max_probes: int | None = 32,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Probes every coordinate when max_probes is None or at least the input
    size, otherwise a seeded sample of max_probes coordinates; max_probes
    below 1 raises ValueError, since zero probes would check nothing. The
    relative error per coordinate is |analytic - numeric| / max(1, |analytic|).
    """
    if not 0.0 < h <= 1e-2:
        raise ValueError(f"step h must lie in (0, 1e-2], got {h}")
    if max_probes is not None and max_probes < 1:
        raise ValueError(f"max_probes must be at least 1 or None, got {max_probes}")
    base = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64)

    with Graph() as graph:
        xt = Tensor(base, requires_grad=True)
        graph.watch(xt)
        y = f(xt)
    if y.size != 1:
        raise ValueError(f"f must be scalar-valued, got shape {y.shape}")
    if not np.isfinite(y.data).all():
        raise NonFiniteError("f(x) is not finite")
    analytic = backward(graph, y)[xt.node_id].data.reshape(-1)

    flat = base.reshape(-1)
    n = flat.size
    if max_probes is None or n <= max_probes:
        coords = range(n)
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        coords = rng.choice(n, size=max_probes, replace=False)

    worst = 0.0
    for i in coords:
        bumped = flat.copy()
        bumped[i] += h
        hi = f(Tensor(bumped.reshape(base.shape))).item()
        bumped[i] -= 2 * h
        lo = f(Tensor(bumped.reshape(base.shape))).item()
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NonFiniteError("f(x) is not finite at a probe point")
        numeric = (hi - lo) / (2 * h)
        err = abs(analytic[i] - numeric) / max(1.0, abs(analytic[i]))
        worst = max(worst, err)
    return worst


def mean_all(t):
    """The mean of every entry of t, shape (1, 1): the one ``mean`` form,
    the row mean, over t's entries as a column."""
    return apply("mean", (t.reshape((t.size, 1)),))


def weighted_total(y, g):
    """sum(y * g) as a (1, 1) ``linear`` node over y's flat rows: the
    gradient it sends to y is exactly the array g."""
    return y.reshape((1, y.size)) @ Tensor(np.reshape(g, (-1, 1)))


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


def pretrain_step_peak(method, vit_cfg, volumes, window, out_dir):
    """Peak bytes that a pretrain() of one step, on a batch of all of
    ``volumes``, allocates under tracemalloc; the heads take their
    defaults."""
    cfg = TrainConfig(batch_size=len(volumes), warmup_epochs=0, total_epochs=1, window=window)
    _, peak = traced_peak(lambda: pretrain(method, vit_cfg, cfg, volumes, out_dir))
    return peak


def _owners(ctx):
    """The arrays in a VJP context, each as the array that owns its memory:
    a view stands for its base."""
    if isinstance(ctx, np.ndarray):
        while isinstance(ctx.base, np.ndarray):
            ctx = ctx.base
        yield ctx
    elif isinstance(ctx, (tuple, list)):
        for part in ctx:
            yield from _owners(part)


def context_arrays(graph):
    """The distinct arrays that own the memory of what the nodes of
    ``graph`` hold as VJP context."""
    return list({id(a): a for node in graph.nodes for a in _owners(node.ctx)}.values())


def retained_bytes(graph):
    """Bytes of the arrays that the nodes of ``graph`` hold as VJP context.
    A view counts once, as the whole array that owns its memory."""
    return sum(a.nbytes for a in context_arrays(graph))


def retained_by_kind(graph):
    """Bytes of VJP context per op kind, each owning array counted once,
    under the kind of the first node that holds it; the values sum to
    ``retained_bytes(graph)``."""
    seen, by_kind = set(), {}
    for node in graph.nodes:
        for a in _owners(node.ctx):
            if id(a) not in seen:
                seen.add(id(a))
                by_kind[node.kind] = by_kind.get(node.kind, 0) + a.nbytes
    return by_kind


def layernorm_reference(x, ln_g, ln_b):
    """Numpy affine layer norm ``d * ln_g + ln_b`` over the last axis, with
    the two-pass d = (x - mean) * inv, inv = 1 / sqrt(var + 1e-6), and its
    VJP: returns (y, vjp), where vjp(gy) gives (gx, g_ln_g, g_ln_b)."""
    d = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((d * d).mean(axis=-1, keepdims=True) + 1e-6)
    d = d * inv

    def vjp(gy):
        gd = gy * ln_g
        gx = inv * (gd - gd.mean(axis=-1, keepdims=True)
                    - d * (gd * d).mean(axis=-1, keepdims=True))
        lead = tuple(range(x.ndim - 1))
        return gx, (gy * d).sum(axis=lead), gy.sum(axis=lead)

    return d * ln_g + ln_b, vjp


def attention_reference(x, params, num_heads, g, bk=None):
    """Numpy copy of the unfused graph the ``attention`` op replaced, the
    tolerance reference for the op: the pre-norm y = layernorm(x) * ln_g +
    ln_b, the q, k and v projections ``y @ w + b`` of the op's ``params =
    (ln_g, ln_b, wq, bq, wk, wv, bv)`` and a key bias ``bk`` (zeros when
    None), the heads, scores scaled by 1/sqrt(d), a max-subtracted softmax
    normalised over (N, N), matmul and the merge, differentiated node by
    node in reverse for the upstream gradient ``g``, with the softmax term
    rowsum(dP * P) over (N, N). The op has no key bias, which the softmax
    cancels, folds the scale into q, keeps a log-sum-exp and takes the
    softmax term from its output, so the two agree within a tolerance, not
    bitwise. Returns (out, (gx, g_ln_g, g_ln_b, gwq, gbq, gwk, gwv, gbv));
    the key bias's gradient is analytically zero."""
    n = x.shape[0]
    ln_g, ln_b, wq, bq, wk, wv, bv = params
    y, norm_vjp = layernorm_reference(x, ln_g, ln_b)
    dim = wq.shape[1]
    d = dim // num_heads
    weights_biases = [(wq, bq), (wk, np.zeros(dim) if bk is None else bk), (wv, bv)]
    q, k, v = (y @ w + b for w, b in weights_biases)

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
    merged = [np.transpose(a, (1, 0, 2)).reshape(n, dim) for a in (g_qh, g_kh, g_vh)]
    linear = [(gp @ w.T, y.T @ gp, gp.sum(axis=0)) for (w, _), gp in zip(weights_biases, merged)]
    (gy_q, *grads_q), (gy_k, gwk, _), (gy_v, *grads_v) = linear
    return out, (*norm_vjp((gy_v + gy_k) + gy_q), *grads_q, gwk, *grads_v)


def normal_cdf(a):
    """The program's normal CDF, the one its GELU kernel uses, elementwise
    over an array of any shape."""
    flat = np.array(a, dtype=np.float64).reshape(-1)
    out = np.empty_like(flat)
    with np.errstate(over="ignore", invalid="ignore"):
        autodiff._normal_cdf(flat, out, np.empty_like(flat), np.empty_like(flat))
    return out.reshape(np.shape(a))


def linear_gelu_reference(x, w, b, g):
    """Numpy copy of the ``gelu(linear(x, w, b))`` graph, differentiated in
    reverse for the upstream gradient ``g``. Returns (out, (gx, gw, gb))."""
    x2 = x.reshape(-1, x.shape[-1])
    a = x2 @ w + b
    cdf = normal_cdf(a)
    out = (a * cdf).reshape(x.shape[:-1] + (w.shape[1],))

    pdf = np.exp((a * a) * -0.5) * (1.0 / np.sqrt(2.0 * np.pi))
    ga = (pdf * a + cdf) * g.reshape(a.shape)
    return out, ((ga @ w.T).reshape(x.shape), x2.T @ ga, ga.sum(axis=0))


def mlp_reference(x, w1, b1, w2, b2, g, norm=None):
    """Numpy copy of ``linear(gelu(linear(x, w1, b1)).reshape(-1, h), w2, b2)``
    with w2 of shape (h, K), as whole arrays, differentiated in reverse for
    the upstream gradient ``g``. With ``norm = (ln_g, ln_b)`` the rows are
    first layer-normed and scaled, ``layernorm(x) * ln_g + ln_b``. Returns
    (out, (gx, [g_ln_g, g_ln_b,] gw1, gb1, gw2, gb2))."""
    if norm is not None:
        y, norm_vjp = layernorm_reference(x, *norm)
        out, (gy, *grads) = mlp_reference(y, w1, b1, w2, b2, g)
        return out, (*norm_vjp(gy), *grads)
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
        return a * normal_cdf(a)

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


def recon_reference(pred, target, ids, norm, g=1.0):
    """Numpy copy of the graph the ``recon`` op replaced: gather the masked
    rows of pred and target, subtract, abs (l1) or square (l2) and mean,
    differentiated node by node in reverse for the upstream gradient ``g``.
    Returns (loss, gradient with respect to pred)."""
    r = pred[ids] - target[ids]
    per = np.abs(r) if norm == "l1" else r * r
    loss = per.mean(axis=tuple(range(per.ndim)))
    g_per = np.broadcast_to(np.asarray(g) * (1.0 / per.size), per.shape).copy()
    g_r = g_per * np.sign(r) if norm == "l1" else g_per * r + g_per * r
    grad = np.zeros(pred.shape)
    np.add.at(grad, ids, g_r)
    return loss, grad


def ntxent_reference(z, tau, g=1.0):
    """Numpy copy of the graph the ``ntxent`` op replaced: normalised rows
    (norms clamped at 1e-12), their similarities over tau, -1e9 added on the
    diagonal, a max-shifted log-softmax, the positives picked by an
    indicator product, the row sums, their mean and the sign, differentiated
    node by node in reverse for the upstream gradient ``g``. Returns (loss,
    gradient with respect to z)."""
    n = z.shape[0]
    b = n // 2
    norm = np.maximum(np.sqrt((z * z).sum(axis=-1, keepdims=True)), 1e-12)
    y = z / norm
    logits = (y @ y.T) * (1.0 / tau) + np.diag(np.full(n, -1e9))
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(s)
    pos = np.zeros((n, n))
    pos[np.arange(b), np.arange(b) + b] = 1.0
    pos[np.arange(b) + b, np.arange(b)] = 1.0
    loss = -(log_probs * pos).sum(axis=-1).mean()

    g_log_probs = np.full((n, n), -np.asarray(g) / n) * pos
    g_logits = g_log_probs - e * (g_log_probs.sum(axis=-1, keepdims=True) / s)
    g_sim = g_logits * (1.0 / tau)
    g_y = g_sim @ y + g_sim.T @ y
    return loss, (g_y - y * (g_y * y).sum(axis=-1, keepdims=True)) / norm
