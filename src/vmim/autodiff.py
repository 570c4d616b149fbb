"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is a flat tape: every differentiable operation appends one node
to the active :class:`Graph`, and :func:`backward` walks the tape once in
reverse creation order. Kernels are numpy; reductions keep numpy's fixed
row-major order, so identical graphs on identical inputs are bitwise
reproducible. Tensors are immutable (their buffers are marked read-only)
and safe to share across threads; a Graph belongs to one training step.

Outside a ``with Graph():`` block every operation is a pure forward
computation with no recording overhead, which is what inference uses.

Besides elementwise, layout and reduction primitives, the registry holds
fused kernels for the chains the models run most: ``attention`` (multi-head
scaled dot-product attention), ``linear_gelu`` (a dense layer and GELU),
``dice_ce`` and ``log_softmax``. Each is one tape node with a closed-form
VJP. ``gelu`` and ``linear_gelu`` share one GELU kernel, so a ``linear``
followed by ``gelu`` is bitwise equal to ``linear_gelu``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "Graph",
    "apply",
    "backward",
    "finite_diff_check",
    "ShapeMismatchError",
    "UnknownOpError",
    "GraphError",
    "NonFiniteError",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class ShapeMismatchError(ValueError):
    """Operand shapes do not conform to the op's rule."""


class UnknownOpError(ValueError):
    """Op kind is not in the registry."""


class GraphError(RuntimeError):
    """Misuse of the tape (non-scalar loss, foreign loss, reuse after free)."""


class NonFiniteError(FloatingPointError):
    """A value that must be finite is not: a loss, a gradient, a probe."""


def _as_contiguous_f64(arr: Any) -> np.ndarray:
    # np.ascontiguousarray would promote 0-d arrays to 1-d; avoid that.
    out = np.asarray(arr, dtype=np.float64)
    if not out.flags.c_contiguous:
        out = out.copy(order="C")
    return out


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = _as_contiguous_f64(arr)
    if out is arr or out.base is arr:
        out = out.copy()
    out.flags.writeable = False
    return out


class Tensor:
    """Immutable dense float64 array, optionally tracked on a graph."""

    __slots__ = ("data", "requires_grad", "node_id", "_tape")

    def __init__(self, data: Any, requires_grad: bool = False):
        self.data = _freeze(np.asarray(data, dtype=np.float64))
        self.requires_grad = bool(requires_grad)
        self.node_id: int | None = None
        self._tape: "Graph | None" = None

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool = False) -> "Tensor":
        # Internal fast path: takes ownership of a freshly allocated array.
        t = cls.__new__(cls)
        arr = _as_contiguous_f64(arr)
        arr.flags.writeable = False
        t.data = arr
        t.requires_grad = requires_grad
        t.node_id = None
        t._tape = None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"

    # Operator sugar; everything routes through apply().
    def __add__(self, other: "Tensor") -> "Tensor":
        return apply("add", (self, other))

    def __sub__(self, other: "Tensor") -> "Tensor":
        return apply("sub", (self, other))

    def __mul__(self, other: "Tensor") -> "Tensor":
        return apply("mul", (self, other))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return apply("matmul", (self, other))

    def scale(self, factor: float) -> "Tensor":
        return apply("scale", (self,), {"factor": float(factor)})

    def reshape(self, shape: Sequence[int]) -> "Tensor":
        return apply("reshape", (self,), {"shape": tuple(shape)})

    def permute(self, axes: Sequence[int]) -> "Tensor":
        return apply("permute", (self,), {"axes": tuple(axes)})

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply("sum", (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply("mean", (self,), {"axis": axis, "keepdims": keepdims})


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

class _Node:
    __slots__ = ("kind", "input_ids", "ctx", "shape", "is_leaf")

    def __init__(self, kind, input_ids, ctx, shape, is_leaf):
        self.kind = kind
        self.input_ids = input_ids
        self.ctx = ctx
        self.shape = shape
        self.is_leaf = is_leaf


_tls = threading.local()


def _active_graph() -> "Graph | None":
    return getattr(_tls, "graph", None)


class Graph:
    """Append-only tape of operations for one forward pass.

    Use as a context manager; apply() records into the innermost active
    graph. A graph is consumed by backward() and cannot be reused.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._consumed = False

    def __enter__(self) -> "Graph":
        if _active_graph() is not None:
            raise GraphError("a graph is already active on this thread")
        _tls.graph = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _tls.graph = None

    def watch(self, tensor: Tensor) -> None:
        """Register a leaf now, guaranteeing it a (possibly zero) gradient."""
        if not tensor.requires_grad:
            raise GraphError("watch() requires a tensor with requires_grad")
        self._ensure_leaf(tensor)

    def watch_all(self, tensors: Iterable[Tensor]) -> None:
        for t in tensors:
            self.watch(t)

    def _ensure_leaf(self, tensor: Tensor) -> int:
        if tensor._tape is self and tensor.node_id is not None:
            return tensor.node_id
        node_id = len(self.nodes)
        self.nodes.append(_Node("leaf", (), None, tensor.shape, True))
        tensor.node_id = node_id
        tensor._tape = self
        return node_id

    def _record(self, kind, input_ids, ctx, out: Tensor) -> None:
        out.node_id = len(self.nodes)
        out._tape = self
        self.nodes.append(_Node(kind, tuple(input_ids), ctx, out.shape, False))


# ---------------------------------------------------------------------------
# Op registry
# ---------------------------------------------------------------------------

class _Op:
    __slots__ = ("kind", "forward", "vjp")

    def __init__(self, kind, forward, vjp):
        self.kind = kind
        self.forward = forward
        self.vjp = vjp


_REGISTRY: dict[str, _Op] = {}


def _register(kind: str, forward: Callable, vjp: Callable) -> None:
    _REGISTRY[kind] = _Op(kind, forward, vjp)


def _shape_error(kind: str, detail: str) -> ShapeMismatchError:
    return ShapeMismatchError(f"{kind}: {detail}")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(kind, a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise _shape_error(kind, f"shapes {a.shape} and {b.shape} do not broadcast") from None


# -- elementwise arithmetic --

def _fwd_add(arrays, attrs):
    a, b = arrays
    _check_broadcast("add", a, b)
    return a + b, (a.shape, b.shape)


def _vjp_add(ctx, g):
    sa, sb = ctx
    return (_unbroadcast(g, sa), _unbroadcast(g, sb))


def _fwd_sub(arrays, attrs):
    a, b = arrays
    _check_broadcast("sub", a, b)
    return a - b, (a.shape, b.shape)


def _vjp_sub(ctx, g):
    sa, sb = ctx
    return (_unbroadcast(g, sa), _unbroadcast(-g, sb))


def _fwd_mul(arrays, attrs):
    a, b = arrays
    _check_broadcast("mul", a, b)
    return a * b, (a, b)


def _vjp_mul(ctx, g):
    a, b = ctx
    return (_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape))


def _fwd_scale(arrays, attrs):
    (a,) = arrays
    return a * attrs["factor"], attrs["factor"]


def _vjp_scale(ctx, g):
    return (g * ctx,)


# -- matmul / linear --

def _fwd_matmul(arrays, attrs):
    a, b = arrays
    if a.ndim < 2 or b.ndim < 2:
        raise _shape_error("matmul", f"operands must be >=2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise _shape_error("matmul", f"inner dims differ: {a.shape} vs {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise _shape_error("matmul", f"batch dims differ: {a.shape} vs {b.shape}") from None
    return np.matmul(a, b), (a, b)


def _vjp_matmul(ctx, g):
    a, b = ctx
    ga = np.matmul(g, np.swapaxes(b, -1, -2))
    gb = np.matmul(np.swapaxes(a, -1, -2), g)
    return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))


def _check_linear(kind, x, w, b):
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise _shape_error(kind, f"input {x.shape} incompatible with weight {w.shape}")
    if b.shape != (w.shape[1],):
        raise _shape_error(kind, f"bias {b.shape} incompatible with weight {w.shape}")


def _fwd_linear(arrays, attrs):
    x, w, b = arrays
    _check_linear("linear", x, w, b)
    # One GEMM over every leading axis; x @ w on a >2-D x would run one
    # small GEMM per row of the leading axes.
    out = x.reshape(-1, x.shape[-1]) @ w + b
    return out.reshape(x.shape[:-1] + (w.shape[1],)), (x, w)


def _vjp_linear(ctx, g):
    x, w = ctx
    x2 = x.reshape(-1, x.shape[-1])
    g2 = g.reshape(-1, g.shape[-1])
    gx = (g2 @ w.T).reshape(x.shape)
    gw = x2.T @ g2
    gb = g2.sum(axis=0)
    return (gx, gw, gb)


# -- layout --

def _fwd_reshape(arrays, attrs):
    (a,) = arrays
    shape = attrs["shape"]
    if int(np.prod(shape)) != a.size:
        raise _shape_error("reshape", f"cannot reshape {a.shape} to {shape}")
    return a.reshape(shape), a.shape


def _vjp_reshape(ctx, g):
    return (g.reshape(ctx),)


def _fwd_permute(arrays, attrs):
    (a,) = arrays
    axes = attrs["axes"]
    if sorted(axes) != list(range(a.ndim)):
        raise _shape_error("permute", f"axes {axes} are not a permutation for shape {a.shape}")
    return np.transpose(a, axes), axes


def _vjp_permute(ctx, g):
    inverse = tuple(np.argsort(ctx))
    return (np.transpose(g, inverse),)


def _fwd_concat(arrays, attrs):
    axis = attrs.get("axis", 0)
    first = arrays[0]
    for a in arrays[1:]:
        if a.ndim != first.ndim:
            raise _shape_error("concat", f"rank mismatch: {first.shape} vs {a.shape}")
        for i in range(first.ndim):
            if i != axis % first.ndim and a.shape[i] != first.shape[i]:
                raise _shape_error("concat", f"off-axis extents differ: {first.shape} vs {a.shape}")
    out = np.concatenate(arrays, axis=axis)
    sizes = [a.shape[axis % first.ndim] for a in arrays]
    return out, (axis % first.ndim, sizes)


def _vjp_concat(ctx, g):
    axis, sizes = ctx
    offsets = np.cumsum(sizes)[:-1]
    return tuple(np.ascontiguousarray(p) for p in np.split(g, offsets, axis=axis))


def _fwd_gather_rows(arrays, attrs):
    (a,) = arrays
    idx = np.asarray(attrs["indices"], dtype=np.int64)
    if idx.ndim != 1:
        raise _shape_error("gather_rows", f"indices must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise _shape_error("gather_rows", f"index out of range for {a.shape[0]} rows")
    return a[idx], (a.shape, idx)


def _vjp_gather_rows(ctx, g):
    shape, idx = ctx
    out = np.zeros(shape)
    np.add.at(out, idx, g)
    return (out,)


def _fwd_scatter_rows(arrays, attrs):
    (a,) = arrays
    idx = np.asarray(attrs["indices"], dtype=np.int64)
    total = int(attrs["total"])
    if idx.ndim != 1 or idx.shape[0] != a.shape[0]:
        raise _shape_error("scatter_rows", f"{a.shape[0]} rows but {idx.shape} indices")
    if idx.size and (idx.min() < 0 or idx.max() >= total or np.unique(idx).size != idx.size):
        raise _shape_error("scatter_rows", f"indices must be unique and within [0, {total})")
    out = np.zeros((total,) + a.shape[1:])
    out[idx] = a
    return out, idx


def _vjp_scatter_rows(ctx, g):
    return (g[ctx],)


# -- normalization --

def _fwd_layernorm(arrays, attrs):
    (a,) = arrays
    eps = attrs.get("eps", 1e-6)
    if eps <= 0:
        raise _shape_error("layernorm", f"eps must be positive, got {eps}")
    mu = a.mean(axis=-1, keepdims=True)
    var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (a - mu) * inv
    return y, (y, inv)


def _vjp_layernorm(ctx, g):
    y, inv = ctx
    gm = g.mean(axis=-1, keepdims=True)
    gym = (g * y).mean(axis=-1, keepdims=True)
    return (inv * (g - gm - y * gym),)


# -- fused model kernels --

def _fwd_attention(arrays, attrs):
    # Multi-head scaled dot-product attention of (N, dim) projections.
    # Heads are contiguous (H, N, d) copies (keys as (H, d, N)); the score
    # scale, max shift, exp and normalisation then run in place on one
    # (H, N, N) buffer, which the VJP reuses as the softmax output.
    q, k, v = arrays
    heads = attrs["num_heads"]
    if q.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise _shape_error(
            "attention", f"q, k, v must be equal (N, dim), got {q.shape}, {k.shape}, {v.shape}"
        )
    n, dim = q.shape
    if heads < 1 or dim % heads:
        raise _shape_error("attention", f"dim {dim} does not split into {heads} heads")
    d = dim // heads
    qh = q.reshape(n, heads, d).transpose(1, 0, 2).copy()
    kt = k.reshape(n, heads, d).transpose(1, 2, 0).copy()
    vh = v.reshape(n, heads, d).transpose(1, 0, 2).copy()
    scale = 1.0 / np.sqrt(d)
    w = np.matmul(qh, kt)
    w *= scale
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    out = np.matmul(w, vh).transpose(1, 0, 2).reshape(n, dim)
    return out, (qh, kt, vh, w, scale)


def _vjp_attention(ctx, g):
    # Each matmul sees the operand layouts of the unfused graph (swapaxes
    # views, and g as (H, N, d) through a transpose), so gradients match it
    # bitwise.
    qh, kt, vh, w, scale = ctx
    heads, n, d = qh.shape
    gm = g.reshape(n, heads, d).transpose(1, 0, 2)
    gv = np.matmul(np.swapaxes(w, -1, -2), gm)
    gs = np.matmul(gm, np.swapaxes(vh, -1, -2))
    gs -= (gs * w).sum(axis=-1, keepdims=True)
    gs *= w
    gs *= scale
    gq = np.matmul(gs, np.swapaxes(kt, -1, -2))
    gk = np.matmul(np.swapaxes(qh, -1, -2), gs)
    merge = (n, heads * d)
    return (
        gq.transpose(1, 0, 2).reshape(merge),
        gk.transpose(2, 0, 1).reshape(merge),
        gv.transpose(1, 0, 2).reshape(merge),
    )


# Elements per block of the GELU chains: each block's passes run while it
# is still in cache, and the VJP's pdf temporary stays one block.
_GELU_BLOCK = 16384


def _blocks(size: int):
    return (slice(i, i + _GELU_BLOCK) for i in range(0, size, _GELU_BLOCK))


def _gelu(a):
    # gelu(a) = a * cdf(a), cdf(a) = (1 + erf(a/sqrt 2))/2. The CDF is kept
    # for the VJP, which then needs only exp for the pdf. scipy's erf is odd
    # bitwise (erf(-x) is -erf(x)); on |x| it skips a sign branch that
    # mixed-sign input mispredicts about half the time.
    cdf, out = np.empty_like(a), np.empty_like(a)
    flat_a, flat_cdf, flat_out = a.reshape(-1), cdf.reshape(-1), out.reshape(-1)
    for block in _blocks(flat_a.size):
        c = flat_cdf[block]
        np.multiply(flat_a[block], _INV_SQRT2, out=c)
        np.abs(c, out=c)
        erf(c, out=c)
        np.copysign(c, flat_a[block], out=c)
        c += 1.0
        c *= 0.5
        np.multiply(flat_a[block], c, out=flat_out[block])
    return out, cdf


def _gelu_grad(a, cdf, g):
    # g * (cdf + a * pdf) with pdf = exp(-a^2 / 2) / sqrt(2 pi). A node's VJP
    # runs once, so the gradient overwrites the CDF in place.
    flat_a, flat_g, ga = a.reshape(-1), g.reshape(-1), cdf.reshape(-1)
    for block in _blocks(ga.size):
        p = flat_a[block] * flat_a[block]
        p *= -0.5
        np.exp(p, out=p)
        p *= _INV_SQRT_2PI
        p *= flat_a[block]
        ga[block] += p
        ga[block] *= flat_g[block]
    return cdf


def _fwd_gelu(arrays, attrs):
    (a,) = arrays
    out, cdf = _gelu(a)
    return out, (a, cdf)


def _vjp_gelu(ctx, g):
    a, cdf = ctx
    return (_gelu_grad(a, cdf, g),)


def _fwd_linear_gelu(arrays, attrs):
    # gelu(x @ w + b): one GEMM, the bias added in place, then the GELU chain.
    x, w, b = arrays
    _check_linear("linear_gelu", x, w, b)
    a = x.reshape(-1, x.shape[-1]) @ w
    a += b
    out, cdf = _gelu(a)
    return out.reshape(x.shape[:-1] + (w.shape[1],)), (x, w, a, cdf)


def _vjp_linear_gelu(ctx, g):
    x, w, a, cdf = ctx
    return _vjp_linear((x, w), _gelu_grad(a, cdf, g.reshape(a.shape)))


# -- reductions --

def _norm_axis(axis, ndim, kind):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    axis = tuple(a % ndim if -ndim <= a < ndim else a for a in axis)
    if any(not 0 <= a < ndim for a in axis):
        raise _shape_error(kind, f"axis {axis} invalid for rank {ndim}")
    return axis


def _fwd_sum(arrays, attrs):
    (a,) = arrays
    axis = _norm_axis(attrs.get("axis"), a.ndim, "sum")
    keepdims = attrs.get("keepdims", False)
    return a.sum(axis=axis, keepdims=keepdims), (a.shape, axis, keepdims, 1.0)


def _fwd_mean(arrays, attrs):
    (a,) = arrays
    axis = _norm_axis(attrs.get("axis"), a.ndim, "mean")
    keepdims = attrs.get("keepdims", False)
    count = int(np.prod([a.shape[i] for i in axis])) if axis else 1
    return a.mean(axis=axis, keepdims=keepdims), (a.shape, axis, keepdims, 1.0 / count)


def _vjp_reduce(ctx, g):
    shape, axis, keepdims, factor = ctx
    if not keepdims:
        for ax in sorted(axis):
            g = np.expand_dims(g, ax)
    return (np.broadcast_to(g * factor, shape).copy(),)


# -- loss kernels --

def _fwd_abs(arrays, attrs):
    (a,) = arrays
    return np.abs(a), np.sign(a)


def _vjp_abs(ctx, g):
    return (g * ctx,)


def _fwd_log_softmax(arrays, attrs):
    # Over the last axis, with the row max as a constant shift.
    (a,) = arrays
    shifted = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=-1, keepdims=True)
    return shifted - np.log(s), (e, s)


def _vjp_log_softmax(ctx, g):
    # g - softmax * sum(g), rounded as e * (sum(g) / s): seeded SimCLR runs
    # reproduce the outputs of earlier versions bitwise only in this order.
    e, s = ctx
    return (g - e * (g.sum(axis=-1, keepdims=True) / s),)


def _dice_ce_attrs(z, attrs):
    labels = np.asarray(attrs["labels"])
    num_classes = z.shape[-1]
    if labels.shape != z.shape[:-1]:
        raise ValueError(f"labels shape {labels.shape} != logits spatial {z.shape[:-1]}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must have an integer dtype, got {labels.dtype}")
    if labels.size == 0:
        raise ValueError("labels must hold at least one voxel, got 0")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(
            f"label ids must lie in [0, {num_classes}), got range "
            f"[{int(labels.min())}, {int(labels.max())}]"
        )
    weight_dice = attrs["weight_dice"]
    if not 0.0 <= weight_dice <= 1.0:
        raise ValueError(f"weight_dice must lie in [0, 1], got {weight_dice}")
    smooth = attrs["smooth"]
    if not 0.0 < smooth < np.inf:
        raise ValueError(f"smooth must be positive and finite, got {smooth}")
    return labels.reshape(-1).astype(np.intp), float(weight_dice), float(smooth)


def _fwd_dice_ce(arrays, attrs):
    # w * (1 - mean_k soft Dice_k) + (1 - w) * mean_v CE on (..., K) logits.
    # Class-major: the logits are transposed once to (K, V), so the max, the
    # sum of exps and the per-class Dice sums run over contiguous length-V
    # rows and never reduce along the short class axis. Each voxel's own
    # class is read through the flat index label * V + voxel; no one-hot.
    (z,) = arrays
    labels, w, smooth = _dice_ce_attrs(z, attrs)
    k = z.shape[-1]
    v = labels.size
    x = z.reshape(v, k).T.copy()
    top = x[0].copy()
    for row in x[1:]:
        np.maximum(top, row, out=top)
    x -= top
    own = labels * v + np.arange(v)
    picked = x.ravel()[own]
    np.exp(x, out=x)
    total = x[0].copy()
    for row in x[1:]:
        total += row
    ce = (np.log(total) - picked).mean()
    x /= total
    inter = np.bincount(labels, weights=x.ravel()[own], minlength=k)
    den = x.sum(axis=1) + np.bincount(labels, minlength=k) + smooth
    dice = (2.0 * inter + smooth) / den
    loss = w * (1.0 - dice.mean()) + (1.0 - w) * ce
    # dLoss/dp[k, v] = a[k] + b[k] * y[k, v]; the CE term adds (1 - w)(p - y)/V.
    coef = w / k
    a = coef * (2.0 * inter + smooth) / (den * den)
    b = -2.0 * coef / den
    return np.asarray(loss), (x, labels, a, b, (1.0 - w) / v, z.shape)


def _vjp_dice_ce(ctx, g):
    # p * (gp - sum_k gp * p) + (1 - w)(p - y)/V, scaled by g, with
    # gp = a + b * y: rows hold a + ce_scale - c, and each voxel's own class
    # gets b * p_own - ce_scale on top.
    p, labels, a, b, ce_scale, shape = ctx
    v = labels.size
    own = labels * v + np.arange(v)
    own_term = b[labels] * p.ravel()[own]
    c = own_term.copy()
    for a_k, row in zip(a, p):
        c += a_k * row
    out = (a + ce_scale)[:, None] - c
    out *= p
    out.ravel()[own] += own_term - ce_scale
    out *= g
    return (out.T.reshape(shape),)


def _fwd_rownorm(arrays, attrs):
    (a,) = arrays
    norm = np.sqrt((a * a).sum(axis=-1, keepdims=True))
    norm = np.maximum(norm, 1e-12)
    y = a / norm
    return y, (y, norm)


def _vjp_rownorm(ctx, g):
    y, norm = ctx
    return ((g - y * (g * y).sum(axis=-1, keepdims=True)) / norm,)


_register("add", _fwd_add, _vjp_add)
_register("sub", _fwd_sub, _vjp_sub)
_register("mul", _fwd_mul, _vjp_mul)
_register("scale", _fwd_scale, _vjp_scale)
_register("matmul", _fwd_matmul, _vjp_matmul)
_register("linear", _fwd_linear, _vjp_linear)
_register("reshape", _fwd_reshape, _vjp_reshape)
_register("permute", _fwd_permute, _vjp_permute)
_register("concat", _fwd_concat, _vjp_concat)
_register("gather_rows", _fwd_gather_rows, _vjp_gather_rows)
_register("scatter_rows", _fwd_scatter_rows, _vjp_scatter_rows)
_register("layernorm", _fwd_layernorm, _vjp_layernorm)
_register("attention", _fwd_attention, _vjp_attention)
_register("gelu", _fwd_gelu, _vjp_gelu)
_register("linear_gelu", _fwd_linear_gelu, _vjp_linear_gelu)
_register("sum", _fwd_sum, _vjp_reduce)
_register("mean", _fwd_mean, _vjp_reduce)
_register("abs", _fwd_abs, _vjp_abs)
_register("log_softmax", _fwd_log_softmax, _vjp_log_softmax)
_register("dice_ce", _fwd_dice_ce, _vjp_dice_ce)
_register("rownorm", _fwd_rownorm, _vjp_rownorm)


def op_kinds() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def apply(kind: str, operands: Sequence[Tensor], attrs: dict | None = None) -> Tensor:
    """Run one registered operation, recording it when a graph is active.

    Operands are never mutated. A node is recorded only if some operand
    requires grad and a Graph context is open; otherwise this is a plain
    numpy computation.
    """
    op = _REGISTRY.get(kind)
    if op is None:
        raise UnknownOpError(f"unknown op kind {kind!r}")
    arrays = [t.data for t in operands]
    out_arr, ctx = op.forward(arrays, attrs or {})
    requires = any(t.requires_grad for t in operands)
    out = Tensor._wrap(out_arr, requires)
    graph = _active_graph()
    if requires and graph is not None:
        input_ids = []
        for t in operands:
            if t.requires_grad:
                input_ids.append(graph._ensure_leaf(t) if t._tape is not graph else t.node_id)
            else:
                input_ids.append(None)
        graph._record(kind, input_ids, ctx, out)
    return out


def backward(graph: Graph, loss: Tensor) -> dict[int, Tensor]:
    """Reverse pass over the tape; returns gradients for every leaf.

    The gradient map is keyed by leaf node id. Leaves the loss never
    touched get zero tensors of their own shape. The tape is freed
    afterwards and cannot be reused.
    """
    if graph._consumed:
        raise GraphError("graph was already consumed by backward()")
    if loss.size != 1:
        raise GraphError(f"loss must be scalar-shaped, got shape {loss.shape}")
    if loss._tape is not graph or loss.node_id is None:
        raise GraphError("loss tensor does not belong to this graph")
    if not np.isfinite(loss.data).all():
        raise NonFiniteError("loss is not finite")

    buffers: dict[int, np.ndarray] = {loss.node_id: np.ones(loss.shape)}
    leaf_grads: dict[int, Tensor] = {}
    for node_id in range(len(graph.nodes) - 1, -1, -1):
        node = graph.nodes[node_id]
        grad = buffers.pop(node_id, None)
        if node.is_leaf:
            if grad is None:
                grad = np.zeros(node.shape)
            leaf_grads[node_id] = Tensor._wrap(grad)
            continue
        if grad is None:
            continue
        contribs = _REGISTRY[node.kind].vjp(node.ctx, grad)
        for input_id, contrib in zip(node.input_ids, contribs):
            if input_id is None or contrib is None:
                continue
            held = buffers.get(input_id)
            buffers[input_id] = contrib if held is None else held + contrib
    graph.nodes.clear()
    graph._consumed = True
    return leaf_grads


def finite_diff_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor | np.ndarray,
    h: float = 1e-5,
    max_probes: int | None = 32,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Probes every coordinate when the input is small, otherwise a seeded
    sample of max_probes coordinates. The relative error per coordinate is
    |analytic - numeric| / max(1, |analytic|).
    """
    if not 0.0 < h <= 1e-2:
        raise ValueError(f"step h must lie in (0, 1e-2], got {h}")
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
