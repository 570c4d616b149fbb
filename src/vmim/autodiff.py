"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is a flat tape: every differentiable operation appends one node
to the active :class:`Graph`, and :func:`backward` walks the tape once in
reverse creation order. Kernels are numpy; reductions keep numpy's fixed
row-major order, so identical graphs on identical inputs are bitwise
reproducible. Tensors are immutable (their buffers are marked read-only)
and safe to share across threads; a Graph belongs to one training step.

A node is recorded only when a Graph is active and some operand requires
grad, and :func:`apply` decides this before the kernel runs. Everything
else, which is all of inference, runs unrecorded: the op keeps no VJP
context, and an op that registers an unrecorded forward (``layernorm``,
``gelu``, ``mlp``) works in place on buffers it allocated itself, never on
an operand. Both modes give bitwise-equal outputs.

Besides elementwise, layout and mean primitives, the registry holds one
dense kernel, ``linear`` (x @ w, plus a bias when given), one affine layer
norm, ``layernorm(x, g, b)``, fused kernels that make each model layer one
node, and one kernel per training loss: ``recon`` (masked reconstruction),
``dice_ce`` and ``ntxent``. Each is one tape node with a closed-form VJP.
The fused kernels keep only what their VJP cannot rebuild in one pass:

- ``attention(x, g, b, wq, bq, wk, wv, bv)``: multi-head scaled dot-product
  self-attention of the pre-normed rows layernorm(x, g, b), with the q,
  k and v projections (k has no bias, which the softmax would cancel). It
  runs its heads in cache-sized groups and keeps the layernorm output,
  each row's log-sum-exp and its output, not the normed rows, heads or
  probabilities, which its VJP recomputes.
- ``mlp(x, w1, b1, w2, b2)``: dense, GELU, dense; ``mlp(x, g, b, w1, b1,
  w2, b2)`` is the same after that pre-norm, keeping the layernorm output,
  not the normed rows. It works in cache-sized row blocks, never writes
  its GELU output in full and keeps no pre-activation. The plain form
  keeps its GELU CDF; the pre-norm form, the transformer MLP, recomputes
  that too in its VJP, so it keeps nothing of its hidden width.
- ``gelu(x, w, b)``: GELU(x @ w + b), keeping its operands and CDF, not
  the pre-activation.

Forward and VJP, the pre-norm rounds as a ``layernorm`` node, ``gelu``'s
dense layer as a ``linear`` node, and an ``mlp`` call that fits in one row
block as ``linear``, ``gelu`` and ``linear`` nodes. ``gelu`` and ``mlp``
share one GELU kernel, which evaluates the normal CDF itself from Cody's
rational approximations of erf and erfc, so numpy is the engine's only
dependency.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Callable, Iterable, Sequence

import numpy as np

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
    """Immutable dense float64 array, optionally tracked on a graph. ``x @ w``
    is a ``linear`` node with no bias: w is 2-D, x any rank >= 1."""

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

    def __mul__(self, other: "Tensor") -> "Tensor":
        return apply("mul", (self, other))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return apply("linear", (self, other))

    def scale(self, factor: float) -> "Tensor":
        return apply("mul", (self, Tensor(float(factor))))

    def reshape(self, shape: Sequence[int]) -> "Tensor":
        return apply("reshape", (self,), {"shape": tuple(shape)})

    def permute(self, axes: Sequence[int]) -> "Tensor":
        return apply("permute", (self,), {"axes": tuple(axes)})

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
    __slots__ = ("kind", "counts", "forward", "vjp", "run")

    def __init__(self, kind, counts, forward, vjp, run):
        self.kind = kind
        self.counts = counts
        self.forward = forward
        self.vjp = vjp
        self.run = run


_REGISTRY: dict[str, _Op] = {}


def _register(kind: str, operands: int | tuple[int, ...] | range, forward: Callable,
              vjp: Callable, run: Callable | None = None) -> None:
    """Register an op kind.

    operands is the number of operands the kind takes, or the numbers it
    takes as a tuple, or as a range for a kind with no limit; apply raises
    ShapeMismatchError, naming the kind, for any other count before the
    kernel runs.
    forward(arrays, attrs) returns (output, VJP context) for a recorded node,
    and vjp(context, g) one gradient per operand, as many as the node had.
    run(arrays, attrs), when given, returns the output alone for a node that
    will not be recorded; it keeps no context and may overwrite buffers it
    allocates itself, never an operand. Its output must equal forward's
    bitwise; ``layernorm``, ``gelu`` and ``mlp`` register one. Without run,
    the unrecorded path calls forward and drops the context.
    """
    if run is None:
        def run(arrays, attrs):
            return forward(arrays, attrs)[0]
    counts = (operands,) if isinstance(operands, int) else operands
    _REGISTRY[kind] = _Op(kind, counts, forward, vjp, run)


def _expected_counts(counts) -> str:
    if isinstance(counts, range):
        return f"at least {counts.start}"
    return " or ".join(str(n) for n in counts)


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


def _fwd_mul(arrays, attrs):
    a, b = arrays
    _check_broadcast("mul", a, b)
    return a * b, (a, b)


def _vjp_mul(ctx, g):
    a, b = ctx
    return (_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape))


# -- linear --

def _check_linear(kind, x, w, b=None):
    if w.ndim != 2 or x.shape[-1:] != w.shape[:1]:
        raise _shape_error(kind, f"input {x.shape} incompatible with weight {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise _shape_error(kind, f"bias {b.shape} incompatible with weight {w.shape}")


def _fwd_linear(arrays, attrs):
    # x @ w, plus b when given, as (rows, out): one GEMM over every leading
    # axis (x @ w on a >2-D x would run one small GEMM per row of the
    # leading axes), the bias added in place.
    x, w, *b = arrays
    _check_linear("linear", x, w, *b)
    out = x.reshape(-1, x.shape[-1]) @ w
    if b:
        out += b[0]
    return out.reshape(x.shape[:-1] + (w.shape[1],)), (x, w, bool(b))


def _vjp_linear(ctx, g):
    x, w, biased = ctx
    x2 = x.reshape(-1, x.shape[-1])
    g2 = g.reshape(-1, g.shape[-1])
    gx = (g2 @ w.T).reshape(x.shape)
    gw = x2.T @ g2
    return (gx, gw, g2.sum(axis=0)) if biased else (gx, gw)


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
    distinct = idx.size == 0 or np.bincount(idx).max() == 1
    return a[idx], (a.shape, idx, distinct)


def _vjp_gather_rows(ctx, g):
    # Into zeros, a fancy-index += over distinct rows writes np.add.at's
    # bytes (0.0 + -0.0 is 0.0 either way) without np.add.at's slow path;
    # repeated rows need np.add.at to accumulate.
    shape, idx, distinct = ctx
    out = np.zeros(shape)
    if distinct:
        out[idx] += g
    else:
        np.add.at(out, idx, g)
    return (out,)


# -- normalization --

# Added to each row's variance by every layer norm.
_EPS = 1e-6


def _check_norm(kind, x, g, b):
    for name, p in (("g", g), ("b", b)):
        if p.shape != x.shape[-1:]:
            raise _shape_error(kind, f"norm {name} {p.shape} incompatible with x {x.shape}")


def _affine(norm, out=None):
    # y = d * g + b from a layer norm's context (d, inv, g, b), by the mul
    # and add nodes' own ufunc calls, the add in place; into out when given.
    d, _, g, b = norm
    y = np.multiply(d, g, out=out)
    y += b
    return y


def _layernorm(arrays, record):
    # y = d * g + b over the last axis, d = (x - mean) * inv. Each row's
    # variance reduces its own contiguous squares, so squaring a block of
    # rows at a time gives them with a block-sized temporary. A recorded node
    # keeps (d, inv, g, b), not y; an unrecorded one writes y over d.
    x, g, b = arrays
    _check_norm("layernorm", x, g, b)
    mu = x.mean(axis=-1, keepdims=True)
    d = x - mu
    var = np.empty_like(mu)
    width = x.shape[-1]
    rows, var_rows = d.reshape(mu.size, width), var.reshape(mu.size, 1)
    for block in _row_blocks(rows.shape[0], width, _BLOCK):
        sq = rows[block] * rows[block]
        var_rows[block] = sq.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _EPS)
    d *= inv
    norm = (d, inv, g, b)
    return _affine(norm, None if record else d), (norm if record else None)


def _fwd_layernorm(arrays, attrs):
    return _layernorm(arrays, record=True)


def _run_layernorm(arrays, attrs):
    return _layernorm(arrays, record=False)[0]


def _vjp_layernorm(ctx, gy):
    # (gx, gg, gb) from y's gradient: the add, mul and norm VJPs in turn.
    d, inv, g, b = ctx
    gd = gy * g
    gm = gd.mean(axis=-1, keepdims=True)
    gdm = (gd * d).mean(axis=-1, keepdims=True)
    return inv * (gd - gm - d * gdm), _unbroadcast(gy * d, g.shape), _unbroadcast(gy, b.shape)


# -- fused model kernels --

def _check_attention(arrays, heads):
    x, gamma, beta, wq, bq, wk, wv, bv = arrays
    if x.ndim != 2:
        raise _shape_error("attention", f"x must be (N, C), got {x.shape}")
    _check_norm("attention", x, gamma, beta)
    for name, w, b in (("q", wq, bq), ("k", wk, None), ("v", wv, bv)):
        if w.ndim != 2 or w.shape[0] != x.shape[1]:
            raise _shape_error("attention", f"x {x.shape} incompatible with w{name} {w.shape}")
        if w.shape != wq.shape:
            raise _shape_error("attention", f"w{name} {w.shape} differs from wq {wq.shape}")
        if b is not None and b.shape != (w.shape[1],):
            raise _shape_error(
                "attention", f"b{name} {b.shape} incompatible with w{name} {w.shape}"
            )
    if heads < 1 or wq.shape[1] % heads:
        raise _shape_error("attention", f"dim {wq.shape[1]} does not split into {heads} heads")


def _attention_heads(x, wq, bq, wk, wv, bv, heads, spare):
    # x @ wq + bq, x @ wk and x @ wv + bv by linear's own calls (no key
    # bias, which the softmax cancels), copied out by heads with ``spare``
    # extra columns or rows: q~ = q / sqrt(d) as (H, N, d + spare) and k
    # transposed as (H, d + spare, N). The forward (no spare) takes v as
    # (H, N, d) for P v; the VJP (one spare) multiplies only by v^T and
    # takes it as (H, d + 1, N). The spare rows of k and v are ones, and
    # the VJP writes -L into q~'s spare column.
    n, d = x.shape[0], wq.shape[1] // heads

    def project(w, b, scale, transposed):
        p = x @ w
        if b is not None:
            p += b
        if transposed:
            t = np.empty((heads, d + spare, n))
            t[:, d:] = 1.0
            dst, axes = t[:, :d], (1, 2, 0)
        else:
            t = np.empty((heads, n, d + spare))
            dst, axes = t[..., :d], (1, 0, 2)
        np.multiply(p.reshape(n, heads, d).transpose(axes), scale, out=dst)
        return t

    q = project(wq, bq, 1.0 / np.sqrt(d), False)
    return q, project(wk, None, 1.0, True), project(wv, bv, 1.0, spare > 0)


def _head_groups(heads, n):
    # Slices of heads whose (N, N) scores together fill at most one block, at
    # least one head each, and the largest group's size.
    return _row_blocks(heads, n * n, _BLOCK), min(heads, _rows_per_block(n * n, _BLOCK))


def _fwd_attention(arrays, attrs):
    # Multi-head scaled dot-product self-attention of the pre-normed rows y
    # = layernorm(x) * g + b, with the q, k and v projections inside the op,
    # after FlashAttention-2 (Dao, arXiv 2307.08691). Per group of heads: S
    # = q~ k^T, its row max m, S -= m, exp, the row sums l and O = P v, then
    # O /= l over (N, d), not P over (N, N). The context keeps the norm's
    # (d, inv, g, b), the projection parameters, each row's log-sum-exp L =
    # m + log l as (H, N, 1), and the output, which the next linear node
    # holds anyway: no y, heads or probabilities.
    heads = attrs["num_heads"]
    _check_attention(arrays, heads)
    x, g, b, *weights = arrays
    y, norm = _fwd_layernorm((x, g, b), attrs)
    q, k, v = _attention_heads(y, *weights, heads, spare=0)
    n, d = q.shape[1:]
    lse = np.empty((heads, n, 1))
    out = np.empty((n, heads, d))
    groups, size = _head_groups(heads, n)
    buf = np.empty((size, n, n))
    for hs in groups:
        s, o = buf[: hs.stop - hs.start], out[:, hs].transpose(1, 0, 2)
        np.matmul(q[hs], k[hs], out=s)
        s.max(axis=-1, keepdims=True, out=lse[hs])
        s -= lse[hs]
        np.exp(s, out=s)
        total = s.sum(axis=-1, keepdims=True)
        np.matmul(s, v[hs], out=o)
        o /= total
        lse[hs] += np.log(total)
    out = out.reshape(n, heads * d)
    return out, (*norm, *weights, lse, out)


def _vjp_attention(ctx, g):
    # y rebuilt from the norm's context, and the heads from y by the
    # forward's call, with -L in q~'s spare column, so that P = exp([q~ |
    # -L] @ [k^T ; 1]) <= 1 takes one GEMM and one pass. The softmax term D
    # = rowsum(dO * O) comes from the (N, d) output, and -D rides in the
    # same way: [dO | -D] @ [v^T ; 1] = dP - D, so dS = P * (dP - D) is one
    # multiply. Then dv = P^T dO, dq = dS k / sqrt(d) and dk = dS^T q~, the
    # projections' gradients by linear's VJP, with y's summed v, k, q, and
    # the norm's by the layernorm VJP.
    *norm, wq, bq, wk, wv, bv, lse, out = ctx
    y = _affine(norm)
    heads = lse.shape[0]
    q, k, v = _attention_heads(y, wq, bq, wk, wv, bv, heads, spare=1)
    n, d = q.shape[1], q.shape[2] - 1
    np.negative(lse[..., 0], out=q[..., d])
    go = np.empty((heads, n, d + 1))
    go[..., :d] = g.reshape(n, heads, d).transpose(1, 0, 2)
    np.negative((g * out).reshape(n, heads, d).sum(axis=-1).T, out=go[..., d])
    gq, gk, gv = (np.empty((n, heads, d)) for _ in range(3))
    groups, size = _head_groups(heads, n)
    p, ds = np.empty((size, n, n)), np.empty((size, n, n))
    for hs in groups:
        pg, dsg = p[: hs.stop - hs.start], ds[: hs.stop - hs.start]
        np.matmul(q[hs], k[hs], out=pg)
        np.exp(pg, out=pg)
        np.matmul(pg.transpose(0, 2, 1), go[hs, :, :d], out=gv[:, hs].transpose(1, 0, 2))
        np.matmul(go[hs], v[hs], out=dsg)
        dsg *= pg
        np.matmul(dsg, k[hs, :d].transpose(0, 2, 1), out=gq[:, hs].transpose(1, 0, 2))
        np.matmul(dsg.transpose(0, 2, 1), q[hs, :, :d], out=gk[:, hs].transpose(1, 0, 2))
    gq *= 1.0 / np.sqrt(d)
    merge = (n, heads * d)
    gy, gwv, gbv = _vjp_linear((y, wv, True), gv.reshape(merge))
    gy_k, gwk = _vjp_linear((y, wk, False), gk.reshape(merge))
    gy += gy_k
    gy_q, gwq, gbq = _vjp_linear((y, wq, True), gq.reshape(merge))
    gy += gy_q
    return (*_vjp_layernorm(norm, gy), gwq, gbq, gwk, gwv, gbv)


# Elements per block of the GELU chains, of layernorm's squares and of an
# attention head group's scores: each block's passes run while it is still
# in cache, and temporaries such as the GELU VJP's pdf stay one block.
_BLOCK = 16384


def _rows_per_block(width: int, block: int) -> int:
    return max(1, block // max(width, 1))


def _row_blocks(rows: int, width: int, block: int):
    # Slices of whole rows of about ``block`` elements each, at least one row.
    step = _rows_per_block(width, block)
    return (slice(i, min(i + step, rows)) for i in range(0, rows, step))


# The normal CDF Phi(a) = (1 + erf(a / sqrt 2)) / 2 from W. J. Cody's rational
# Chebyshev forms for erf and erfc (Math. Comp. 23, 1969), with the
# coefficients of Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1,
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 < x < 8. Each table lists the highest
# power first; U and Q are monic and leave out that leading 1.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# For |a| <= sqrt 2, Phi(a) - 1/2 = erf(a / sqrt 2) / 2 = a N(t) / D(t) in
# t = a^2: scaling T and U to t multiplies coefficient i by a power of two,
# which is exact, and the 1 / sqrt 2 left over goes into N.
_CDF_N = tuple(c * 2.0**i * _INV_SQRT2 for i, c in enumerate(_ERF_T))
_CDF_D = tuple(c * 2.0 ** (i + 1) for i, c in enumerate(_ERF_U))
# erfc(u) / 2 for u = |a| / sqrt 2 > 1, as P(u) / (Q(u) exp(u^2)) with the
# half in P. P / Q is evaluated at min(u, 8), the end of its range: beyond
# it Phi(-|a|) < 1e-29, and an infinite a gives a finite ratio over inf.
_TAIL_P = tuple(0.5 * c for c in _ERFC_P)
_TAIL_U_MAX = 8.0


def _polevl(x, coeffs, out):
    # out = coeffs[0] x^n + ... + coeffs[n] by Horner's rule.
    np.multiply(x, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= x
    out += coeffs[-1]
    return out


def _p1evl(x, coeffs, out):
    # The same for a leading coefficient of 1 that coeffs leaves out.
    np.add(x, coeffs[0], out=out)
    for c in coeffs[1:]:
        out *= x
        out += c
    return out


def _normal_cdf(a, out, t, d):
    # Writes Phi(a) for one flat block into out; t and d are scratch of a's
    # size, and out must not be a. Every element takes the |a| <= sqrt 2
    # form over the whole block; the larger ones, found once, are then
    # overwritten from the erfc form evaluated on them alone. For a < 0 that
    # form gives Phi(a) = erfc(|a| / sqrt 2) / 2 directly, with no 1 - erf
    # cancellation. Both forms see only a^2 or |a| and apply the sign last,
    # so Phi(a) and Phi(-a) come from the same values. NaN stays NaN: it
    # fails the t > 2 test and keeps the first form.
    np.multiply(a, a, out=t)
    _polevl(t, _CDF_N, out)
    _p1evl(t, _CDF_D, d)
    out /= d
    out *= a
    out += 0.5
    big = np.flatnonzero(t > 2.0)
    if big.size:
        a_big = a[big]
        u = np.abs(a_big)
        u *= _INV_SQRT2
        e = u * u
        np.exp(e, out=e)
        np.minimum(u, _TAIL_U_MAX, out=u)
        h = np.empty_like(u)
        e *= _p1evl(u, _ERFC_Q, h)
        _polevl(u, _TAIL_P, h)
        h /= e
        # erfc / 2 is Phi(-|a|): Phi(a) is 1 - h for a > 0 and h for a < 0.
        np.subtract(a_big > 0, h, out=h)
        np.abs(h, out=h)
        out[big] = h
    return out


def _gelu(a, out, cdf=None):
    # Writes gelu(a) = a * Phi(a) into out, which may be a itself, as in
    # mlp's blocks: each block reads a before it writes out. A node that
    # keeps its CDF for the VJP, which then needs only exp for the pdf,
    # passes a full-size cdf, and the pre-norm mlp's VJP passes a block's to
    # recompute it; without cdf the CDF goes to a single block-sized buffer.
    # The |a| <= sqrt 2 form overflows to inf / inf beyond |a| of about
    # 1e61, where the erfc form replaces it, so those warnings are silenced.
    flat_a, flat_out = a.reshape(-1), out.reshape(-1)
    size = min(flat_a.size, _BLOCK)
    t, d = np.empty(size), np.empty(size)
    if cdf is None:
        scratch = np.empty(size)
    else:
        flat_cdf = cdf.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _row_blocks(flat_a.size, 1, _BLOCK):
            x = flat_a[block]
            n = x.size
            c = scratch[:n] if cdf is None else flat_cdf[block]
            _normal_cdf(x, c, t[:n], d[:n])
            np.multiply(x, c, out=flat_out[block])


def _gelu_grad(a, cdf, g):
    # g * (cdf + a * pdf) with pdf = exp(-a^2 / 2) / sqrt(2 pi). A node's VJP
    # runs once, so the gradient overwrites the CDF in place.
    flat_a, flat_g, ga = a.reshape(-1), g.reshape(-1), cdf.reshape(-1)
    for block in _row_blocks(ga.size, 1, _BLOCK):
        p = flat_a[block] * flat_a[block]
        p *= -0.5
        np.exp(p, out=p)
        p *= _INV_SQRT_2PI
        p *= flat_a[block]
        ga[block] += p
        ga[block] *= flat_g[block]
    return cdf


def _gelu_layer(arrays, record):
    # GELU(x @ w + b): the pre-activation by linear's own call, GELU in place
    # over it, so the output rounds as a linear then a GELU. A recorded node
    # keeps (x, w, b) and the CDF, not the pre-activation, which its VJP
    # recomputes with the same call; an unrecorded one works in a single
    # block-sized CDF buffer.
    _check_linear("gelu", *arrays)
    out, _ = _fwd_linear(arrays, {})
    cdf = np.empty_like(out) if record else None
    _gelu(out, out, cdf)
    return out, ((*arrays, cdf) if record else None)


def _fwd_gelu(arrays, attrs):
    return _gelu_layer(arrays, record=True)


def _run_gelu(arrays, attrs):
    return _gelu_layer(arrays, record=False)[0]


def _vjp_gelu(ctx, g):
    x, w, b, cdf = ctx
    pre, _ = _fwd_linear((x, w, b), {})
    return _vjp_linear((x, w, True), _gelu_grad(pre, cdf, g))


# Hidden elements per row block of mlp (512 KB): a block's pre-activation,
# CDF and GELU output stay in cache from the first GEMM to the second. The
# transformer MLPs of the default model fit in one block.
_MLP_BLOCK = 65536


def _check_mlp(x, w1, b1, w2, b2):
    _check_linear("mlp", x, w1, b1)
    hidden = w1.shape[1]
    if w2.ndim != 2 or not (0 < w2.shape[0] <= hidden and hidden % w2.shape[0] == 0):
        raise _shape_error(
            "mlp",
            f"hidden width {hidden} of weight {w1.shape} is not a multiple of the rows "
            f"of weight {w2.shape}",
        )
    if b2.shape != (w2.shape[1],):
        raise _shape_error("mlp", f"bias {b2.shape} incompatible with weight {w2.shape}")


def _mlp_blocks(x2, w1, w2):
    # (x rows, output rows) of each row block: each x row gives H/h output rows.
    per_row = w1.shape[1] // w2.shape[0]
    for rows in _row_blocks(x2.shape[0], w1.shape[1], _MLP_BLOCK):
        yield rows, slice(rows.start * per_row, rows.stop * per_row)


def _mlp_buffer(x2, w1):
    # Room for the hidden units of the largest row block _mlp_blocks yields.
    return np.empty((min(x2.shape[0], _rows_per_block(w1.shape[1], _MLP_BLOCK)), w1.shape[1]))


def _mlp_pre(x2, w1, b1, rows, out):
    # One row block's pre-activation x @ w1 + b1, written into out. The
    # forward and the VJP both call this, so the VJP's recomputed block is
    # bitwise the forward's.
    np.matmul(x2[rows], w1, out=out)
    out += b1


def _mlp(arrays, keep_cdf):
    # gelu(x @ w1 + b1).reshape(-1, h) @ w2 + b2 with w2 of shape (h, K), one
    # row block at a time. Each block's pre-activation goes to a block-sized
    # buffer, and GELU runs in place over it. With keep_cdf the full CDF is
    # also returned, for a VJP that would rather keep it than recompute it;
    # otherwise the CDF too stays block-sized, and the call is the same
    # whether its node is recorded or not. The second GEMM is row-major,
    # the same call as linear's, so a one-block call rounds as linear, gelu
    # and linear on any BLAS. Split into blocks it differs from the
    # whole-array product by about 1e-16 relative; the class-major
    # w2.T @ act.T, bitwise equal to it on some BLAS builds, was no faster.
    x, w1, b1, w2, b2 = arrays
    _check_mlp(x, w1, b1, w2, b2)
    x2 = x.reshape(-1, x.shape[-1])
    n, hidden = x2.shape[0], w1.shape[1]
    h, k = w2.shape
    out = np.empty((n * hidden // h, k))
    cdf = np.empty((n, hidden)) if keep_cdf else None
    pre_buf = _mlp_buffer(x2, w1)
    for rows, cols in _mlp_blocks(x2, w1, w2):
        pre = pre_buf[: rows.stop - rows.start]
        _mlp_pre(x2, w1, b1, rows, pre)
        _gelu(pre, pre, cdf[rows] if keep_cdf else None)
        np.matmul(pre.reshape(-1, h), w2, out=out[cols])
        out[cols] += b2
    return out, cdf


def _mlp_input(arrays, attrs):
    # The dense layers' operands (x, w1, b1, w2, b2), and None or, for the
    # pre-norm form (x, g, b, w1, b1, w2, b2), the norm's context, with x
    # replaced by the pre-normed rows.
    if len(arrays) == 5:
        return arrays, None
    x, g, b, *dense = arrays
    _check_norm("mlp", x, g, b)
    _check_mlp(x, *dense)
    y, norm = _fwd_layernorm((x, g, b), attrs)
    return (y, *dense), norm


def _fwd_mlp(arrays, attrs):
    # The plain form keeps (x, w1, b1, w2, cdf): its large user is the
    # segmenter's full-resolution tail, whose CDF is much of a fine-tuning
    # step's time, so recomputing it there would cost more than it saves.
    # The pre-norm form, the transformer MLP, keeps (d, inv, g, b, w1, b1,
    # w2): its VJP recomputes the CDF too, so the node holds nothing of the
    # hidden width.
    dense, norm = _mlp_input(arrays, attrs)
    out, cdf = _mlp(dense, keep_cdf=norm is None)
    return out, ((*dense[:4], cdf) if norm is None else (*norm, *dense[1:4]))


def _run_mlp(arrays, attrs):
    return _mlp(_mlp_input(arrays, attrs)[0], keep_cdf=False)[0]


def _vjp_mlp(ctx, g):
    # The plain form's context is (x, w1, b1, w2, cdf). The pre-norm form
    # rebuilds its rows y from the norm's context, runs the dense layers'
    # VJP on them with no CDF, then the norm's.
    if len(ctx) == 5:
        return _vjp_dense_mlp(*ctx, g)
    *norm, w1, b1, w2 = ctx
    gy, *grads = _vjp_dense_mlp(_affine(norm), w1, b1, w2, None, g)
    return (*_vjp_layernorm(norm, gy), *grads)


def _vjp_dense_mlp(x, w1, b1, w2, cdf, g):
    # Per row block: the pre-activation recomputed into a block-sized buffer
    # by the forward's own call; the GELU output as pre * cdf, with the
    # block's CDF taken from cdf or, when cdf is None, recomputed by the
    # forward's _gelu into a block-sized buffer (both bitwise what the
    # forward had); the second layer's gradients, the GELU gradient in place
    # over the CDF, then the first layer's. The first block assigns each
    # weight gradient, so a one-block call rounds as linear, gelu and linear.
    x2 = x.reshape(-1, x.shape[-1])
    h = w2.shape[0]
    gx = np.empty_like(x2)
    pre_buf = _mlp_buffer(x2, w1)
    cdf_buf = _mlp_buffer(x2, w1) if cdf is None else None
    grads = [None] * 4
    for rows, cols in _mlp_blocks(x2, w1, w2):
        pre, g_out = pre_buf[: rows.stop - rows.start], g[cols]
        _mlp_pre(x2, w1, b1, rows, pre)
        if cdf is None:
            c, act = cdf_buf[: len(pre)], np.empty_like(pre)
            _gelu(pre, act, c)
        else:
            c = cdf[rows]
            act = pre * c
        act = act.reshape(-1, h)
        g_act = (g_out @ w2.T).reshape(pre.shape)
        g_pre = _gelu_grad(pre, c, g_act)
        np.matmul(g_pre, w1.T, out=gx[rows])
        parts = (x2[rows].T @ g_pre, g_pre.sum(axis=0), act.T @ g_out, g_out.sum(axis=0))
        for i, part in enumerate(parts):
            if grads[i] is None:
                grads[i] = part
            else:
                grads[i] += part
    return (gx.reshape(x.shape), *grads)


# -- reduction --

def _norm_axis(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    axis = tuple(a % ndim if -ndim <= a < ndim else a for a in axis)
    if any(not 0 <= a < ndim for a in axis):
        raise _shape_error("mean", f"axis {axis} invalid for rank {ndim}")
    return axis


def _fwd_mean(arrays, attrs):
    (a,) = arrays
    axis = _norm_axis(attrs.get("axis"), a.ndim)
    keepdims = attrs.get("keepdims", False)
    count = int(np.prod([a.shape[i] for i in axis])) if axis else 1
    return a.mean(axis=axis, keepdims=keepdims), (a.shape, axis, keepdims, 1.0 / count)


def _vjp_mean(ctx, g):
    shape, axis, keepdims, factor = ctx
    if not keepdims:
        for ax in sorted(axis):
            g = np.expand_dims(g, ax)
    return (np.broadcast_to(g * factor, shape).copy(),)


# -- loss kernels --

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


def _fwd_recon(arrays, attrs):
    # Mean |r| (l1) or r^2 (l2) of the residuals r = pred - target over the
    # rows ``ids``, distinct as a mask's are. The target is an attr, so it
    # is neither copied nor given a gradient.
    (pred,) = arrays
    target, ids, norm = np.asarray(attrs["target"]), np.asarray(attrs["ids"]), attrs["norm"]
    if target.shape != pred.shape:
        raise ValueError(f"pred shape {pred.shape} != target shape {target.shape}")
    if norm not in ("l1", "l2"):
        raise ValueError(f"norm must be 'l1' or 'l2', got {norm!r}")
    if ids.size == 0:
        raise ValueError("no masked patches to reconstruct")
    if ids.ndim != 1 or np.unique(ids).size != ids.size or ids.min() < 0 or ids.max() >= len(pred):
        raise ValueError(f"masked row ids must be distinct and lie in [0, {len(pred)})")
    r = pred[ids] - target[ids]
    per = np.abs(r) if norm == "l1" else r * r
    return per.mean(axis=tuple(range(per.ndim))), (pred.shape, ids, norm, r)


def _vjp_recon(ctx, g):
    # Rounded as the gather, subtract, abs or square, and mean chain this op
    # replaced: g / count times sign(r), or twice g / count times r (the
    # square's two equal terms summed), added into the masked rows of zeros.
    shape, ids, norm, r = ctx
    scaled = g * (1.0 / r.size)
    out = np.zeros(shape)
    out[ids] += scaled * np.sign(r) if norm == "l1" else 2.0 * (scaled * r)
    return (out,)


def _fwd_ntxent(arrays, attrs):
    # NT-Xent (SimCLR, Chen et al., arXiv 2002.05709) over 2B projections z,
    # rows i and i + B positives. Each row is normalised, u = z / |z| with
    # |z| clamped at 1e-12, and with S = u u^T / tau row i's loss is the
    # log-sum-exp of S_ij over j != i minus S_i,pos(i); the loss is the mean
    # over rows. The self-similarity is left out exactly (-inf on the
    # diagonal), and the context keeps u, |z| and the softmax P.
    (z,) = arrays
    tau = attrs["temperature"]
    n = z.shape[0] if z.ndim == 2 else 0
    if n % 2 or n < 4:
        raise ValueError(f"need an even number >= 4 of embedding rows, got shape {z.shape}")
    if not tau > 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    norm = np.maximum(np.sqrt((z * z).sum(axis=-1, keepdims=True)), 1e-12)
    u = z / norm
    s = u @ u.T
    s *= 1.0 / tau
    np.fill_diagonal(s, -np.inf)
    top = s.max(axis=-1, keepdims=True)
    p = np.exp(s - top)
    total = p.sum(axis=-1, keepdims=True)
    pos = (np.arange(n) + n // 2) % n
    loss = (top[:, 0] + np.log(total[:, 0]) - s[np.arange(n), pos]).mean()
    p /= total
    return np.asarray(loss), (u, norm, p, pos, tau)


def _vjp_ntxent(ctx, g):
    # dS = g (P - Y) / 2B for the positive indicator Y, dU = (dS + dS^T) u /
    # tau and dz = (dU - u rowsum(dU * u)) / |z|. P is overwritten in place.
    u, norm, ds, pos, tau = ctx
    n = u.shape[0]
    ds[np.arange(n), pos] -= 1.0
    ds *= g / n
    du = (ds + ds.T) @ u
    du *= 1.0 / tau
    du -= u * (du * u).sum(axis=-1, keepdims=True)
    du /= norm
    return (du,)


_register("add", 2, _fwd_add, _vjp_add)
_register("mul", 2, _fwd_mul, _vjp_mul)
_register("linear", (2, 3), _fwd_linear, _vjp_linear)
_register("reshape", 1, _fwd_reshape, _vjp_reshape)
_register("permute", 1, _fwd_permute, _vjp_permute)
_register("concat", range(1, sys.maxsize), _fwd_concat, _vjp_concat)
_register("gather_rows", 1, _fwd_gather_rows, _vjp_gather_rows)
_register("layernorm", 3, _fwd_layernorm, _vjp_layernorm, _run_layernorm)
_register("attention", 8, _fwd_attention, _vjp_attention)
_register("gelu", 3, _fwd_gelu, _vjp_gelu, _run_gelu)
_register("mlp", (5, 7), _fwd_mlp, _vjp_mlp, _run_mlp)
_register("mean", 1, _fwd_mean, _vjp_mean)
_register("dice_ce", 1, _fwd_dice_ce, _vjp_dice_ce)
_register("recon", 1, _fwd_recon, _vjp_recon)
_register("ntxent", 1, _fwd_ntxent, _vjp_ntxent)


def apply(kind: str, operands: Sequence[Tensor], attrs: dict | None = None) -> Tensor:
    """Run one registered operation, recording it when a graph is active.

    Whether the node will be recorded is decided before the kernel runs: a
    Graph context is open and some operand requires grad. A recorded node
    keeps its VJP context on the tape. An unrecorded one runs the op's
    unrecorded forward, which keeps no context and may work in place on
    buffers the kernel allocated itself; its output is bitwise equal to the
    recorded one. Operands are never mutated in either mode.
    """
    op = _REGISTRY.get(kind)
    if op is None:
        raise UnknownOpError(f"unknown op kind {kind!r}")
    n = len(operands)
    if n not in op.counts:
        raise _shape_error(kind, f"operand count {n}, expected {_expected_counts(op.counts)}")
    arrays = [t.data for t in operands]
    attrs = attrs or {}
    requires = any(t.requires_grad for t in operands)
    graph = _active_graph() if requires else None
    if graph is None:
        return Tensor._wrap(op.run(arrays, attrs), requires)
    out_arr, ctx = op.forward(arrays, attrs)
    out = Tensor._wrap(out_arr, True)
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
    touched get zero tensors of their own shape. Each node's VJP context is
    released as soon as its VJP has run, so the tape shrinks as the pass
    goes; the whole tape is freed afterwards and cannot be reused.
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
        node.ctx = None
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
