"""AdamW with decoupled weight decay and the warmup-cosine schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import NonFiniteError, Tensor


@dataclass
class OptState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def init(cls, params: dict[str, Tensor]) -> "OptState":
        return cls(
            m={name: np.zeros(p.shape) for name, p in params.items()},
            v={name: np.zeros(p.shape) for name, p in params.items()},
        )


@dataclass(frozen=True)
class AdamWConfig:
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adamw_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: OptState,
    lr: float,
    cfg: AdamWConfig = AdamWConfig(),
) -> tuple[dict[str, Tensor], OptState]:
    """One decoupled-weight-decay Adam update from float64 gradient arrays;
    returns fresh parameters.

    Decay is applied multiplicatively before the Adam delta, and bias
    correction uses the post-increment step count. A rejected gradient
    leaves ``state`` as it was: every one is checked before any update.
    """
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter {name} shape {p.shape}")
        if not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
    t = state.t + 1
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    new_params: dict[str, Tensor] = {}
    for name in params:
        g = grads[name]
        w = params[name].data
        if cfg.weight_decay:
            w = w * (1.0 - lr * cfg.weight_decay)
        m = cfg.beta1 * state.m[name] + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * state.v[name] + (1.0 - cfg.beta2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        delta = lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        new_params[name] = Tensor._wrap(w - delta, requires_grad=True)
    state.t = t
    return new_params, state


def lr_at(
    step: int,
    warmup_steps: int,
    total_steps: int,
    base_lr: float,
    min_lr: float = 0.0,
) -> float:
    """Linear warmup from 0 to base_lr, then half-cosine decay to min_lr."""
    if not 0 <= warmup_steps <= total_steps:
        raise ValueError(f"need 0 <= warmup ({warmup_steps}) <= total ({total_steps})")
    if step < warmup_steps:
        return base_lr * step / warmup_steps
    span = total_steps - warmup_steps
    if span == 0:
        return base_lr
    progress = (step - warmup_steps) / span
    return min_lr + (base_lr - min_lr) * 0.5 * (1.0 + math.cos(math.pi * progress))


def clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Global-norm clipping of gradient arrays; no-op when max_norm <= 0.

    A non-finite gradient raises NonFiniteError naming the first such
    parameter, searched for only when the global norm is not finite:
    scaling by that norm would zero the finite gradients (inf) or poison
    all of them (NaN). Finite gradients whose squares overflow are clipped
    on values scaled by the largest magnitude, so neither their norm nor
    the clip factor has to be a float.
    """
    if max_norm <= 0:
        return grads
    with np.errstate(over="ignore"):
        total = math.sqrt(sum(float((a * a).sum()) for a in grads.values()))
    if math.isfinite(total):
        if total <= max_norm:
            return grads
        factor = max_norm / total
        return {name: a * factor for name, a in grads.items()}
    for name, a in grads.items():
        if not np.isfinite(a).all():
            raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
    peak = max(float(np.abs(a).max(initial=0.0)) for a in grads.values())
    scaled = {name: a / peak for name, a in grads.items()}
    root = math.sqrt(sum(float((u * u).sum()) for u in scaled.values()))
    if peak * root <= max_norm:  # the product is inf when the norm is past the float range
        return grads
    factor = max_norm / root
    return {name: u * factor for name, u in scaled.items()}
