"""Shared probe functions for gradient checks across test modules."""

import numpy as np

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
    "conv_transpose3": lambda t, aux: (
        apply("conv_transpose3", (aux["cv_x"], t), {"stride": 2}) * aux["cv_w"]
    ).sum(),
    "abs": lambda t, aux: apply("abs", (t,)).sum(),
    "exp": lambda t, aux: apply("exp", (t,)).sum(),
    "log": lambda t, aux: apply("log", (apply("exp", (t,)),)).sum(),
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
        "cv_x": Tensor(rng.normal(size=(2, 2, 2, 2))),  # (D, H, W, C)
        "cv_w": Tensor(rng.normal(size=(4, 4, 4, 3))),  # (sD, sH, sW, K)
    }


# Probes of the channel-last input operand: the weight-side probe of
# conv_transpose3 above never differentiates its input, and linear's runs
# on 2-D rows. kind -> (probe, input shape).
INPUT_PROBES = {
    "conv_transpose3": (
        lambda t, aux: (
            apply("conv_transpose3", (t, aux["cv_k"]), {"stride": 2}) * aux["cv_w"]
        ).sum(),
        (2, 2, 2, 2),
    ),
    "linear": (
        lambda t, aux: (apply("linear", (t, aux["w"], aux["bias"])) * aux["lin_w"]).sum(),
        (2, 3, 2, 5),
    ),
}


def input_probe_aux(rng):
    return {
        **probe_aux(rng),
        "cv_k": Tensor(rng.normal(size=(2, 3, 2, 2, 2))),
        "lin_w": Tensor(rng.normal(size=(2, 3, 2, 2))),
    }


def probe_input(kind, rng):
    if kind == "conv_transpose3":
        return rng.normal(size=(2, 3, 2, 2, 2))
    x = rng.uniform(-2.0, 2.0, size=(4, 5))
    if kind == "abs":
        x = x + np.sign(x) * 0.1
    if kind == "scatter_rows":
        x = rng.uniform(-2.0, 2.0, size=(5, 5))
    return x
