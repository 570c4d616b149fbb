"""Outside-in span tracing of vmim's public functions.

The tracer replaces each traced function at every vmim module attribute
that binds it (``from .autodiff import apply`` makes a second binding in
``models``), records one span per call, and puts the originals back on
``restore``. Nothing inside the program changes; spans stay in memory
until the benchmark writes them out.
"""

from __future__ import annotations

import os
import sys
import time

_MARK = "__bench_traced__"


def _tape_nodes(args):
    return len(args[0].nodes)


def _file_bytes(args):
    return os.path.getsize(args[0])


# (module, function, span name, value read before the call, value read after it).
# A span name ending in "." takes the op kind, the call's first argument.
TRACED = (
    ("vmim.autodiff", "apply", "autodiff.apply.", None, None),
    ("vmim.autodiff", "backward", "autodiff.backward", _tape_nodes, None),
    ("vmim.models", "unetr_segment", "models.unetr_segment", None, None),
    ("vmim.models", "mae_forward", "models.mae_forward", None, None),
    ("vmim.models", "simmim_forward", "models.simmim_forward", None, None),
    ("vmim.models", "simclr_forward", "models.simclr_forward", None, None),
    ("vmim.losses", "masked_recon_loss", "losses.masked_recon_loss", None, None),
    ("vmim.losses", "ntxent", "losses.ntxent", None, None),
    ("vmim.losses", "dice_ce_loss", "losses.dice_ce_loss", None, None),
    ("vmim.optim", "adamw_step", "optim.adamw_step", None, None),
    ("vmim.optim", "clip_grad_norm", "optim.clip_grad_norm", None, None),
    ("vmim.patches", "patchify", "patches.patchify", None, None),
    ("vmim.patches", "sample_mask", "patches.sample_mask", None, None),
    ("vmim.train", "crop_sampler", "train.crop_sampler", None, None),
    ("vmim.train", "pretrain", "train.loop", None, None),
    ("vmim.train", "finetune", "train.loop", None, None),
    ("vmim.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", None, _file_bytes),
    ("vmim.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", None, None),
    ("vmim.inference", "sliding_window_infer", "inference.sliding_window_infer", None, None),
    ("vmim.inference", "evaluate", "inference.evaluate", None, None),
    ("vmim.metrics", "dice", "metrics.dice", None, None),
    ("vmim.volume", "load_volume", "volume.load_volume", None, None),
    ("vmim.volume", "load_labels", "volume.load_labels", None, None),
)

# Every op kind the three workloads call.
OP_KINDS = (
    "abs", "add", "concat", "conv_transpose3", "embed_add", "exp", "gather_rows",
    "gelu", "layernorm", "linear", "log", "matmul", "mean", "mul", "permute",
    "reshape", "rownorm", "scale", "scatter_rows", "softmax", "sub", "sum",
)

# Per-layer metric -> (span name, column of the layer table, unit).
# Columns: "s" inclusive seconds, "self_s" seconds minus child spans,
# "calls" span count, "value" what the span recorded (tape nodes, bytes).
LAYER_METRICS = {
    **{f"autodiff.apply.{k}.s": (f"autodiff.apply.{k}", "s", "s") for k in OP_KINDS},
    **{f"autodiff.apply.{k}.calls": (f"autodiff.apply.{k}", "calls", "count") for k in OP_KINDS},
    "autodiff.backward.s": ("autodiff.backward", "s", "s"),
    "autodiff.tape_nodes": ("autodiff.backward", "value", "count"),
    "models.unetr_segment.self_s": ("models.unetr_segment", "self_s", "s"),
    "models.mae_forward.self_s": ("models.mae_forward", "self_s", "s"),
    "models.simmim_forward.self_s": ("models.simmim_forward", "self_s", "s"),
    "models.simclr_forward.self_s": ("models.simclr_forward", "self_s", "s"),
    "losses.masked_recon_loss.s": ("losses.masked_recon_loss", "s", "s"),
    "losses.ntxent.s": ("losses.ntxent", "s", "s"),
    "losses.dice_ce_loss.s": ("losses.dice_ce_loss", "s", "s"),
    "optim.adamw_step.s": ("optim.adamw_step", "s", "s"),
    "optim.clip_grad_norm.s": ("optim.clip_grad_norm", "s", "s"),
    "patches.patchify.s": ("patches.patchify", "s", "s"),
    "patches.sample_mask.s": ("patches.sample_mask", "s", "s"),
    "train.crop_sampler.s": ("train.crop_sampler", "s", "s"),
    "train.loop.self_s": ("train.loop", "self_s", "s"),
    "checkpoint.save_checkpoint.s": ("checkpoint.save_checkpoint", "s", "s"),
    "checkpoint.save_checkpoint.calls": ("checkpoint.save_checkpoint", "calls", "count"),
    "checkpoint.save_checkpoint.bytes": ("checkpoint.save_checkpoint", "value", "bytes"),
    "checkpoint.load_checkpoint.s": ("checkpoint.load_checkpoint", "s", "s"),
    "inference.evaluate.self_s": ("inference.evaluate", "self_s", "s"),
    "inference.sliding_window_infer.self_s": ("inference.sliding_window_infer", "self_s", "s"),
    "metrics.dice.s": ("metrics.dice", "s", "s"),
    "volume.load_volume.s": ("volume.load_volume", "s", "s"),
    "volume.load_labels.s": ("volume.load_labels", "s", "s"),
}


def _vmim_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "vmim" or n.startswith("vmim.")]


def surviving_wrappers() -> list[str]:
    """Module attributes that still hold a tracing wrapper."""
    return [
        f"{m.__name__}.{attr}"
        for m in _vmim_modules()
        for attr, value in vars(m).items()
        if getattr(value, _MARK, False)
    ]


class Tracer:
    """Spans as (name, start, end, parent index, value); parent -1 is a root."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, fn, name, before, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        per_kind = name.endswith(".")

        def wrapper(*args, **kwargs):
            span_name = name + args[0] if per_kind else name
            value = before(args) if before else 0
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if after:
                    value = after(args)
                spans[index] = (span_name, start, end, parent, value)

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = _vmim_modules()
        for module_name, fn_name, span_name, before, after in TRACED:
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = self._wrap(original, span_name, before, after)
            sites = [
                (m, attr) for m in modules for attr, value in vars(m).items() if value is original
            ]
            for module, attr in sites:
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def clear(self) -> None:
        self.spans.clear()

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive s, self s, summed value."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        rows: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, value) in enumerate(self.spans):
            row = rows.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[index]
            row["value"] += value
        return rows

    def windows(self) -> int:
        """Model calls made by sliding_window_infer."""
        return sum(
            1
            for name, _, _, parent, _ in self.spans
            if name == "models.unetr_segment"
            and parent >= 0
            and self.spans[parent][0] == "inference.sliding_window_infer"
        )

    def write(self, spans_path: str, table_path: str, calls: int) -> None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tvalue\n")
            for index, (name, start, end, parent, value) in enumerate(self.spans):
                fh.write(f"{index}\t{name}\t{start!r}\t{end!r}\t{parent}\t{value}\n")
        rows = sorted(self.table().items(), key=lambda item: -item[1]["self_s"])
        total = sum(row["self_s"] for _, row in rows) or 1.0
        with open(table_path, "w", encoding="utf-8") as fh:
            fh.write("layer\tcalls_per_call\ts_per_call\tself_s_per_call\tself_share\n")
            for name, row in rows:
                fh.write(
                    f"{name}\t{row['calls'] / calls!r}\t{row['s'] / calls!r}\t"
                    f"{row['self_s'] / calls!r}\t{row['self_s'] / total:.4f}\n"
                )
