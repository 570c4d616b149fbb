"""Dice overlap metric and per-class evaluation reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import LabelVolume


def dice(truth: LabelVolume | np.ndarray, pred: LabelVolume | np.ndarray, class_id: int) -> float:
    """2 * |G intersect P| / (|G| + |P|) for one class; 1.0 when both empty."""
    g = truth.data if isinstance(truth, LabelVolume) else np.asarray(truth)
    p = pred.data if isinstance(pred, LabelVolume) else np.asarray(pred)
    if g.shape != p.shape:
        raise ValueError(f"label shapes differ: {g.shape} vs {p.shape}")
    g_bin = g == class_id
    p_bin = p == class_id
    total = int(g_bin.sum()) + int(p_bin.sum())
    if total == 0:
        return 1.0
    return 2.0 * int(np.logical_and(g_bin, p_bin).sum()) / total


@dataclass(frozen=True)
class DiceReport:
    per_class: dict[int, float]

    @property
    def average(self) -> float:
        values = list(self.per_class.values())
        return float(sum(values) / len(values)) if values else 0.0

    def to_text(self) -> str:
        lines = ["class\tdice"]
        for class_id in sorted(self.per_class):
            lines.append(f"class_{class_id}\t{self.per_class[class_id]!r}")
        lines.append(f"average\t{self.average!r}")
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

