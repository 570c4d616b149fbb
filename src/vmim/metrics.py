"""Dice overlap metric and per-class evaluation reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def dice(truth: np.ndarray, pred: np.ndarray, class_id: int) -> float:
    """2 * |G intersect P| / (|G| + |P|) for one class of two label arrays;
    1.0 when both are empty."""
    if truth.shape != pred.shape:
        raise ValueError(f"label shapes differ: {truth.shape} vs {pred.shape}")
    g_bin = truth == class_id
    p_bin = pred == class_id
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

