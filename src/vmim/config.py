"""Flat dotted-key run configuration: defaults, file loading, overrides,
and the one schema between dotted keys and the config dataclasses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Any

from .losses import ReconLossConfig
from .models import MAEDecoderConfig, SegConfig, SimCLRConfig, ViTConfig
from .optim import AdamWConfig
from .patches import MaskingConfig
from .volume import read_kv

# Every tunable field, addressable by dotted key. Zeros marked "derived"
# resolve against other fields at build time.
DEFAULTS: dict[str, Any] = {
    "model.embed_dim": 64,
    "model.depth": 4,
    "model.num_heads": 4,
    "model.token_patch": 8,
    "model.mlp_ratio": 4,
    "model.channels": 1,
    "dec.dim": 32,
    "dec.depth": 2,
    "dec.heads": 4,
    "mask.patch": 0,  # derived: token_patch
    "mask.ratio": 0.75,
    "recon.norm": "l1",
    "simclr.hidden": 0,  # derived: embed_dim
    "simclr.dim": 0,  # derived: min(128, embed_dim)
    "simclr.temperature": 0.5,
    "train.base_lr": 3e-4,
    # 0.05 per the experimental-setup text; the appendix tables list 0.005.
    "train.weight_decay": 0.05,
    "train.beta1": 0.9,
    "train.beta2": 0.999,
    "train.batch_size": 4,
    "train.warmup_epochs": 3,
    "train.total_epochs": 30,
    "train.window": 48,
    "train.min_lr": 0.0,
    "train.grad_clip": 0.0,
    "train.checkpoint_every": 0,  # derived: total_epochs // 10
    "train.eval_every": 0,  # derived: checkpoint cadence
    "train.labeled_ratio": 1.0,
    "seg.num_classes": 3,
    "seg.width": 16,
    "swi.window": 0,  # derived: train.window
    "swi.overlap": 0.5,
}


class ConfigError(ValueError):
    pass


@dataclass
class TrainConfig:
    base_lr: float = 3e-4
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    batch_size: int = 4
    warmup_epochs: int = 3
    total_epochs: int = 30
    window: int = 48
    seed: int = 0
    min_lr: float = 0.0
    grad_clip: float = 0.0
    checkpoint_every: int = 0  # 0 -> total_epochs // 10
    eval_every: int = 0  # 0 -> checkpoint cadence

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError(f"train.base_lr must be positive, got {self.base_lr}")
        if not 0 <= self.min_lr <= self.base_lr:
            raise ValueError(
                f"need 0 <= train.min_lr ({self.min_lr}) <= train.base_lr ({self.base_lr})"
            )
        if self.total_epochs < 1:
            raise ValueError(f"train.total_epochs must be >= 1, got {self.total_epochs}")
        if self.window < 1:
            raise ValueError(f"train.window must be >= 1, got {self.window}")
        if not 0 <= self.warmup_epochs <= self.total_epochs:
            raise ValueError(
                f"need 0 <= train.warmup_epochs ({self.warmup_epochs}) <= "
                f"train.total_epochs ({self.total_epochs})"
            )
        if self.batch_size < 1:
            raise ValueError(f"train.batch_size must be >= 1, got {self.batch_size}")

    @property
    def adamw(self) -> AdamWConfig:
        return AdamWConfig(self.weight_decay, self.beta1, self.beta2)

    def checkpoint_cadence(self) -> int:
        return self.checkpoint_every or max(1, self.total_epochs // 10)

    def eval_cadence(self) -> int:
        return self.eval_every or self.checkpoint_cadence()


@dataclass(frozen=True)
class SlidingWindowConfig:
    window: int
    overlap: float = 0.5

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"swi.window must be >= 1, got {self.window}")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError(f"swi.overlap must lie in [0, 1), got {self.overlap}")

    @property
    def stride(self) -> int:
        return max(1, round(self.window * (1.0 - self.overlap)))


# The dataclass behind each key prefix. A key names the field after its
# dot, except where _KEY_OF says otherwise; fields without a key
# (TrainConfig.seed, SegConfig.vit) are passed to build() by the caller.
SECTIONS = {
    "model": ViTConfig,
    "dec": MAEDecoderConfig,
    "mask": MaskingConfig,
    "recon": ReconLossConfig,
    "simclr": SimCLRConfig,
    "seg": SegConfig,
    "train": TrainConfig,
    "swi": SlidingWindowConfig,
}
_KEY_OF = {
    ("dec", "decoder_dim"): "dec.dim",
    ("dec", "decoder_depth"): "dec.depth",
    ("dec", "decoder_heads"): "dec.heads",
    ("simclr", "proj_hidden"): "simclr.hidden",
    ("simclr", "proj_dim"): "simclr.dim",
    ("mask", "masked_patch"): "mask.patch",
}


def parse_scalar(text: str) -> Any:
    text = text.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _coerce(key: str, value: Any) -> Any:
    if key not in DEFAULTS:
        raise ConfigError(f"unknown config key {key!r}")
    default = DEFAULTS[key]
    if isinstance(value, str):
        value = parse_scalar(value)
    if isinstance(default, bool):
        return bool(value)
    if isinstance(default, (int, float)) and (
        isinstance(value, bool) or not isinstance(value, (int, float))
    ):
        kind = "an integer" if isinstance(default, int) else "a number"
        raise ConfigError(f"{key} expects {kind}, got {value!r}")
    if isinstance(default, int):
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{key} expects an integer, got {value}")
        return int(value)
    if isinstance(default, float):
        value = float(value)
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    return value


def load_config_file(path: str) -> dict[str, Any]:
    """Config from a 'key = value' text file, or from a run manifest (.json).

    A file that is not UTF-8, not valid JSON, or whose config is not a JSON
    object raises ConfigError naming the path.
    """
    try:
        if path.endswith(".json"):
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            if isinstance(raw, dict):
                raw = raw.get("config", raw)
        else:
            raw = read_kv(path)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object, got {type(raw).__name__}")
    return {key: _coerce(key, value) for key, value in raw.items()}


def resolve_config(
    file_path: str | None = None,
    overrides: dict[str, Any] | None = None,
    assignments: list[str] | None = None,
) -> dict[str, Any]:
    """defaults <- config file <- explicit flags <- --set key=value pairs."""
    config = dict(DEFAULTS)
    if file_path:
        config.update(load_config_file(file_path))
    for key, value in (overrides or {}).items():
        if value is not None:
            config[key] = _coerce(key, value)
    for assignment in assignments or []:
        if "=" not in assignment:
            raise ConfigError(f"--set expects key=value, got {assignment!r}")
        key, _, value = assignment.partition("=")
        config[key.strip()] = _coerce(key.strip(), value)
    return config


# The keys whose 0 default is a placeholder, each with the rule that
# derived() resolves it by.
DERIVED = {
    "mask.patch": lambda c: c["model.token_patch"],
    "simclr.hidden": lambda c: c["model.embed_dim"],
    "simclr.dim": lambda c: min(128, c["model.embed_dim"]),
    "swi.window": lambda c: c["train.window"],
}


def derived(config: dict[str, Any]) -> dict[str, Any]:
    """Resolve the 'derived' zero-placeholders into concrete values."""
    out = dict(config)
    for key, rule in DERIVED.items():
        if not out[key]:
            out[key] = rule(out)
    return out


def _key(section: str, field_name: str) -> str:
    return _KEY_OF.get((section, field_name), f"{section}.{field_name}")


def build(section: str, config: dict[str, Any], **extra: Any):
    """The dataclass of one key prefix, from a flat config or checkpoint echo.

    Keys absent from ``config`` leave the field at its dataclass default;
    a field without one raises ConfigError.
    """
    kwargs = dict(extra)
    for f in fields(SECTIONS[section]):
        key = _key(section, f.name)
        if f.name not in kwargs and key in config:
            kwargs[f.name] = config[key]
    try:
        return SECTIONS[section](**kwargs)
    except TypeError as exc:  # a required field has no key in ``config``
        raise ConfigError(f"incomplete {section!r} config: {exc}") from None


def flatten(section: str, obj) -> dict[str, Any]:
    """The config keys of a section dataclass: the inverse of build()."""
    keys = {f.name: _key(section, f.name) for f in fields(obj)}
    return {key: getattr(obj, name) for name, key in keys.items() if key in DEFAULTS}


def checkpoint_config(
    method: str, train: TrainConfig, labeled_ratio: float | None = None, **sections
) -> dict[str, Any]:
    """The config a checkpoint echoes: method, crop window, seed, every field
    of the given section dataclasses (``model=vit, seg=seg_cfg``) and, for
    fine-tuning, the labeled ratio.
    """
    config = {"method": method, "train.window": train.window, "train.seed": train.seed}
    for section, part in sections.items():
        config.update(flatten(section, part))
    if labeled_ratio is not None:
        config["train.labeled_ratio"] = labeled_ratio
    return config
