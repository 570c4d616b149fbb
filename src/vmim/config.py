"""The one config schema: each dotted key's default and bound (SCHEMA), the
section dataclasses behind the keys, file loading and overrides.

Key ``<section>.<name>`` is field ``name`` of ``SECTIONS[section]``. Building
a section checks its keyed fields against their bounds, then its cross-field
rules; other modules import the dataclasses from here.

A command's config (resolve_config) is, each source over the one before:
defaults <- a checkpoint's config echo <- config file <- flags <- --set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Any

from .optim import AdamWConfig
from .volume import read_kv

# key: (default, bound). A bound is the least value, "positive", an interval
# as its error message writes it, or a tuple of the allowed values; None
# leaves the key to a cross-field rule. A 0 marked "derived" stands for a
# value worked out from other keys.
SCHEMA: dict[str, tuple[Any, Any]] = {
    "model.embed_dim": (64, 1),
    "model.depth": (4, 0),
    "model.num_heads": (4, 1),
    "model.token_patch": (8, 1),
    "model.mlp_ratio": (4, 1),
    "model.channels": (1, 1),
    "dec.dim": (32, 1),
    "dec.depth": (2, 0),
    "dec.heads": (4, 1),
    "mask.patch": (0, 1),  # derived: token_patch
    "mask.ratio": (0.75, "[0, 1]"),
    "recon.norm": ("l1", ("l1", "l2")),
    "simclr.hidden": (0, 1),  # derived: embed_dim
    "simclr.dim": (0, 1),  # derived: min(128, embed_dim)
    "simclr.temperature": (0.5, "positive"),
    "train.base_lr": (3e-4, "positive"),
    # 0.05 per the experimental-setup text; the appendix tables list 0.005.
    # A negative decay would grow the weights.
    "train.weight_decay": (0.05, 0),
    # A beta of 1 zeroes Adam's bias correction 1 - beta^t.
    "train.beta1": (0.9, "[0, 1)"),
    "train.beta2": (0.999, "[0, 1)"),
    "train.batch_size": (4, 1),
    "train.warmup_epochs": (3, None),  # 0 <= warmup_epochs <= total_epochs
    "train.total_epochs": (30, 1),
    "train.window": (48, 1),
    "train.min_lr": (0.0, None),  # 0 <= min_lr <= base_lr
    # A negative clip would turn clipping off, and a negative cadence -n
    # would act as n (epoch % -n == 0).
    "train.grad_clip": (0.0, 0),
    "train.checkpoint_every": (0, 0),  # derived: total_epochs // 10
    "train.eval_every": (0, 0),  # derived: checkpoint cadence
    "train.labeled_ratio": (1.0, "(0, 1]"),
    "seg.num_classes": (3, 2),
    "seg.width": (16, 1),
    "swi.window": (0, 1),  # derived: train.window
    "swi.overlap": (0.5, "[0, 1)"),
}
DEFAULTS: dict[str, Any] = {key: default for key, (default, _) in SCHEMA.items()}


class ConfigError(ValueError):
    pass


def check(key: str, value: Any) -> None:
    """Raise ValueError, starting with ``key``, when ``value`` is outside the
    key's bound in SCHEMA."""
    bound = SCHEMA[key][1]
    if isinstance(bound, tuple):
        if value not in bound:
            raise ValueError(f"{key} must be {' or '.join(map(repr, bound))}, got {value!r}")
    elif bound == "positive":
        if not value > 0:
            raise ValueError(f"{key} must be positive, got {value}")
    elif isinstance(bound, str):
        low, high = (float(end) for end in bound[1:-1].split(","))
        above = low < value or (bound[0] == "[" and value == low)
        below = value < high or (bound[-1] == "]" and value == high)
        if not (above and below):
            raise ValueError(f"{key} must lie in {bound}, got {value}")
    elif bound is not None and not value >= bound:
        raise ValueError(f"{key} must be >= {bound}, got {value}")


# The dataclass behind each key prefix. The fields without a key
# (TrainConfig.seed, SegConfig.vit) are passed to build() by the caller.
SECTIONS: dict[str, type] = {}


class _Section:
    """Base of the section dataclasses: ``class C(_Section, section="model")``
    enters C in SECTIONS, and building a C check()s its keyed fields. A
    subclass adds its cross-field rules after that."""

    def __init_subclass__(cls, section: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._section = section
        SECTIONS[section] = cls

    def __post_init__(self):
        for key, value in flatten(self._section, self).items():
            check(key, value)


def check_window(window: int, token_patch: int, key: str = "train.window") -> None:
    """Raise ValueError, naming ``key`` and model.token_patch, when
    ``window``^3 crops do not split into whole token patches."""
    if window % token_patch:
        raise ValueError(f"{key} {window} is not divisible by model.token_patch {token_patch}")


@dataclass(frozen=True)
class ViTConfig(_Section, section="model"):
    embed_dim: int
    depth: int
    num_heads: int
    token_patch: int
    mlp_ratio: int = DEFAULTS["model.mlp_ratio"]
    channels: int = DEFAULTS["model.channels"]

    def __post_init__(self):
        super().__post_init__()
        if self.embed_dim % self.num_heads:
            raise ValueError(
                f"model.embed_dim {self.embed_dim} is not divisible by "
                f"model.num_heads {self.num_heads}"
            )

    @property
    def mlp_dim(self) -> int:
        return self.embed_dim * self.mlp_ratio

    def token_dim(self) -> int:
        return self.channels * self.token_patch**3


@dataclass(frozen=True)
class MAEDecoderConfig(_Section, section="dec"):
    dim: int
    depth: int
    heads: int

    def __post_init__(self):
        super().__post_init__()
        if self.dim % self.heads:
            raise ValueError(f"dec.dim {self.dim} is not divisible by dec.heads {self.heads}")


@dataclass(frozen=True)
class MaskingConfig(_Section, section="mask"):
    patch: int
    ratio: float

    def cell_factor(self, token_patch: int) -> int:
        if self.patch % token_patch:
            raise ValueError(
                f"mask.patch {self.patch} is not a multiple of model.token_patch {token_patch}"
            )
        return self.patch // token_patch


@dataclass(frozen=True)
class ReconLossConfig(_Section, section="recon"):
    norm: str = DEFAULTS["recon.norm"]  # "l1" or "l2", per-masked-voxel mean either way


@dataclass(frozen=True)
class SimCLRConfig(_Section, section="simclr"):
    hidden: int
    dim: int
    temperature: float = DEFAULTS["simclr.temperature"]


@dataclass(frozen=True)
class SegConfig(_Section, section="seg"):
    vit: ViTConfig
    num_classes: int
    width: int = DEFAULTS["seg.width"]

    def __post_init__(self):
        super().__post_init__()
        p = self.vit.token_patch
        if p & (p - 1):
            raise ValueError(
                f"model.token_patch must be a power-of-two for the segmentation "
                f"decoder, got {p}"
            )
        if self.vit.depth < 1:
            raise ValueError(
                f"model.depth must be >= 1 for the segmentation decoder's taps, "
                f"got {self.vit.depth}"
            )


@dataclass
class TrainConfig(_Section, section="train"):
    base_lr: float = DEFAULTS["train.base_lr"]
    weight_decay: float = DEFAULTS["train.weight_decay"]
    beta1: float = DEFAULTS["train.beta1"]
    beta2: float = DEFAULTS["train.beta2"]
    batch_size: int = DEFAULTS["train.batch_size"]
    warmup_epochs: int = DEFAULTS["train.warmup_epochs"]
    total_epochs: int = DEFAULTS["train.total_epochs"]
    window: int = DEFAULTS["train.window"]
    seed: int = 0
    min_lr: float = DEFAULTS["train.min_lr"]
    grad_clip: float = DEFAULTS["train.grad_clip"]
    checkpoint_every: int = DEFAULTS["train.checkpoint_every"]
    eval_every: int = DEFAULTS["train.eval_every"]

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.min_lr <= self.base_lr:
            raise ValueError(
                f"need 0 <= train.min_lr ({self.min_lr}) <= train.base_lr ({self.base_lr})"
            )
        if not 0 <= self.warmup_epochs <= self.total_epochs:
            raise ValueError(
                f"need 0 <= train.warmup_epochs ({self.warmup_epochs}) <= "
                f"train.total_epochs ({self.total_epochs})"
            )

    @property
    def adamw(self) -> AdamWConfig:
        return AdamWConfig(self.weight_decay, self.beta1, self.beta2)

    def checkpoint_cadence(self) -> int:
        return self.checkpoint_every or max(1, self.total_epochs // 10)

    def eval_cadence(self) -> int:
        return self.eval_every or self.checkpoint_cadence()


@dataclass(frozen=True)
class SlidingWindowConfig(_Section, section="swi"):
    window: int
    overlap: float = DEFAULTS["swi.overlap"]

    @property
    def stride(self) -> int:
        return max(1, round(self.window * (1.0 - self.overlap)))



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


def check_echo(echo: dict[str, Any], config: dict[str, Any]) -> None:
    """Raise ValueError naming the first key of ``config``, in sorted order,
    that a checkpoint's config ``echo`` holds with another value."""
    for key in sorted(config):
        if key in echo and echo[key] != config[key]:
            raise ValueError(f"checkpoint {key}={echo[key]} conflicts with config {config[key]}")


# The sections each CLI command builds its config from. A --set of a key
# outside them would have no effect, so resolve_config rejects it unless
# the checkpoint's config echo holds it. A config file may hold any key: one
# file can serve every command of a pipeline.
COMMAND_SECTIONS = {
    "pretrain": ("model", "dec", "mask", "recon", "simclr", "train"),
    "finetune": ("model", "seg", "train", "swi"),
    "eval": ("swi",),
    "reconstruct": ("mask",),
    "ablate": ("model", "dec", "mask", "recon", "simclr", "train", "seg", "swi"),
}


def resolve_config(
    file_path: str | None = None,
    overrides: dict[str, Any] | None = None,
    assignments: list[str] | None = None,
    echo: dict[str, Any] | None = None,
    command: str | None = None,
) -> dict[str, Any]:
    """A command's config: defaults <- a checkpoint's config ``echo`` <-
    config file <- explicit flags (None is not given) <- --set key=value pairs.

    Each key the file, a flag or --set gives is check()ed. For a ``command``
    of COMMAND_SECTIONS, a --set key outside its sections that ``echo`` does
    not hold raises ConfigError naming the key and the command. A given key
    that ``echo`` holds with another value raises ValueError. Then derived()
    fills the placeholders that no source gave: a given one is >= 1 once
    checked.
    """
    given = load_config_file(file_path) if file_path else {}
    for key, value in (overrides or {}).items():
        if value is not None:
            given[key] = _coerce(key, value)
    for assignment in assignments or []:
        if "=" not in assignment:
            raise ConfigError(f"--set expects key=value, got {assignment!r}")
        key, _, value = assignment.partition("=")
        key = key.strip()
        given[key] = _coerce(key, value)
        unread = key.partition(".")[0] not in COMMAND_SECTIONS.get(command, SECTIONS)
        if unread and key not in (echo or {}):
            raise ConfigError(f"{key} is not read by {command}")
    for key, value in given.items():
        check(key, value)
    check_echo(echo or {}, given)
    return derived({**DEFAULTS, **(echo or {}), **given})


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


def build(section: str, config: dict[str, Any], **extra: Any):
    """The dataclass of one key prefix, from a flat config or checkpoint echo.

    Keys absent from ``config`` leave the field at its dataclass default;
    a field without one raises ConfigError.
    """
    kwargs = dict(extra)
    for f in fields(SECTIONS[section]):
        key = f"{section}.{f.name}"
        if f.name not in kwargs and key in config:
            kwargs[f.name] = config[key]
    try:
        return SECTIONS[section](**kwargs)
    except TypeError as exc:  # a required field has no key in ``config``
        raise ConfigError(f"incomplete {section!r} config: {exc}") from None


def flatten(section: str, obj) -> dict[str, Any]:
    """The config keys of a section dataclass: the inverse of build()."""
    keys = {f.name: f"{section}.{f.name}" for f in fields(obj)}
    return {key: getattr(obj, name) for name, key in keys.items() if key in SCHEMA}


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
