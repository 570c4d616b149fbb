"""The config schema: one default and bound per key, checked by every section."""

import dataclasses
import importlib.util
import os
import sys

import pytest

from vmim.config import DEFAULTS, SCHEMA, SECTIONS, build, check, derived
from vmim.train import subset_labeled

# The keys and derived defaults the schema must keep: a key added, dropped or
# re-defaulted changes every manifest and checkpoint echo.
DERIVED_DEFAULTS = {
    "model.embed_dim": 64, "model.depth": 4, "model.num_heads": 4, "model.token_patch": 8,
    "model.mlp_ratio": 4, "model.channels": 1,
    "dec.dim": 32, "dec.depth": 2, "dec.heads": 4,
    "mask.patch": 8, "mask.ratio": 0.75, "recon.norm": "l1",
    "simclr.hidden": 64, "simclr.dim": 64, "simclr.temperature": 0.5,
    "train.base_lr": 3e-4, "train.weight_decay": 0.05, "train.beta1": 0.9,
    "train.beta2": 0.999, "train.batch_size": 4, "train.warmup_epochs": 3,
    "train.total_epochs": 30, "train.window": 48, "train.min_lr": 0.0,
    "train.grad_clip": 0.0, "train.checkpoint_every": 0, "train.eval_every": 0,
    "train.labeled_ratio": 1.0,
    "seg.num_classes": 3, "seg.width": 16,
    "swi.window": 48, "swi.overlap": 0.5,
}
# Fields that build() takes from its caller, not from a key.
UNKEYED = {"train.seed", "seg.vit"}


def _outside(key):
    """(value just outside the key's bound, the bound's edge value, which is inside)."""
    default, bound = SCHEMA[key]
    if isinstance(bound, tuple):
        return "bogus", bound[0]
    if bound == "positive":
        return 0 * default, default
    if isinstance(bound, str):
        low, high = (float(end) for end in bound[1:-1].split(","))
        if bound[0] == "(":
            return low, high
        return high if bound[-1] == ")" else high + 1e-9, low
    return bound - (1 if isinstance(default, int) else 1e-9), bound


BOUNDED = [key for key, (_, bound) in SCHEMA.items() if bound is not None]


def _section_with(key, value):
    """The key's section dataclass at the derived defaults, rebuilt directly
    with ``value`` in the key's field."""
    section, _, name = key.partition(".")
    cfg = derived(DEFAULTS)
    extra = {"seg": {"vit": build("model", cfg)}, "train": {"seed": 0}}.get(section, {})
    return dataclasses.replace(build(section, cfg, **extra), **{name: value})


def test_schema_keys_and_derived_defaults_are_pinned():
    assert derived(DEFAULTS) == DERIVED_DEFAULTS
    assert list(DEFAULTS) == list(SCHEMA) == list(DERIVED_DEFAULTS)


def test_every_keyed_field_has_a_schema_entry():
    keyed = {f"{s}.{f.name}" for s, cls in SECTIONS.items() for f in dataclasses.fields(cls)}
    keyed -= UNKEYED
    assert keyed <= set(SCHEMA)
    # train.labeled_ratio is an argument of finetune(), not a TrainConfig field.
    assert set(SCHEMA) - keyed == {"train.labeled_ratio"}


@pytest.mark.parametrize("key", BOUNDED)
def test_section_rejects_a_value_just_outside_the_bound(key):
    outside, edge = _outside(key)
    with pytest.raises(ValueError) as exc:
        if key == "train.labeled_ratio":
            subset_labeled(list(range(4)), outside, seed=0)
        else:
            _section_with(key, outside)
    assert str(exc.value).startswith(f"{key} must ")
    check(key, edge)  # the bound's own edge is inside


def test_benchmark_workload_configs_match_the_schema(monkeypatch):
    # The benchmark builds its configs directly from DEFAULTS; its own tests
    # sit outside tier-1's testpaths, so a broken import there shows here.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "benchmarks", "workloads.py")
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    cfg = derived(DEFAULTS)
    vit = build("model", cfg)
    assert workloads.VIT == vit
    assert workloads.DEC == build("dec", cfg)
    assert workloads.MASK == build("mask", cfg)
    assert workloads.RECON == build("recon", cfg)
    assert workloads.SIMCLR == build("simclr", cfg)
    assert workloads.SEG == build("seg", cfg, vit=vit)
    assert workloads.SWI == build("swi", cfg)
    train_cfg = workloads.train_config(seed=5, epochs=2)
    assert (train_cfg.window, train_cfg.seed) == (cfg["train.window"], 5)
