"""The names ``import vmim`` exports: a change to this set must be deliberate."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types

import vmim

PUBLIC_NAMES = {
    # autodiff
    "Graph", "Tensor", "apply", "backward",
    # inference
    "SlidingWindowConfig", "evaluate", "reconstruct_dump", "sliding_window_infer",
    # losses
    "ReconLossConfig", "dice_ce_loss", "masked_recon_loss", "ntxent",
    # metrics
    "DiceReport", "dice",
    # models
    "MAEDecoderConfig", "SegConfig", "SimCLRConfig", "ViTConfig", "encode",
    "mae_forward", "simclr_forward", "simmim_forward", "unetr_segment",
    # optim
    "OptState", "adamw_step", "lr_at",
    # patches
    "Mask", "MaskingConfig", "PatchGrid", "patchify", "positional_encoding",
    "sample_mask", "unpatchify",
    # rng
    "Rng",
    # train
    "TrainConfig", "crop_sampler", "finetune", "pretrain", "subset_labeled",
    # volume
    "LabelVolume", "Volume", "load_volume", "save_volume", "synth_generate",
}


def test_exported_names_are_pinned():
    exported = {
        name
        for name, value in vars(vmim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


def test_import_loads_no_scipy():
    # numpy is the one runtime dependency: scipy.special alone added about
    # 26 MiB of RSS and 0.3 s to every process that imported vmim.
    src = os.path.dirname(os.path.dirname(os.path.abspath(vmim.__file__)))
    code = "import sys, vmim, vmim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_config_dataclasses_keep_their_old_paths_and_positional_order():
    # The section dataclasses live in vmim.config; the modules that held
    # them before re-export them, and their fields keep their order.
    import vmim.config as config
    from vmim import inference, losses, models, patches, train

    for module, names in [
        (models, ("ViTConfig", "MAEDecoderConfig", "SimCLRConfig", "SegConfig")),
        (patches, ("MaskingConfig",)),
        (losses, ("ReconLossConfig",)),
        (inference, ("SlidingWindowConfig",)),
        (train, ("TrainConfig",)),
    ]:
        for name in names:
            assert getattr(module, name) is getattr(vmim, name) is getattr(config, name)
    vit = vmim.ViTConfig(64, 4, 4, 8, 4, 1)
    assert vit == vmim.ViTConfig(embed_dim=64, depth=4, num_heads=4, token_patch=8)
    assert vmim.MAEDecoderConfig(32, 2, 4) == vmim.MAEDecoderConfig(dim=32, depth=2, heads=4)
    assert vmim.SimCLRConfig(64, 32, 0.5) == vmim.SimCLRConfig(hidden=64, dim=32)
    assert vmim.MaskingConfig(16, 0.75) == vmim.MaskingConfig(patch=16, ratio=0.75)
    assert vmim.SegConfig(vit, 3, 16) == vmim.SegConfig(vit=vit, num_classes=3)
    assert vmim.SlidingWindowConfig(48, 0.5) == vmim.SlidingWindowConfig(window=48)
    assert vmim.ReconLossConfig("l1") == vmim.ReconLossConfig()


def test_benchmark_workloads_import_and_build_their_configs(monkeypatch):
    # benchmarks/ lies outside testpaths: without this, a narrowed API that
    # breaks the benchmark would still pass the test suite.
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")
    monkeypatch.syspath_prepend(bench)
    workloads = importlib.import_module("workloads")
    try:
        assert sorted(workloads.WORKLOADS) == ["finetune", "infer", "pretrain"]
        assert workloads.SEG.vit == workloads.VIT
        assert workloads.SEG.num_classes == workloads.NUM_CLASSES
        cfg = workloads.train_config(seed=1, epochs=2)
        assert (cfg.seed, cfg.total_epochs, cfg.batch_size) == (1, 2, workloads.BATCH)
        with open(workloads.__file__, encoding="utf-8") as fh:
            calls = set(re.findall(r"\b(checkpoint|inference|train|volume)\.(\w+)\(", fh.read()))
        assert {("train", "pretrain"), ("train", "finetune"), ("inference", "evaluate")} <= calls
        for module, name in calls:
            assert callable(getattr(getattr(workloads, module), name)), f"{module}.{name}"
    finally:
        sys.modules.pop("workloads", None)


def test_every_def_in_the_package_has_a_caller():
    # Use it or delete it: a function or method that nothing in src/vmim
    # names outside its own body, __init__.py and __all__ serves only the
    # tests. The count is by name, so a method shares its count with any
    # attribute of that name; dunders are called by Python itself.
    package = os.path.dirname(os.path.abspath(vmim.__file__))
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read())
    refs = [node for name, tree in trees.items() if name != "__init__.py"
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            if not any(getattr(ref, "id", getattr(ref, "attr", None)) == node.name
                       and id(ref) not in own for ref in refs):
                unused.append(f"{module}:{node.lineno} {node.name}")
    assert unused == []
