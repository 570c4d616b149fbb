"""CLI surface: subcommands, manifests, overrides, exit codes."""

import json
import os
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import vmim
import vmim.checkpoint
import vmim.cli
import vmim.inference
import vmim.train
from vmim.autodiff import Tensor
from vmim.cli import build_parser, run
from vmim.config import (
    COMMAND_SECTIONS,
    SECTIONS,
    ConfigError,
    DEFAULTS,
    build,
    checkpoint_config,
    derived,
    flatten,
    resolve_config,
)
from vmim.inference import SlidingWindowConfig, evaluate
from vmim.models import ViTConfig
from vmim.volume import load_labels, load_volume


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("data"))
    assert run(["synth", "--seed", "7", "--count", "4", "--shape", "40",
                "--classes", "3", "--out", d]) == 0
    return d


class TestConfig:
    def test_defaults_and_override_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("train.base_lr = 1e-3\nmask.ratio = 0.5\n")
        cfg = resolve_config(str(cfg_file), {"mask.ratio": 0.6}, ["train.window=32"])
        assert cfg["train.base_lr"] == 1e-3  # file beats default
        assert cfg["mask.ratio"] == 0.6  # flag beats file
        assert cfg["train.window"] == 32  # --set beats default
        assert cfg["train.weight_decay"] == DEFAULTS["train.weight_decay"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config(None, {}, ["train.bogus=1"])

    def test_set_outside_the_command_sections_rejected(self, tmp_path):
        # A config file may hold any key, and a --set the checkpoint's echo
        # holds passes on to the echo comparison.
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("dec.dim = 48\n")
        assert resolve_config(str(cfg_file), command="eval")["dec.dim"] == 48
        echo = {"model.depth": 1}
        assert resolve_config(None, {}, ["model.depth=1"], echo, command="eval")["model.depth"] == 1
        with pytest.raises(ConfigError, match="^dec.dim is not read by eval$"):
            resolve_config(None, {}, ["dec.dim=48"], command="eval")
        subcommands = build_parser()._subparsers._group_actions[0].choices
        assert set(COMMAND_SECTIONS) == set(subcommands) - {"synth"}
        assert all(set(s) <= set(SECTIONS) for s in COMMAND_SECTIONS.values())

    def test_derived_fields(self):
        cfg = derived(dict(DEFAULTS))
        assert cfg["mask.patch"] == cfg["model.token_patch"]
        assert cfg["swi.window"] == cfg["train.window"]
        assert cfg["simclr.hidden"] == cfg["model.embed_dim"]

    def test_weight_decay_default_with_appendix_alternative(self):
        # body text value is the default; the appendix-table value stays a
        # one-flag override
        assert DEFAULTS["train.weight_decay"] == 0.05
        cfg = resolve_config(None, {}, ["train.weight_decay=0.005"])
        assert cfg["train.weight_decay"] == 0.005

    @pytest.mark.parametrize("section", sorted(SECTIONS))
    def test_build_and_flatten_are_inverse(self, section):
        cfg = derived(DEFAULTS)
        extra = {"seg": {"vit": build("model", cfg)}, "train": {"seed": 3}}.get(section, {})
        obj = build(section, cfg, **extra)
        flat = flatten(section, obj)
        assert flat and all(cfg[k] == v for k, v in flat.items())
        assert build(section, flat, **extra) == obj

    def test_renamed_keys_reach_their_fields(self):
        cfg = derived(resolve_config(None, {}, ["dec.dim=48", "simclr.hidden=24",
                                               "mask.patch=16"]))
        assert build("dec", cfg).dim == 48
        assert build("simclr", cfg).hidden == 24
        assert build("mask", cfg).patch == 16

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigError, match="incomplete 'model' config"):
            build("model", {"model.embed_dim": 64})

    def test_checkpoint_config_echoes_sections(self):
        cfg = derived(DEFAULTS)
        vit = build("model", cfg)
        echo = checkpoint_config("seg", build("train", cfg, seed=4), 0.5,
                                 model=vit, seg=build("seg", cfg, vit=vit))
        assert echo == {
            "method": "seg", "train.window": 48, "train.seed": 4,
            "train.labeled_ratio": 0.5, "seg.num_classes": 3, "seg.width": 16,
            **{k: cfg[k] for k in cfg if k.startswith("model.")},
        }
        assert build("model", echo) == vit == ViTConfig(64, 4, 4, 8)


class TestSynth:
    def test_writes_pairs_and_manifest(self, synth_dir):
        names = sorted(os.listdir(synth_dir))
        assert sum(n.endswith(".vol") for n in names) == 4
        assert sum(n.endswith(".lab") for n in names) == 4
        manifest = json.load(open(os.path.join(synth_dir, "manifest.json")))
        assert manifest["subcommand"] == "synth"
        assert manifest["version"]
        assert manifest["seed"] == 7
        assert len(manifest["artifacts"]) == 16

    def test_volumes_load_back(self, synth_dir):
        v = load_volume(os.path.join(synth_dir, "sample0000.vol"))
        l = load_labels(os.path.join(synth_dir, "sample0000.lab"))
        assert v.data.shape == (1, 40, 40, 40)
        assert l.num_classes == 3


class TestDispatch:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["synth", "--no-such-flag"])
        assert exc.value.code == 2

    def test_runtime_failure_exit_1(self, tmp_path, capsys):
        code = run(["pretrain", "--method", "mae", "--data", str(tmp_path / "nope"),
                    "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_gradient_divergence_exit_1_names_step_and_parameter(
        self, synth_dir, tmp_path, capsys, monkeypatch
    ):
        real_backward = vmim.train.backward
        calls = []

        def backward_poisoning_step_1(graph, loss):
            grads = real_backward(graph, loss)
            calls.append(None)
            # One backward per crop, two crops per step: call 3 is step 1's first.
            if len(calls) == 3:
                grads = {k: Tensor(np.full(g.shape, np.inf)) for k, g in grads.items()}
            return grads

        monkeypatch.setattr(vmim.train, "backward", backward_poisoning_step_1)
        code = run(["pretrain", "--method", "simmim", "--data", synth_dir,
                    "--out", str(tmp_path / "out"), "--epochs", "2", "--window", "16",
                    "--set", "model.embed_dim=32", "--set", "model.depth=1",
                    "--set", "train.warmup_epochs=0", "--set", "train.batch_size=2"])
        assert code == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: non-finite gradient for parameter '\w[\w.]*' at step 1$",
                         err, re.MULTILINE), err


    def test_divergence_reports_error_without_numpy_warnings(self, synth_dir, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["pretrain", "--method", "simmim", "--data", synth_dir,
                        "--out", str(tmp_path / "out"), "--epochs", "30", "--window", "16",
                        "--set", "model.embed_dim=32", "--set", "model.depth=1",
                        "--set", "train.warmup_epochs=0", "--set", "train.base_lr=1e18"])
        assert code == 1
        assert re.search(r"^error: non-finite .* at step \d+$", capsys.readouterr().err,
                         re.MULTILINE)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_non_finite_float_config_exit_1_names_key(self, synth_dir, tmp_path, capsys):
        code = run(["pretrain", "--method", "simmim", "--data", synth_dir,
                    "--out", str(tmp_path / "out"), "--set", "train.base_lr=nan"])
        assert code == 1
        assert "error: train.base_lr must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("assignment, message", [
        ("train.base_lr=abc", "train.base_lr expects a number, got 'abc'"),
        ("model.depth=abc", "model.depth expects an integer, got 'abc'"),
        ("train.batch_size=true", "train.batch_size expects an integer, got True"),
    ], ids=["float-key", "int-key", "bool-for-int"])
    def test_non_numeric_config_exit_1_names_key(
        self, synth_dir, tmp_path, capsys, assignment, message
    ):
        code = run(["pretrain", "--method", "simmim", "--data", synth_dir,
                    "--out", str(tmp_path / "out"), "--set", assignment])
        assert code == 1
        assert f"error: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--epochs", "1"], "need 0 <= train.warmup_epochs (3) <= train.total_epochs (1)"),
        (["--set", "train.base_lr=-1"], "train.base_lr must be positive, got -1.0"),
        (["--set", "train.min_lr=-1"], "need 0 <= train.min_lr (-1.0) <= train.base_lr (0.0003)"),
        (["--set", "train.min_lr=1e-3"],
         "need 0 <= train.min_lr (0.001) <= train.base_lr (0.0003)"),
        (["--set", "train.batch_size=0"], "train.batch_size must be >= 1, got 0"),
        (["--epochs", "0", "--set", "train.warmup_epochs=0"],
         "train.total_epochs must be >= 1, got 0"),
        (["--window", "0"], "train.window must be >= 1, got 0"),
        # Unchecked, a beta of 1 ends in "non-finite loss at step 1".
        (["--set", "train.beta1=1"], "train.beta1 must lie in [0, 1), got 1.0"),
        (["--set", "train.beta2=1"], "train.beta2 must lie in [0, 1), got 1.0"),
        (["--set", "train.beta2=-0.5"], "train.beta2 must lie in [0, 1), got -0.5"),
        # Unchecked, a negative decay grows the weights, a negative clip
        # turns clipping off, and a cadence of -n acts as n.
        (["--set", "train.weight_decay=-1"], "train.weight_decay must be >= 0, got -1.0"),
        (["--set", "train.grad_clip=-1"], "train.grad_clip must be >= 0, got -1.0"),
        (["--set", "train.checkpoint_every=-1"], "train.checkpoint_every must be >= 0, got -1"),
        (["--set", "train.eval_every=-1"], "train.eval_every must be >= 0, got -1"),
    ], ids=["warmup-past-total", "base-lr", "negative-min-lr", "min-lr-above-base-lr",
            "batch-size", "zero-epochs", "zero-window", "beta1-one", "beta2-one",
            "negative-beta2", "negative-weight-decay", "negative-grad-clip",
            "negative-checkpoint-every", "negative-eval-every"])
    def test_bad_train_config_exit_1_names_keys(self, synth_dir, tmp_path, capsys, flags, message):
        code = run(["pretrain", "--method", "mae", "--data", synth_dir,
                    "--out", str(tmp_path / "out")] + flags)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        # A key's own bound is checked before the manifest; the cross-field
        # rules ("need ...") run when the section is built, after it.
        if not message.startswith("need"):
            assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("command, key, value, minimum", [
        ("pretrain", "model.embed_dim", 0, 1),
        ("pretrain", "model.num_heads", 0, 1),
        ("finetune", "model.token_patch", 0, 1),
        ("pretrain", "model.mlp_ratio", 0, 1),
        ("pretrain", "model.channels", 0, 1),
        ("pretrain", "model.depth", -1, 0),
        ("pretrain", "dec.dim", 0, 1),
        ("pretrain", "dec.heads", 0, 1),
        ("pretrain", "dec.depth", -1, 0),
        ("finetune", "seg.width", 0, 1),
    ])
    def test_bad_model_size_exit_1_names_key(
        self, synth_dir, tmp_path, capsys, command, key, value, minimum
    ):
        # Unchecked, these end in a raw ZeroDivisionError or reshape error,
        # or, for dec.depth, in a run with no decoder blocks.
        method = ["--method", "mae"] if command == "pretrain" else []
        code = run([command, *method, "--data", synth_dir, "--out", str(tmp_path / "out"),
                    "--epochs", "1", "--window", "16", "--set", "train.warmup_epochs=0",
                    "--set", f"{key}={value}"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {key} must be >= {minimum}, got {value}\n"
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("command, assignment, message", [
        ("pretrain --method simclr", "simclr.hidden=-2", "simclr.hidden must be >= 1, got -2"),
        ("pretrain --method simclr", "simclr.dim=-1", "simclr.dim must be >= 1, got -1"),
        ("pretrain --method simclr", "simclr.temperature=0",
         "simclr.temperature must be positive, got 0.0"),
        ("pretrain --method mae", "mask.ratio=1.5", "mask.ratio must lie in [0, 1], got 1.5"),
        ("pretrain --method mae", "mask.patch=-8", "mask.patch must be >= 1, got -8"),
        ("pretrain --method mae", "recon.norm=l3", "recon.norm must be 'l1' or 'l2', got 'l3'"),
        ("finetune", "seg.num_classes=1", "seg.num_classes must be >= 2, got 1"),
        ("finetune", "train.labeled_ratio=2", "train.labeled_ratio must lie in (0, 1], got 2.0"),
    ], ids=["simclr-hidden", "simclr-dim", "simclr-temperature", "mask-ratio", "mask-patch",
            "recon-norm", "seg-classes", "labeled-ratio"])
    def test_bad_section_value_exit_1_names_key(
        self, synth_dir, tmp_path, capsys, command, assignment, message
    ):
        # Unchecked, the simclr sizes end in numpy's "negative dimensions are
        # not allowed".
        code = run([*command.split(), "--data", synth_dir, "--out", str(tmp_path / "out"),
                    "--epochs", "1", "--window", "16", "--set", "train.warmup_epochs=0",
                    "--set", "model.embed_dim=32", "--set", "model.depth=1",
                    "--set", assignment])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command, flags, message", [
        ("eval", ["--window", "0"], "swi.window must be >= 1, got 0"),
        ("eval", ["--window", "-5"], "swi.window must be >= 1, got -5"),
        ("pretrain", ["--masked-patch", "0"], "mask.patch must be >= 1, got 0"),
        ("reconstruct", ["--masked-patch", "-8"], "mask.patch must be >= 1, got -8"),
        ("eval", ["--set", "swi.overlap=1.5"], "swi.overlap must lie in [0, 1), got 1.5"),
    ], ids=["eval-zero-window", "eval-negative-window", "pretrain-zero-masked-patch",
            "reconstruct-negative-masked-patch", "eval-overlap"])
    def test_bad_derived_or_window_value_exit_1_names_key(
        self, synth_dir, tmp_path, capsys, command, flags, message
    ):
        # mask.patch and swi.window default to 0, "derive from another key";
        # an explicit flag value of 0 must not silently become that value.
        missing = str(tmp_path / "missing")
        inputs = {
            "pretrain": ["--method", "mae", "--data", missing],
            "eval": ["--checkpoint", missing, "--data", synth_dir],
            "reconstruct": ["--checkpoint", missing, "--depths", "0",
                            "--volume", os.path.join(synth_dir, "sample0000.vol")],
        }[command]
        code = run([command, *inputs, "--out", str(tmp_path / "out"), *flags])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("source", ["set", "config"])
    @pytest.mark.parametrize("command, key", [
        ("pretrain --method mae", "mask.patch"),
        ("pretrain --method simclr", "simclr.hidden"),
        ("pretrain --method simclr", "simclr.dim"),
        ("eval", "swi.window"),
    ], ids=["mask-patch", "simclr-hidden", "simclr-dim", "swi-window"])
    def test_zero_placeholder_key_exit_1_before_the_manifest(
        self, synth_dir, tmp_path, capsys, command, key, source
    ):
        # These keys default to a 0 that is derived from another key. A 0
        # from --set or a config file used to be derived too, and the run
        # exited 0.
        config = tmp_path / "zero.cfg"
        config.write_text(f"{key} = 0\n")
        flags = ["--set", f"{key}=0"] if source == "set" else ["--config", str(config)]
        inputs = ["--checkpoint", str(tmp_path / "missing")] if command == "eval" else []
        out = tmp_path / "out"
        code = run([*command.split(), *inputs, "--data", synth_dir, "--out", str(out), *flags])
        assert code == 1
        assert capsys.readouterr().err == f"error: {key} must be >= 1, got 0\n"
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command, assignment, message", [
        ("pretrain --method mae", "train.window=20",
         "train.window 20 is not divisible by model.token_patch 8"),
        ("finetune", "train.window=20", "train.window 20 is not divisible by model.token_patch 8"),
        ("finetune --window 16", "swi.window=20",
         "swi.window 20 is not divisible by model.token_patch 8"),
        ("ablate --patch-sizes 8 --ratios 0.5", "train.window=20",
         "train.window 20 is not divisible by model.token_patch 8"),
        ("ablate --patch-sizes 8 --ratios 0.5 --set train.window=16", "swi.window=20",
         "swi.window 20 is not divisible by model.token_patch 8"),
        ("pretrain --method mae", "model.embed_dim=30",
         "model.embed_dim 30 is not divisible by model.num_heads 4"),
        ("pretrain --method mae", "dec.dim=30", "dec.dim 30 is not divisible by dec.heads 4"),
        ("pretrain --method mae", "mask.patch=12",
         "mask.patch 12 is not a multiple of model.token_patch 8"),
        ("pretrain --method mae", "mask.patch=32",
         "train.window 48 is not divisible by mask.patch 32"),
        ("finetune", "model.token_patch=6",
         "model.token_patch must be a power-of-two for the segmentation decoder, got 6"),
        ("finetune", "model.depth=0",
         "model.depth must be >= 1 for the segmentation decoder's taps, got 0"),
    ], ids=["pretrain-window", "finetune-window", "finetune-swi-window", "ablate-window",
            "ablate-swi-window", "embed-heads", "dec-heads",
            "mask-patch", "window-mask-patch", "seg-token-patch", "seg-depth"])
    def test_cross_field_error_exit_1_names_its_keys(
        self, synth_dir, tmp_path, capsys, command, assignment, message
    ):
        # The window errors used to read "window 20 not divisible by token
        # patch 8" (pretrain, finetune), "extent 20 on axis 0 is not
        # divisible by patch size 8" (ablate) and "token grid extent 6 on
        # axis 0 is not divisible by masked/token patch ratio 4". The
        # swi.window ones failed only at the first validation, after an
        # epoch of training, with "extent 20 on axis 0 is not divisible by
        # patch size 8".
        labeled = ["--labeled-data", synth_dir, "--val-data", synth_dir]
        code = run([*command.split(), *(labeled if command.startswith("ablate") else []),
                    "--data", synth_dir, "--out", str(tmp_path / "out"),
                    "--set", assignment])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command, message", [
        (["reconstruct", "--depths", "0,x"], "--depths expects comma-separated integers, got 'x'"),
        (["reconstruct", "--depths", ","], "--depths needs at least one value, got ','"),
        (["ablate", "--patch-sizes", "8,1.5", "--ratios", "0.5"],
         "--patch-sizes expects comma-separated integers, got '1.5'"),
        (["ablate", "--patch-sizes", "8", "--ratios", "0.5,abc"],
         "--ratios expects comma-separated numbers, got 'abc'"),
        (["ablate", "--patch-sizes", "", "--ratios", "0.5"],
         "--patch-sizes needs at least one value, got ''"),
    ], ids=["depths-entry", "depths-empty", "patch-sizes-entry", "ratios-entry",
            "patch-sizes-empty"])
    def test_bad_comma_list_exit_1_names_flag(self, tmp_path, capsys, command, message):
        paths = {
            "reconstruct": ["--checkpoint", "none.vmim", "--volume", "none.vol"],
            "ablate": ["--data", "d", "--labeled-data", "l", "--val-data", "v"],
        }[command[0]]
        code = run(command + paths + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, payload", [
        ("list.json", b"[1, 2]"),
        ("config_list.json", b'{"config": ["train.base_lr"]}'),
        ("truncated.json", b'{"config": {'),
        ("latin1.cfg", "train.base_lr = 1e-3  # café\n".encode("latin-1")),
    ], ids=["top-level-list", "config-list", "bad-json", "not-utf8"])
    def test_malformed_config_file_exit_1_names_path(
        self, synth_dir, tmp_path, capsys, name, payload
    ):
        path = tmp_path / name
        path.write_bytes(payload)
        code = run(["pretrain", "--method", "simmim", "--data", synth_dir,
                    "--out", str(tmp_path / "out"), "--config", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err

    def test_eval_on_corrupt_checkpoint_exit_1(self, synth_dir, tmp_path, capsys):
        path = tmp_path / "corrupt.vmim"
        path.write_bytes(b"VMIM1\n" + struct.pack("<Q", 10**12) + b"{}")
        code = run(["eval", "--checkpoint", str(path), "--data", synth_dir,
                    "--out", str(tmp_path / "ev")])
        assert code == 1
        assert "header length" in capsys.readouterr().err


    @pytest.mark.parametrize("command, flag, value, key", [
        ("pretrain", "--epochs", "7", "train.total_epochs"),
        ("pretrain", "--window", "32", "train.window"),
        ("pretrain", "--mask-ratio", "0.5", "mask.ratio"),
        ("pretrain", "--masked-patch", "16", "mask.patch"),
        ("finetune", "--epochs", "7", "train.total_epochs"),
        ("finetune", "--window", "32", "train.window"),
        ("finetune", "--labeled-ratio", "0.5", "train.labeled_ratio"),
        ("finetune", "--classes", "4", "seg.num_classes"),
        ("eval", "--window", "32", "swi.window"),
        ("reconstruct", "--mask-ratio", "0.5", "mask.ratio"),
        ("reconstruct", "--masked-patch", "16", "mask.patch"),
    ])
    def test_value_flag_lands_on_its_key_in_the_manifest(
        self, synth_dir, tmp_path, command, flag, value, key
    ):
        # The manifest is written before any work starts, so the run may
        # then fail on its missing checkpoint or data.
        missing = str(tmp_path / "missing")
        inputs = {
            "pretrain": ["--method", "mae", "--data", missing],
            "finetune": ["--data", missing],
            "eval": ["--checkpoint", missing, "--data", synth_dir],
            "reconstruct": ["--checkpoint", missing, "--depths", "0",
                            "--volume", os.path.join(synth_dir, "sample0000.vol")],
        }[command]
        out = str(tmp_path / "out")
        run([command, *inputs, "--out", out, flag, value])
        config = json.load(open(os.path.join(out, "manifest.json")))["config"]
        expected = float(value) if "." in value else int(value)
        assert expected != DEFAULTS[key]
        assert config[key] == expected
        if key == "swi.window":
            assert config["train.window"] == DEFAULTS["train.window"]


class TestPretrainCLI:
    def test_mae_with_every_patch_masked_exit_1(self, synth_dir, tmp_path, capsys):
        code = run(["pretrain", "--method", "mae", "--data", synth_dir,
                    "--out", str(tmp_path / "full"), "--mask-ratio", "1.0",
                    "--epochs", "1", "--window", "16", "--set", "train.warmup_epochs=0",
                    "--set", "model.embed_dim=32", "--set", "model.depth=1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: mask.ratio 1.0 masks 8 of 8 patches at train.window 16; "
            "need at least one masked and one visible patch\n"
        )
        assert not (tmp_path / "full" / "trace.tsv").exists()

    @pytest.mark.parametrize("method, ratio, masked", [
        ("mae", "0.01", 0),
        ("simmim", "1.0", 8),
        ("simmim", "0.1", 0),
    ], ids=["mae-none-masked", "simmim-all-masked", "simmim-none-masked"])
    def test_degenerate_mask_exit_1_before_the_first_step(
        self, synth_dir, tmp_path, capsys, method, ratio, masked
    ):
        # At window 16 a token patch of 8 gives 8 patches. Unchecked, MAE
        # failed only at its first step, after trace.tsv was written, and
        # SimMIM trained with every patch masked and exited 0.
        out = tmp_path / "out"
        code = run(["pretrain", "--method", method, "--data", synth_dir, "--out", str(out),
                    "--mask-ratio", ratio, "--epochs", "1", "--window", "16",
                    "--set", "train.warmup_epochs=0", "--set", "model.embed_dim=32",
                    "--set", "model.depth=1"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: mask.ratio {float(ratio)} masks {masked} of 8 patches at train.window 16; "
            "need at least one masked and one visible patch\n"
        )
        assert not (out / "trace.tsv").exists()

    def test_manifest_echoes_masking_flags(self, synth_dir, tmp_path):
        out = str(tmp_path / "pre")
        code = run(["pretrain", "--method", "mae", "--data", synth_dir, "--out", out,
                    "--mask-ratio", "0.75", "--masked-patch", "16",
                    "--epochs", "1", "--window", "32",
                    "--set", "train.warmup_epochs=0", "--set", "model.token_patch=8",
                    "--set", "train.batch_size=4", "--set", "dec.dim=32",
                    "--set", "dec.depth=1", "--set", "model.embed_dim=32",
                    "--set", "model.depth=1"])
        assert code == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config"]["mask.ratio"] == 0.75
        assert manifest["config"]["mask.patch"] == 16
        assert manifest["inputs"]["method"] == "mae"
        assert os.path.exists(os.path.join(out, "checkpoint.vmim"))

    def test_rerun_from_manifest_reproduces_checkpoint(self, synth_dir, tmp_path):
        common = ["--method", "simmim", "--data", synth_dir,
                  "--epochs", "1", "--window", "16",
                  "--set", "model.embed_dim=32", "--set", "model.depth=1",
                  "--set", "train.warmup_epochs=0"]
        out_a = str(tmp_path / "a")
        assert run(["pretrain", *common, "--out", out_a]) == 0
        out_b = str(tmp_path / "b")
        assert run(["pretrain", "--method", "simmim", "--data", synth_dir,
                    "--out", out_b, "--config", os.path.join(out_a, "manifest.json")]) == 0
        bytes_a = open(os.path.join(out_a, "checkpoint.vmim"), "rb").read()
        bytes_b = open(os.path.join(out_b, "checkpoint.vmim"), "rb").read()
        assert bytes_a == bytes_b


@pytest.fixture(scope="module")
def small_checkpoints(synth_dir, tmp_path_factory):
    """(mae, seg) checkpoints of a non-default model: 32-dim, one block,
    a 16-dim one-block MAE decoder and a 4-wide segmentation decoder."""
    root = tmp_path_factory.mktemp("small")
    tiny = ["--data", synth_dir, "--epochs", "1", "--window", "16",
            "--set", "train.warmup_epochs=0", "--set", "model.embed_dim=32",
            "--set", "model.depth=1"]
    assert run(["pretrain", "--method", "mae", "--out", str(root / "pre"), *tiny,
                "--set", "dec.dim=16", "--set", "dec.depth=1"]) == 0
    assert run(["finetune", "--out", str(root / "fine"), *tiny, "--set", "seg.width=4"]) == 0
    return str(root / "pre" / "checkpoint.vmim"), str(root / "fine" / "checkpoint.vmim")


class TestCheckpointModelKeys:
    """eval and reconstruct build their model from the checkpoint's config
    echo, and reject a model key given with another value."""

    def test_eval_takes_model_keys_from_the_checkpoint(self, synth_dir, small_checkpoints,
                                                        tmp_path):
        seg = small_checkpoints[1]
        plain, explicit, rerun = (str(tmp_path / n) for n in ("plain", "explicit", "rerun"))
        common = ["eval", "--checkpoint", seg, "--data", synth_dir]
        assert run([*common, "--out", plain]) == 0
        assert run([*common, "--out", explicit, "--set", "model.embed_dim=32",
                    "--set", "seg.width=4", "--set", "seg.num_classes=3"]) == 0
        assert run([*common, "--out", rerun,
                    "--config", os.path.join(plain, "manifest.json")]) == 0
        config = json.load(open(os.path.join(plain, "manifest.json")))["config"]
        assert (config["model.embed_dim"], config["model.depth"], config["seg.width"]) == (32, 1, 4)
        # The windows tile at the checkpoint's training window, not the default 48.
        assert (config["train.window"], config["swi.window"]) == (16, 16)
        dataset = [(load_volume(os.path.join(synth_dir, f"sample{i:04d}.vol")),
                    load_labels(os.path.join(synth_dir, f"sample{i:04d}.lab"))) for i in range(4)]
        direct = tmp_path / "direct.txt"
        evaluate(seg, dataset, SlidingWindowConfig(16, 0.5)).save(str(direct))
        for out in (plain, explicit, rerun):
            assert open(os.path.join(out, "dice_report.txt")).read() == direct.read_text()

    @pytest.mark.parametrize("flags, message", [
        (["--set", "seg.num_classes=5"], "checkpoint seg.num_classes=3 conflicts with config 5"),
        (["--set", "model.embed_dim=64"], "checkpoint model.embed_dim=32 conflicts with config 64"),
        (["--config", "width.cfg"], "checkpoint seg.width=4 conflicts with config 8"),
        (["--set", "train.window=32"], "checkpoint train.window=16 conflicts with config 32"),
    ], ids=["set-classes", "set-default-embed-dim", "config-file-width", "set-window"])
    def test_eval_conflicting_model_key_exit_1(self, synth_dir, small_checkpoints, tmp_path,
                                               capsys, flags, message):
        # Unchecked, eval exited 0 with the checkpoint's model and wrote the
        # ignored value into its manifest.
        (tmp_path / "width.cfg").write_text("seg.width = 8\n")
        flags = [str(tmp_path / f) if f.endswith(".cfg") else f for f in flags]
        out = tmp_path / "out"
        code = run(["eval", "--checkpoint", small_checkpoints[1], "--data", synth_dir,
                    "--out", str(out), *flags])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, which, name", [
        ("eval", 1, "seg.head.w"),
        ("finetune", 0, "patch_embed.w"),
    ])
    def test_non_finite_checkpoint_tensor_exit_1_names_file_and_tensor(
        self, synth_dir, small_checkpoints, tmp_path, capsys, command, which, name
    ):
        # It used to load: eval printed Dice 0.0 and exited 0, and finetune
        # failed later with "non-finite loss at step 0".
        params, config = vmim.checkpoint.load_checkpoint(small_checkpoints[which])
        data = params[name].data.copy()
        data[0, 0] = np.nan
        params[name] = Tensor(data)
        path = str(tmp_path / "nan.vmim")
        vmim.checkpoint.save_checkpoint(path, params, config)
        extra = ["--epochs", "1", "--window", "16"] if command == "finetune" else []
        code = run([command, "--checkpoint", path, "--data", synth_dir,
                    "--out", str(tmp_path / "out"), *extra])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: tensor {name} holds non-finite values\n"
        )

    def test_eval_window_that_splits_no_token_patch_exit_1(self, synth_dir, small_checkpoints,
                                                           tmp_path, capsys):
        # It used to fail in the first window, naming no key: "extent 20 on
        # axis 0 is not divisible by patch size 8".
        code = run(["eval", "--checkpoint", small_checkpoints[1], "--data", synth_dir,
                    "--out", str(tmp_path / "out"), "--window", "20"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: swi.window 20 is not divisible by model.token_patch 8\n"
        )

    def test_reconstruct_takes_model_keys_from_the_checkpoint(self, synth_dir, small_checkpoints,
                                                              tmp_path, capsys):
        common = ["reconstruct", "--checkpoint", small_checkpoints[0], "--depths", "3",
                  "--volume", os.path.join(synth_dir, "sample0000.vol")]
        out = str(tmp_path / "rec")
        assert run([*common, "--out", out]) == 0
        config = json.load(open(os.path.join(out, "manifest.json")))["config"]
        assert (config["model.embed_dim"], config["dec.dim"], config["dec.depth"]) == (32, 16, 1)
        code = run([*common, "--out", str(tmp_path / "bad"), "--set", "dec.dim=48"])
        assert code == 1
        assert capsys.readouterr().err == "error: checkpoint dec.dim=16 conflicts with config 48\n"

    def test_finetune_conflicting_model_key_exit_1_names_it(self, synth_dir, small_checkpoints,
                                                            tmp_path, capsys):
        # Only four model keys were compared, so this failed while loading
        # the encoder: "encoder parameter 'enc.0.mlp1.w' has shape (32, 128)
        # in checkpoint, expected (32, 64)".
        code = run(["finetune", "--checkpoint", small_checkpoints[0], "--data", synth_dir,
                    "--out", str(tmp_path / "out"), "--epochs", "1", "--window", "16",
                    "--set", "train.warmup_epochs=0", "--set", "model.embed_dim=32",
                    "--set", "model.depth=1", "--set", "model.mlp_ratio=2"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: checkpoint model.mlp_ratio=4 conflicts with config 2\n"
        )

    @pytest.mark.parametrize("command, assignment", [
        ("eval", "dec.dim=48"),
        ("finetune", "mask.ratio=0.5"),
    ], ids=["eval-dec", "finetune-mask"])
    def test_set_of_a_key_the_command_never_reads_exit_1(
        self, synth_dir, small_checkpoints, tmp_path, capsys, command, assignment
    ):
        # Both used to exit 0 and write the unused value into the manifest.
        # A config file may still hold such keys: the rerun from a manifest
        # above passes every key to eval.
        inputs = ["--checkpoint", small_checkpoints[1]] if command == "eval" else []
        out = tmp_path / "out"
        code = run([command, *inputs, "--data", synth_dir, "--out", str(out),
                    "--set", assignment])
        assert code == 1
        key = assignment.partition("=")[0]
        assert capsys.readouterr().err == f"error: {key} is not read by {command}\n"
        assert not out.exists()

    def test_eval_and_reconstruct_read_the_payload_once(self, synth_dir, small_checkpoints,
                                                        tmp_path, monkeypatch):
        # cli._config takes the config echo from the header; the payload is
        # read once, by evaluate or reconstruct_dump.
        loads = []
        real = vmim.checkpoint.load_checkpoint

        def counted(path):
            loads.append(path)
            return real(path)

        for module in (vmim.cli, vmim.inference):
            monkeypatch.setattr(module, "load_checkpoint", counted)
        mae, seg = small_checkpoints
        assert run(["eval", "--checkpoint", seg, "--data", synth_dir,
                    "--out", str(tmp_path / "ev")]) == 0
        assert run(["reconstruct", "--checkpoint", mae, "--depths", "3",
                    "--volume", os.path.join(synth_dir, "sample0000.vol"),
                    "--out", str(tmp_path / "rec")]) == 0
        assert loads == [seg, mae]


class TestAblateCLI:
    def test_micro_grid_table_layout_and_rerun(self, synth_dir, tmp_path):
        args = [
            "ablate", "--method", "simmim", "--data", synth_dir,
            "--labeled-data", synth_dir, "--val-data", synth_dir,
            "--patch-sizes", "8", "--ratios", "0.25,0.75",
            "--set", "model.embed_dim=32", "--set", "model.depth=1",
            "--set", "model.token_patch=8", "--set", "train.window=16",
            "--set", "train.total_epochs=1", "--set", "train.warmup_epochs=0",
            "--set", "seg.width=4", "--set", "train.batch_size=4",
        ]
        out_a = str(tmp_path / "ab1")
        assert run(args + ["--out", out_a]) == 0
        table = open(os.path.join(out_a, "ablation.tsv")).read().splitlines()
        assert table[0] == "method\tmasked_patch_size\tmasking_ratio\tdice_avg"
        assert len(table) == 3
        for row in table[1:]:
            method, patch, ratio, score = row.split("\t")
            assert method == "simmim"
            assert patch == "8"
            assert 0.0 <= float(score) <= 1.0

        out_b = str(tmp_path / "ab2")
        assert run(args + ["--out", out_b]) == 0
        assert (
            open(os.path.join(out_a, "ablation.tsv")).read()
            == open(os.path.join(out_b, "ablation.tsv")).read()
        )

    def test_degenerate_mask_cell_aborts_before_training(self, synth_dir, tmp_path, capsys):
        # At window 16 a token patch of 8 gives 8 patches, and ratio 0.01
        # masks none. The grid check used to cover only the patch sizes, so
        # the 0.75 cell was pretrained and fine-tuned before pretrain
        # rejected the 0.01 one.
        out = str(tmp_path / "degenerate")
        code = run([
            "ablate", "--method", "mae", "--data", synth_dir,
            "--labeled-data", synth_dir, "--val-data", synth_dir,
            "--patch-sizes", "8", "--ratios", "0.75,0.01", "--out", out,
            "--set", "train.window=16", "--set", "train.total_epochs=1",
            "--set", "train.warmup_epochs=0", "--set", "model.embed_dim=32",
            "--set", "model.depth=1", "--set", "seg.width=4",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: mask.ratio 0.01 masks 0 of 8 patches at train.window 16; "
            "need at least one masked and one visible patch\n"
        )
        assert not any(p.startswith("cell_") for p in os.listdir(out))

    def test_invalid_cell_aborts_before_training(self, synth_dir, tmp_path, capsys):
        out = str(tmp_path / "bad")
        code = run([
            "ablate", "--method", "simmim", "--data", synth_dir,
            "--labeled-data", synth_dir, "--val-data", synth_dir,
            "--patch-sizes", "12", "--ratios", "0.5", "--out", out,
        ])
        assert code == 1
        assert "multiple" in capsys.readouterr().err
        assert not any(p.startswith("cell_") for p in os.listdir(out))


# Runs the CLI with every scipy import made to fail, after checking that it does.
_WITHOUT_SCIPY = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"no module named {name!r}")


sys.meta_path.insert(0, NoScipy())
try:
    import scipy.special  # noqa: F401
except ImportError:
    pass
else:
    sys.exit("scipy still imports")
from vmim.cli import run

sys.exit(run(sys.argv[1:]))
"""


def test_pipeline_runs_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(vmim.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    data, pre, fine, ev = (str(tmp_path / name) for name in ("data", "pre", "fine", "eval"))
    tiny = ["--window", "16", "--epochs", "1", "--set", "train.warmup_epochs=0",
            "--set", "model.embed_dim=32", "--set", "model.depth=1"]
    steps = [
        ["synth", "--seed", "3", "--count", "4", "--shape", "16", "--classes", "3", "--out", data],
        ["pretrain", "--method", "mae", "--data", data, "--out", pre, *tiny],
        ["finetune", "--checkpoint", os.path.join(pre, "checkpoint.vmim"), "--data", data,
         "--out", fine, *tiny, "--set", "seg.width=4"],
        ["eval", "--checkpoint", os.path.join(fine, "checkpoint.vmim"), "--data", data,
         "--out", ev],
    ]
    for argv in steps:
        done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, (argv[0], done.stderr)
    assert os.path.exists(os.path.join(ev, "dice_report.txt"))


# Runs the CLI with its address space capped, in this child process only.
_WITH_ADDRESS_LIMIT = """
import resource
import sys

import numpy

resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), resource.RLIM_INFINITY))
from vmim.cli import run

sys.exit(run(sys.argv[2:]))
"""


def test_out_of_memory_exits_1_without_a_traceback(tmp_path):
    # A 24000-wide model asks numpy for 4.3 GiB per attention weight. Under
    # a 1.5 GB address-space limit the allocation fails at once, and
    # nothing close to the machine's memory is ever touched.
    data = str(tmp_path / "data")
    assert run(["synth", "--seed", "3", "--count", "2", "--shape", "16", "--out", data]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(vmim.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    argv = ["pretrain", "--method", "mae", "--data", data, "--out", str(tmp_path / "pre"),
            "--window", "16", "--epochs", "1", "--set", "train.warmup_epochs=0",
            "--set", "model.embed_dim=24000"]
    done = subprocess.run([sys.executable, "-c", _WITH_ADDRESS_LIMIT, str(1_500_000_000), *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: out of memory: "), done.stderr
    assert "Traceback" not in done.stderr
