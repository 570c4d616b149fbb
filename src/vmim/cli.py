"""Command-line entry point.

Subcommands: synth, pretrain, finetune, eval, reconstruct, ablate. Every
artifact-producing run writes a manifest.json (resolved config, seed,
planned artifact paths) before any work starts; re-running with
``--config <out>/manifest.json`` and the same data reproduces the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .checkpoint import load_checkpoint, load_checkpoint_config
from .config import ConfigError, build, check_echo, check_window, resolve_config
from .inference import evaluate, reconstruct_dump
from .patches import MaskingConfig, check_mask_at_window
from .rng import derive_seed
from .train import finetune, pretrain
from .volume import (
    LabelVolume,
    Volume,
    check_pair,
    load_labels,
    load_volume,
    save_labels,
    save_volume,
    synth_generate,
)


def _load_unlabeled(directory: str) -> list[Volume]:
    names = sorted(f for f in os.listdir(directory) if f.endswith(".vol"))
    if not names:
        raise FileNotFoundError(f"no .vol files in {directory}")
    return [load_volume(os.path.join(directory, n)) for n in names]


def _load_labeled(directory: str) -> list[tuple[Volume, LabelVolume]]:
    names = sorted(f for f in os.listdir(directory) if f.endswith(".vol"))
    pairs = []
    for n in names:
        vol, lab = os.path.join(directory, n), os.path.join(directory, n[: -len(".vol")] + ".lab")
        if not os.path.exists(lab):
            raise FileNotFoundError(f"no label file for {n} in {directory}")
        pair = (load_volume(vol), load_labels(lab))
        check_pair(*pair, f"{vol} and {lab}")
        pairs.append(pair)
    if not pairs:
        raise FileNotFoundError(f"no labeled volume pairs in {directory}")
    return pairs


def _write_manifest(
    out_dir: str,
    subcommand: str,
    config: dict,
    seed: int,
    artifacts: list[str],
    inputs: dict | None = None,
):
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "subcommand": subcommand,
        "seed": seed,
        "config": config,
        "inputs": inputs or {},
        "artifacts": sorted(artifacts),
        "version": __version__,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be at least 1, got {args.count}")
    # Before the manifest: a rejected --shape or --classes leaves none.
    samples = synth_generate(args.seed, args.count, args.shape, args.classes, noise=args.noise)
    out = args.out
    config = {
        "count": args.count,
        "shape": args.shape,
        "classes": args.classes,
        "noise": args.noise,
    }
    stems = [os.path.join(out, f"sample{i:04d}") for i in range(args.count)]
    _write_manifest(
        out, "synth", config, args.seed,
        [s + ext for s in stems for ext in (".vol", ".volh", ".lab", ".labh")],
    )
    for stem, (volume, labels) in zip(stems, samples):
        save_volume(stem + ".vol", volume)
        save_labels(stem + ".lab", labels)
    print(f"wrote {len(samples)} volume/label pairs to {out}")
    return 0


def _pretrain_once(method, cfg, seed, data_dir, out_dir):
    dataset = _load_unlabeled(data_dir)
    return pretrain(
        method,
        build("model", cfg),
        build("train", cfg, seed=seed),
        dataset,
        out_dir,
        mask_cfg=build("mask", cfg),
        dec_cfg=build("dec", cfg),
        recon_cfg=build("recon", cfg),
        simclr_cfg=build("simclr", cfg),
    )


# The sections of a checkpoint's config echo that describe its model.
_MODEL_SECTIONS = ("model", "seg", "dec", "recon", "simclr")


def _config(args, checkpoint: str | None = None) -> dict:
    """The resolved config of a run (config.resolve_config): --config, the
    value flags (each parsed into its dotted config key as dest) and --set,
    over the model keys and train.window of a ``checkpoint``'s config echo,
    which is read from its header alone."""
    flags = {key: value for key, value in vars(args).items() if "." in key}
    echo = {}
    # A missing checkpoint fails once the manifest is written, as missing data does.
    if checkpoint and os.path.exists(checkpoint):
        echo = {key: value for key, value in load_checkpoint_config(checkpoint).items()
                if key == "train.window" or key.partition(".")[0] in _MODEL_SECTIONS}
    return resolve_config(args.config, flags, args.set, echo, command=args.subcommand)


def _cmd_pretrain(args) -> int:
    cfg = _config(args)
    _write_manifest(
        args.out, "pretrain", cfg, args.seed,
        [os.path.join(args.out, "checkpoint.vmim"), os.path.join(args.out, "trace.tsv")],
        inputs={"method": args.method, "data": args.data},
    )
    result = _pretrain_once(args.method, cfg, args.seed, args.data, args.out)
    print(f"pretrained {args.method}: final loss {result.losses[-1]:.6f} "
          f"-> {result.checkpoint_path}")
    return 0


def _finetune_once(cfg, seed, checkpoint, data_dir, val_dir, out_dir):
    train_set = _load_labeled(data_dir)
    val_set = _load_labeled(val_dir) if val_dir else []
    seg_cfg = build("seg", cfg, vit=build("model", cfg))
    checkpoint_params = None
    if checkpoint:
        checkpoint_params, echo = load_checkpoint(checkpoint)
        check_echo(echo, {key: value for key, value in cfg.items() if key.startswith("model.")})
    return finetune(
        checkpoint_params,
        seg_cfg,
        build("train", cfg, seed=seed),
        train_set,
        val_set,
        out_dir,
        labeled_ratio=cfg["train.labeled_ratio"],
        swi_cfg=build("swi", cfg),
    )


def _cmd_finetune(args) -> int:
    cfg = _config(args)
    _write_manifest(
        args.out, "finetune", cfg, args.seed,
        [os.path.join(args.out, "checkpoint.vmim"), os.path.join(args.out, "trace.tsv")],
        inputs={"data": args.data, "val_data": args.val_data, "checkpoint": args.checkpoint},
    )
    result = _finetune_once(
        cfg, args.seed, args.checkpoint, args.data, args.val_data, args.out
    )
    note = f", final dice {result.final_dice:.4f}" if result.dice_trace else ""
    print(f"finetuned: final loss {result.losses[-1]:.6f}{note} -> {result.checkpoint_path}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _config(args, args.checkpoint)
    dataset = _load_labeled(args.data)
    report_path = os.path.join(args.out, "dice_report.txt")
    _write_manifest(
        args.out, "eval", cfg, args.seed, [report_path],
        inputs={"data": args.data, "checkpoint": args.checkpoint},
    )
    report = evaluate(args.checkpoint, dataset, build("swi", cfg))
    report.save(report_path)
    print(report.to_text(), end="")
    print(f"report -> {report_path}")
    return 0


def _comma_list(flag: str, text: str, kind: type) -> list:
    """The entries of a comma-separated flag value, each parsed by ``kind``;
    a bad entry or an empty list raises ConfigError naming the flag."""
    noun = "integers" if kind is int else "numbers"
    values = []
    for entry in text.split(","):
        if not entry:
            continue
        try:
            values.append(kind(entry))
        except ValueError:
            raise ConfigError(f"{flag} expects comma-separated {noun}, got {entry!r}") from None
    if not values:
        raise ConfigError(f"{flag} needs at least one value, got {text!r}")
    return values


def _cmd_reconstruct(args) -> int:
    depths = _comma_list("--depths", args.depths, int)
    cfg = _config(args, args.checkpoint)
    volume = load_volume(args.volume)
    _write_manifest(
        args.out, "reconstruct", cfg, args.seed, [],
        inputs={"volume": args.volume, "depths": depths, "checkpoint": args.checkpoint},
    )
    mask_cfg = build("mask", cfg)
    paths = reconstruct_dump(args.checkpoint, volume, mask_cfg, depths, args.out, seed=args.seed)
    print(f"wrote {len(paths)} images to {args.out}")
    return 0


def _cmd_ablate(args) -> int:
    patches = _comma_list("--patch-sizes", args.patch_sizes, int)
    ratios = _comma_list("--ratios", args.ratios, float)
    cfg = _config(args)
    table_path = os.path.join(args.out, "ablation.tsv")
    _write_manifest(
        args.out, "ablate", cfg, args.seed, [table_path],
        inputs={"method": args.method, "patch_sizes": patches, "ratios": ratios,
                "data": args.data, "labeled_data": args.labeled_data,
                "val_data": args.val_data},
    )

    # Validate the whole grid before any training starts.
    token_patch = build("model", cfg).token_patch
    window = build("train", cfg, seed=args.seed).window
    cells = []
    for patch in patches:
        for ratio in ratios:
            check_mask_at_window(MaskingConfig(patch, ratio), token_patch, window)
            cells.append((patch, ratio))
    check_window(build("swi", cfg).window, token_patch, "swi.window")

    rows = []
    for patch, ratio in cells:
        cell_cfg = dict(cfg)
        cell_cfg["mask.patch"] = patch
        cell_cfg["mask.ratio"] = ratio
        cell_seed = derive_seed(args.seed, "ablate", patch, repr(ratio))
        cell_dir = os.path.join(args.out, f"cell_p{patch}_r{ratio}")
        result = _pretrain_once(args.method, cell_cfg, cell_seed, args.data,
                                os.path.join(cell_dir, "pretrain"))
        ft = _finetune_once(cell_cfg, cell_seed, result.checkpoint_path, args.labeled_data,
                            args.val_data, os.path.join(cell_dir, "finetune"))
        rows.append((args.method, patch, ratio, ft.final_dice))
        print(f"cell patch={patch} ratio={ratio}: dice avg {ft.final_dice:.4f}")

    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("method\tmasked_patch_size\tmasking_ratio\tdice_avg\n")
        for method, patch, ratio, score in rows:
            fh.write(f"{method}\t{patch}\t{ratio!r}\t{score!r}\n")
    print(f"table -> {table_path}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub, with_config=True):
    sub.add_argument("--seed", type=int, default=0)
    if with_config:
        sub.add_argument("--config", help="key = value config file or a manifest.json")
        sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override one dotted config key")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmim",
        description="Masked image modeling on 3D volumes: pretraining, "
                    "segmentation fine-tuning, evaluation, ablations.",
    )
    parser.add_argument("--version", action="version", version=f"vmim {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    synth = subs.add_parser("synth", help="generate synthetic volume/label pairs")
    synth.add_argument("--count", type=int, required=True)
    synth.add_argument("--shape", type=int, required=True)
    synth.add_argument("--classes", type=int, default=3)
    synth.add_argument("--noise", type=float, default=0.08)
    synth.add_argument("--out", required=True)
    _add_common(synth, with_config=False)
    synth.set_defaults(func=_cmd_synth)

    pre = subs.add_parser("pretrain", help="self-supervised pretraining")
    pre.add_argument("--method", choices=("mae", "simmim", "simclr"), required=True)
    pre.add_argument("--data", required=True, help="directory of .vol files")
    pre.add_argument("--out", required=True)
    pre.add_argument("--mask-ratio", type=float, dest="mask.ratio")
    pre.add_argument("--masked-patch", type=int, dest="mask.patch")
    pre.add_argument("--epochs", type=int, dest="train.total_epochs")
    pre.add_argument("--window", type=int, dest="train.window")
    _add_common(pre)
    pre.set_defaults(func=_cmd_pretrain)

    fine = subs.add_parser("finetune", help="segmentation fine-tuning")
    fine.add_argument("--checkpoint", help="pretraining checkpoint; omit to train from scratch")
    fine.add_argument("--data", required=True, help="directory of labeled .vol/.lab pairs")
    fine.add_argument("--val-data", help="validation directory of labeled pairs")
    fine.add_argument("--out", required=True)
    fine.add_argument("--labeled-ratio", type=float, dest="train.labeled_ratio")
    fine.add_argument("--classes", type=int, dest="seg.num_classes")
    fine.add_argument("--epochs", type=int, dest="train.total_epochs")
    fine.add_argument("--window", type=int, dest="train.window")
    _add_common(fine)
    fine.set_defaults(func=_cmd_finetune)

    ev = subs.add_parser("eval", help="Dice evaluation of a segmentation checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--window", type=int, dest="swi.window")
    _add_common(ev)
    ev.set_defaults(func=_cmd_eval)

    rec = subs.add_parser("reconstruct", help="dump original/masked/reconstructed slices")
    rec.add_argument("--checkpoint", required=True)
    rec.add_argument("--volume", required=True)
    rec.add_argument("--depths", required=True, help="comma-separated depth indices")
    rec.add_argument("--out", required=True)
    rec.add_argument("--mask-ratio", type=float, dest="mask.ratio")
    rec.add_argument("--masked-patch", type=int, dest="mask.patch")
    _add_common(rec)
    rec.set_defaults(func=_cmd_reconstruct)

    abl = subs.add_parser("ablate", help="masked patch size x masking ratio sweep")
    abl.add_argument("--method", choices=("mae", "simmim"), default="mae")
    abl.add_argument("--data", required=True)
    abl.add_argument("--labeled-data", required=True)
    abl.add_argument("--val-data", required=True)
    abl.add_argument("--out", required=True)
    abl.add_argument("--patch-sizes", required=True, help="comma-separated, e.g. 16,32")
    abl.add_argument("--ratios", required=True, help="comma-separated, e.g. 0.15,0.75")
    _add_common(abl)
    abl.set_defaults(func=_cmd_ablate)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
