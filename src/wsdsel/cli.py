"""Command-line surface: synth, train, eval, gradcheck.

Every tunable is a config-file key (flat `key = value` lines, `#` comments)
and equally a command-line flag of the same name; precedence is flag over
file over default. Each command writes a RunManifest JSON next to its
outputs with the fully resolved configuration, so a run is reproducible
from the manifest alone.

Every output is written beside its path under a temporary name, text as
UTF-8, and a command's outputs are renamed into place together once all
are written (`data.removed_on_failure`): a failed `synth`, `train` or
`eval` leaves every previous file as it was. `synth`, `train` and `eval`
refuse, before anything is written, an output that is an existing
directory or the same file as an input (`--dataset`, its features file,
`--checkpoint`, `--config`), as a features file `synth` writes, or as
another output; `train` and `eval` check once the dataset is loaded,
`synth` before it generates anything.

Exit codes: 0 success, 2 configuration error (an output that cannot be
written or would replace an input or another output included), 3 data
error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from stat import S_ISDIR
from typing import Any, Optional

from wsdsel import __version__
from wsdsel.data import (SynthConfig, features_path, generate_synthetic, load_dataset, removed_on_failure, replaced,
                         save_dataset, split_dataset)
from wsdsel.errors import ConfigError, DataError, TrainingError
from wsdsel.evaluation import EvalOptions, ap_by_class, dump_pr_curves, evaluate_map
from wsdsel.head import run_gradcheck
from wsdsel.schedule import PruneSchedule
from wsdsel.trainer import TrainConfig, TrainState, load_checkpoint, save_checkpoint, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


@dataclass(frozen=True)
class Key:
    name: str
    type: type
    default: Any
    help: str = ""


SYNTH_KEYS = [
    Key("n_images", int, SynthConfig.n_images, "number of images to generate"),
    Key("num_classes", int, SynthConfig.num_classes, "number of object classes"),
    Key("feat_dim", int, SynthConfig.feat_dim, "feature dimensionality"),
    Key("proposals_per_image", int, SynthConfig.proposals_per_image, "candidate regions per image"),
    Key("objects_min", int, SynthConfig.objects_min, "minimum ground-truth objects per image"),
    Key("objects_max", int, SynthConfig.objects_max, "maximum ground-truth objects per image"),
    Key("noise_sigma", float, SynthConfig.noise_sigma, "feature noise standard deviation"),
    Key("context_fraction", float, SynthConfig.context_fraction,
        "fraction of proposals that are oversized context boxes"),
    Key("distractor_strength", float, SynthConfig.distractor_strength, "scale of the shared scene-context direction"),
    Key("n_views", int, SynthConfig.n_views, "feature views per image"),
    Key("seed", int, SynthConfig.seed, "generation seed"),
    Key("train_split", int, 0, "if > 0, write <out>-train/<out>-test datasets split at this index (< n_images)"),
]

TRAIN_KEYS = [
    Key("learning_rate", float, TrainConfig.learning_rate, "SGD learning rate"),
    Key("momentum", float, TrainConfig.momentum, "SGD momentum"),
    Key("weight_decay", float, TrainConfig.weight_decay, "L2 weight decay"),
    Key("epochs", int, TrainConfig.total_epochs, "training epochs"),
    Key("seed", int, TrainConfig.seed, "initialization/shuffle seed"),
    Key("epsilon", float, TrainConfig.epsilon, "aggregated-score clamp"),
    Key("lr_decay_epoch", int, TrainConfig.lr_decay_epoch, "epoch at which the learning rate steps down (-1 disables)"),
    Key("lr_decay_factor", float, TrainConfig.lr_decay_factor, "learning-rate step factor"),
    Key("warmup_epochs", int, PruneSchedule.warmup_epochs, "epochs with the full positive region set"),
    Key("m_start", int, PruneSchedule.m_start, "positive budget at the end of warmup"),
    Key("m_final", int, PruneSchedule.m_final, "positive budget floor"),
    Key("m_neg", int, PruneSchedule.m_neg, "negative budget (constant)"),
    Key("schedule_epochs", int, 0, "pruning-schedule horizon (0: max(epochs, warmup+1))"),
    Key("baseline", bool, TrainConfig.baseline, "disable region selection (budgets = all regions)"),
]

EVAL_KEYS = [
    Key("mask_mode", str, EvalOptions.mask_mode, "test-time importance mask: all | top_mpt"),
    Key("top_m", int, EvalOptions.top_m, "top-M budget for mask_mode=top_mpt and the concentration diagnostic"),
    Key("ap_protocol", str, EvalOptions.ap_protocol, "AP protocol: eleven_point | area"),
    Key("nms_threshold", float, EvalOptions.nms_threshold, "NMS IoU threshold"),
    Key("vote_threshold", float, EvalOptions.vote_threshold, "box-voting IoU threshold"),
    Key("score_floor", float, EvalOptions.score_floor, "drop detections scoring below this"),
    Key("iou_threshold", float, EvalOptions.iou_threshold, "IoU threshold for a correct detection"),
    Key("both", bool, False, "also report the other AP protocol in diagnostics"),
    Key("pr_csv", str, "", "optional path for a per-class PR-curve CSV dump"),
]

GRADCHECK_KEYS = [
    Key("seed", int, 0, "instance-generation seed"),
    Key("instances", int, 100, "number of random instances"),
    Key("max_regions", int, 12, "max regions per instance"),
    Key("max_classes", int, 4, "max classes per instance"),
    Key("max_dim", int, 8, "max feature dimension"),
    Key("step", float, 1e-4, "finite-difference step"),
    Key("tolerance", float, 1e-4, "max relative error allowed"),
]


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean value {text!r}")


def read_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as err:  # ValueError: not UTF-8
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def resolve_config(keys: list[Key], args: argparse.Namespace) -> dict[str, Any]:
    """Merge defaults, config-file entries, and flags (flags win)."""
    by_name = {k.name: k for k in keys}
    resolved = {k.name: k.default for k in keys}
    if getattr(args, "config", None):
        file_values = read_config_file(args.config)
        unknown = sorted(set(file_values) - set(by_name))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        for name, text in file_values.items():
            key = by_name[name]
            try:
                resolved[name] = _parse_bool(text) if key.type is bool else key.type(text)
            except ValueError as err:
                raise ConfigError(f"config key {name}: {err}") from err
    for key in keys:
        flag_value = getattr(args, key.name, None)
        if flag_value is not None:
            resolved[key.name] = flag_value
    return resolved


def _settings(cls, config: dict[str, Any], **others):
    """The dataclass `cls` of the config keys named as its fields, `others` in place of some."""
    return cls(**{f.name: config[f.name] for f in fields(cls) if f.name in config} | others)


def _os_text(value):
    """A path string as a run manifest records it: its OS bytes read as UTF-8, an undecodable byte as \\xNN.

    Under a non-UTF-8 locale a name's bytes reach `sys.argv` as surrogate
    escapes, which the manifest would otherwise record as lone surrogates.
    """
    return os.fsencode(value).decode("utf-8", "backslashreplace") if isinstance(value, str) else value


def _manifest_path(out: Path) -> Path:
    return out.parent / (out.name + ".manifest.json")


def _refuse_overwrites(inputs: dict[str, Any], outputs: dict[str, Any], features: Optional[tuple[int, int]] = None):
    """ConfigError if an output is a directory, or the same file as an input, the features file or an earlier output.

    Each path is keyed once: a file that exists by its (st_dev, st_ino), as `Dataset.features_file` keys
    the features file a load read, so a link counts as the file it names; one that does not exist by its
    resolved path. Unset (empty) paths are skipped, and so are names no file can have: their own writes fail.
    """
    taken = {features: "the dataset's features file"} if features else {}
    for refuse, named in ((False, inputs), (True, outputs)):
        for name, path in named.items():
            if not path:
                continue
            try:
                stat = os.stat(path)
            except FileNotFoundError:
                key = os.path.realpath(path)
            except (OSError, ValueError):  # ValueError: a NUL, or a name the filesystem encoding cannot hold
                continue
            else:
                if refuse and S_ISDIR(stat.st_mode):  # no rename onto it could succeed
                    raise ConfigError(f"{name} {path} is a directory; refusing to write it")
                key = stat.st_dev, stat.st_ino
            if refuse and key in taken:
                raise ConfigError(f"{name} {path} is the same file as {taken[key]}; refusing to overwrite it")
            taken[key] = f"{name} {path}"


def write_manifest(out_path: Path, command: str, config: dict, inputs: dict, outputs: dict, started: float):
    manifest = {
        "command": command,
        "config": {key: _os_text(value) for key, value in config.items()},
        "seed": config.get("seed"),
        "inputs": {key: _os_text(path) for key, path in inputs.items()},
        "outputs": {key: _os_text(path) for key, path in outputs.items()},
        "version": __version__,
        "duration_s": round(time.time() - started, 3),
    }
    with replaced(_manifest_path(out_path)) as fh:
        fh.write(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def cmd_synth(args: argparse.Namespace, config: dict[str, Any]) -> int:
    started = time.time()
    split_at = config["train_split"]
    cfg = _settings(SynthConfig, config)
    if split_at and not 0 < split_at < cfg.n_images:  # checked before any image is generated
        raise ConfigError(f"train_split must be 0 (no split) or in (0, {cfg.n_images}), got {split_at}")
    out = Path(args.out)
    if split_at:
        paths = {"train_dataset": out.parent / (out.stem + "-train.json"),
                 "test_dataset": out.parent / (out.stem + "-test.json")}
    else:
        paths = {"dataset": out}
    features = {f"the {name.replace('_', ' ')}'s features file": features_path(path) for name, path in paths.items()}
    _refuse_overwrites({"--config": args.config}, {**paths, "the run manifest": _manifest_path(out), **features})
    ds = generate_synthetic(cfg)
    parts = split_dataset(ds, split_at) if split_at else (ds,)
    outputs = {name: str(path) for name, path in paths.items()}
    with removed_on_failure():
        for dataset, path in zip(parts, paths.values()):
            save_dataset(dataset, path)
        write_manifest(out, "synth", config, {}, outputs, started)
    print(f"wrote {', '.join(outputs.values())} ({len(ds.images)} images)")
    return EXIT_OK


def _build_train_config(config: dict[str, Any]) -> TrainConfig:
    if config["schedule_epochs"] < 0:
        raise ConfigError("schedule_epochs must be >= 0 (0 means max(epochs, warmup_epochs + 1)), "
                          f"got {config['schedule_epochs']}")
    horizon = config["schedule_epochs"] or max(config["epochs"], config["warmup_epochs"] + 1)
    return _settings(TrainConfig, config, total_epochs=config["epochs"],
                     schedule=_settings(PruneSchedule, config, total_epochs=horizon),
                     lr_decay_epoch=None if config["lr_decay_epoch"] == -1 else config["lr_decay_epoch"])


def _write_loss_csv(path: Path, state: TrainState, config: TrainConfig):
    lines = ["epoch,mean_loss,m_pos,m_neg"]
    for epoch, loss in enumerate(state.loss_history):
        m_pos, m_neg = ("n" if m is None else m for m in config.budgets(epoch))
        lines.append(f"{epoch},{loss!r},{m_pos},{m_neg}")
    with replaced(path) as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_train(args: argparse.Namespace, config: dict[str, Any]) -> int:
    started = time.time()
    train_config = _build_train_config(config)
    out = Path(args.out)
    loss_csv = out.parent / (out.stem + "_loss.csv")
    targets = {"--out": out, "the loss CSV": loss_csv, "the run manifest": _manifest_path(out)}
    dataset = load_dataset(args.dataset)
    _refuse_overwrites({"--dataset": args.dataset, "--config": args.config}, targets, dataset.features_file)
    state = train(dataset, train_config)
    with removed_on_failure():
        save_checkpoint(state, out)
        _write_loss_csv(loss_csv, state, train_config)
        write_manifest(out, "train", config, {"dataset": str(args.dataset)},
                       {"checkpoint": str(out), "loss_history": str(loss_csv)}, started)
    final = state.loss_history[-1] if state.loss_history else float("nan")
    print(f"trained {state.epoch} epochs on {len(dataset.images)} images; final mean loss {final:.6f}")
    print(f"wrote {out} and {loss_csv}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace, config: dict[str, Any]) -> int:
    started = time.time()
    opts = _settings(EvalOptions, config)
    out = Path(args.out)
    targets = {"--out": out, "--pr-csv": config["pr_csv"], "the run manifest": _manifest_path(out)}
    dataset = load_dataset(args.dataset)
    _refuse_overwrites({"--dataset": args.dataset, "--checkpoint": args.checkpoint, "--config": args.config},
                       targets, dataset.features_file)
    state = load_checkpoint(args.checkpoint)
    report = evaluate_map(dataset, state.params, opts)
    if config["both"]:
        other = "area" if opts.ap_protocol == "eleven_point" else "eleven_point"
        per_class, mean_ap = ap_by_class(report.curves, other)
        report.diagnostics[f"map_{other}"] = mean_ap
        report.diagnostics[f"per_class_ap_{other}"] = per_class
    outputs = {"report": str(out)}
    with removed_on_failure():
        with replaced(out) as fh:
            fh.write(report.to_json())
        if config["pr_csv"]:
            dump_pr_curves(report.curves, dataset.class_names, config["pr_csv"])
            outputs["pr_csv"] = config["pr_csv"]
        write_manifest(out, "eval", config, {"dataset": str(args.dataset), "checkpoint": str(args.checkpoint)},
                       outputs, started)
    print(f"mAP {report.map:.4f}  mean CorLoc {report.mean_corloc:.4f}  ({report.n_images} images)")
    print(f"wrote {out}")
    if report.diagnostics["n_detections"] == 0:
        print(
            f"warning: no detections: no region scored at least score_floor={opts.score_floor:g} for any class, "
            "so every AP is 0 (see diagnostics.classes_without_candidates)",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace, config: dict[str, Any]) -> int:
    report = run_gradcheck(**config)
    print(f"gradcheck: {report['instances']} instances, max relative error {report['max_rel_error']:.3e}")
    if report["passed"]:
        print(f"PASS (tolerance {report['tolerance']:.1e})")
        return EXIT_OK
    print(f"FAIL (tolerance {report['tolerance']:.1e}); worst: {report['worst_instance']}", file=sys.stderr)
    return EXIT_NUMERIC


@dataclass(frozen=True)
class Command:
    help: str
    inputs: dict[str, str]  # the required input flags, each with its help
    out: Optional[str]  # the help of the required --out flag; None: the command takes none
    keys: list[Key]
    # A cmd_* function of this module, looked up by name when the command runs, so that a wrapper put
    # in the module's namespace in its place is the one called.
    handler: str


# The one table of commands: `build_parser` makes each subparser from it, and `main` resolves a command's keys
# before it calls the handler.
COMMANDS = {
    "synth": Command("generate a synthetic dataset", {}, "dataset manifest path (JSON)", SYNTH_KEYS, "cmd_synth"),
    "train": Command("train the detection head", {"--dataset": "dataset manifest path"}, "checkpoint output path",
                     TRAIN_KEYS, "cmd_train"),
    "eval": Command("evaluate a checkpoint: mAP, CorLoc, diagnostics",
                    {"--dataset": "dataset manifest path", "--checkpoint": "checkpoint path"},
                    "report output path (JSON)", EVAL_KEYS, "cmd_eval"),
    "gradcheck": Command("verify backward against finite differences", {}, None, GRADCHECK_KEYS, "cmd_gradcheck"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wsdsel", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"wsdsel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, text in command.inputs.items():
            p.add_argument(flag, required=True, help=text)
        p.add_argument("--config", help="key-value config file")
        if command.out:
            p.add_argument("--out", required=True, help=command.out)
        for key in command.keys:
            flag = "--" + key.name.replace("_", "-")
            if key.type is bool:
                p.add_argument(flag, action=argparse.BooleanOptionalAction, default=None, help=key.help)
            else:
                p.add_argument(flag, type=key.type, default=None, help=key.help)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once per process: every `main` call parses with it."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        return globals()[command.handler](args, resolve_config(command.keys, args))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as err:
        print(f"training error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as err:  # every read wraps its OSError in a DataError or ConfigError, so this is a write
        print(f"config error: cannot write output: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
