"""Command-line surface: synth, train, eval, gradcheck.

Every tunable is a config-file key (flat `key = value` lines, `#` comments)
and equally a command-line flag of the same name; precedence is flag over
file over default. Each command writes a RunManifest JSON next to its
outputs with the fully resolved configuration, so a run is reproducible
from the manifest alone.

Exit codes: 0 success, 2 configuration error (an output that cannot be
written included), 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Optional

from wsdsel import __version__
from wsdsel.data import SynthConfig, generate_synthetic, load_dataset, save_dataset, split_dataset
from wsdsel.errors import ConfigError, DataError, TrainingError
from wsdsel.evaluation import EvalOptions, ap_by_class, dump_pr_curves, evaluate_map
from wsdsel.head import run_gradcheck
from wsdsel.schedule import PruneSchedule, pos_budget
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
    Key("n_images", int, 200, "number of images to generate"),
    Key("num_classes", int, 6, "number of object classes"),
    Key("feat_dim", int, 64, "feature dimensionality"),
    Key("proposals_per_image", int, 64, "candidate regions per image"),
    Key("objects_min", int, 1, "minimum ground-truth objects per image"),
    Key("objects_max", int, 3, "maximum ground-truth objects per image"),
    Key("noise_sigma", float, 0.5, "feature noise standard deviation"),
    Key("context_fraction", float, 0.2, "fraction of proposals that are oversized context boxes"),
    Key("distractor_strength", float, 2.0, "scale of the shared scene-context direction"),
    Key("n_views", int, 1, "feature views per image"),
    Key("seed", int, 0, "generation seed"),
    Key("train_split", int, 0, "if > 0, write <out>-train/<out>-test datasets split at this index (< n_images)"),
]

TRAIN_KEYS = [
    Key("learning_rate", float, 1e-3, "SGD learning rate"),
    Key("momentum", float, 0.9, "SGD momentum"),
    Key("weight_decay", float, 5e-4, "L2 weight decay"),
    Key("epochs", int, 40, "training epochs"),
    Key("seed", int, 0, "initialization/shuffle seed"),
    Key("epsilon", float, 1e-12, "aggregated-score clamp"),
    Key("lr_decay_epoch", int, 30, "epoch at which the learning rate steps down (-1 disables)"),
    Key("lr_decay_factor", float, 0.1, "learning-rate step factor"),
    Key("warmup_epochs", int, 20, "epochs with the full positive region set"),
    Key("m_start", int, 1024, "positive budget at the end of warmup"),
    Key("m_final", int, 128, "positive budget floor"),
    Key("m_neg", int, 128, "negative budget (constant)"),
    Key("schedule_epochs", int, 0, "pruning-schedule horizon (0: max(epochs, warmup+1))"),
    Key("baseline", bool, False, "disable region selection (budgets = all regions)"),
]

EVAL_KEYS = [
    Key("mask_mode", str, "all", "test-time importance mask: all | top_mpt"),
    Key("top_m", int, 128, "top-M budget for mask_mode=top_mpt and the concentration diagnostic"),
    Key("ap_protocol", str, "eleven_point", "AP protocol: eleven_point | area"),
    Key("nms_threshold", float, 0.6, "NMS IoU threshold"),
    Key("vote_threshold", float, 0.5, "box-voting IoU threshold"),
    Key("score_floor", float, 1e-4, "drop detections scoring below this"),
    Key("iou_threshold", float, 0.5, "IoU threshold for a correct detection"),
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


def _add_key_flags(parser: argparse.ArgumentParser, keys: list[Key]):
    for key in keys:
        flag = "--" + key.name.replace("_", "-")
        if key.type is bool:
            parser.add_argument(flag, action=argparse.BooleanOptionalAction, default=None, help=key.help)
        else:
            parser.add_argument(flag, type=key.type, default=None, help=key.help)


def write_manifest(out_path: Path, command: str, config: dict, inputs: dict, outputs: dict, started: float):
    manifest = {
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "inputs": inputs,
        "outputs": outputs,
        "version": __version__,
        "duration_s": round(time.time() - started, 3),
    }
    path = out_path.parent / (out_path.name + ".manifest.json")
    tmp = path.with_suffix(".tmp")
    try:
        tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@contextlib.contextmanager
def _removed_on_failure():
    """Collect the paths a command writes; if it fails before its manifest is written, remove them."""
    written = []
    try:
        yield written
    except BaseException:
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise


def cmd_synth(args: argparse.Namespace) -> int:
    started = time.time()
    config = resolve_config(SYNTH_KEYS, args)
    split_at = config.pop("train_split")
    cfg = SynthConfig(**config)
    if split_at and not 0 < split_at < cfg.n_images:  # checked before any image is generated
        raise ConfigError(f"train_split must be 0 (no split) or in (0, {cfg.n_images}), got {split_at}")
    ds = generate_synthetic(cfg)
    out = Path(args.out)
    outputs = {}
    if split_at:
        train_ds, test_ds = split_dataset(ds, split_at)
        train_path = out.parent / (out.stem + "-train.json")
        test_path = out.parent / (out.stem + "-test.json")
        save_dataset(train_ds, train_path)
        save_dataset(test_ds, test_path)
        outputs = {"train_dataset": str(train_path), "test_dataset": str(test_path)}
    else:
        save_dataset(ds, out)
        outputs = {"dataset": str(out)}
    config["train_split"] = split_at
    write_manifest(out, "synth", config, {}, outputs, started)
    print(f"wrote {', '.join(outputs.values())} ({len(ds.images)} images)")
    return EXIT_OK


def _build_train_config(config: dict[str, Any]) -> TrainConfig:
    schedule_epochs = config["schedule_epochs"]
    if schedule_epochs <= 0:
        schedule_epochs = max(config["epochs"], config["warmup_epochs"] + 1)
    schedule = PruneSchedule(
        warmup_epochs=config["warmup_epochs"],
        m_start=config["m_start"],
        m_final=config["m_final"],
        m_neg=config["m_neg"],
        total_epochs=schedule_epochs,
    )
    decay_epoch = config["lr_decay_epoch"]
    return TrainConfig(
        learning_rate=config["learning_rate"],
        momentum=config["momentum"],
        weight_decay=config["weight_decay"],
        total_epochs=config["epochs"],
        seed=config["seed"],
        schedule=schedule,
        epsilon=config["epsilon"],
        lr_decay_epoch=None if decay_epoch < 0 else decay_epoch,
        lr_decay_factor=config["lr_decay_factor"],
        baseline=config["baseline"],
    )


def _write_loss_csv(path: Path, state: TrainState, config: TrainConfig):
    lines = ["epoch,mean_loss,m_pos,m_neg"]
    for epoch, loss in enumerate(state.loss_history):
        if config.baseline:
            m_pos = m_neg = "n"
        else:
            m_neg = str(config.schedule.m_neg)
            if epoch < config.schedule.warmup_epochs:
                m_pos = "n"
            else:
                m_pos = str(pos_budget(epoch, 0, config.schedule))
        lines.append(f"{epoch},{loss!r},{m_pos},{m_neg}")
    path.write_text("\n".join(lines) + "\n")


def cmd_train(args: argparse.Namespace) -> int:
    started = time.time()
    config = resolve_config(TRAIN_KEYS, args)
    train_config = _build_train_config(config)
    dataset = load_dataset(args.dataset)
    state = train(dataset, train_config)
    out = Path(args.out)
    loss_csv = out.parent / (out.stem + "_loss.csv")
    with _removed_on_failure() as written:
        save_checkpoint(state, out)
        written.append(out)
        _write_loss_csv(loss_csv, state, train_config)
        written.append(loss_csv)
        write_manifest(out, "train", config, {"dataset": str(args.dataset)},
                       {"checkpoint": str(out), "loss_history": str(loss_csv)}, started)
    final = state.loss_history[-1] if state.loss_history else float("nan")
    print(f"trained {state.epoch} epochs on {len(dataset.images)} images; final mean loss {final:.6f}")
    print(f"wrote {out} and {loss_csv}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    started = time.time()
    config = resolve_config(EVAL_KEYS, args)
    opts = EvalOptions(**{f.name: config[f.name] for f in fields(EvalOptions)})
    dataset = load_dataset(args.dataset)
    state = load_checkpoint(args.checkpoint)
    report = evaluate_map(dataset, state.params, opts)
    if config["both"]:
        other = "area" if opts.ap_protocol == "eleven_point" else "eleven_point"
        per_class, mean_ap = ap_by_class(report.curves, other)
        report.diagnostics[f"map_{other}"] = mean_ap
        report.diagnostics[f"per_class_ap_{other}"] = per_class
    out = Path(args.out)
    outputs = {"report": str(out)}
    with _removed_on_failure() as written:
        if config["pr_csv"]:  # before the report, so that an eval that fails here leaves no report
            dump_pr_curves(report.curves, dataset.class_names, config["pr_csv"])
            outputs["pr_csv"] = config["pr_csv"]
            written.append(config["pr_csv"])
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report.to_json())
        written.append(out)
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


def cmd_gradcheck(args: argparse.Namespace) -> int:
    report = run_gradcheck(**resolve_config(GRADCHECK_KEYS, args))
    print(f"gradcheck: {report['instances']} instances, max relative error {report['max_rel_error']:.3e}")
    if report["passed"]:
        print(f"PASS (tolerance {report['tolerance']:.1e})")
        return EXIT_OK
    print(f"FAIL (tolerance {report['tolerance']:.1e}); worst: {report['worst_instance']}", file=sys.stderr)
    return EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wsdsel", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"wsdsel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--config", help="key-value config file")
    p_synth.add_argument("--out", required=True, help="dataset manifest path (JSON)")
    _add_key_flags(p_synth, SYNTH_KEYS)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train the detection head")
    p_train.add_argument("--dataset", required=True, help="dataset manifest path")
    p_train.add_argument("--config", help="key-value config file")
    p_train.add_argument("--out", required=True, help="checkpoint output path")
    _add_key_flags(p_train, TRAIN_KEYS)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint: mAP, CorLoc, diagnostics")
    p_eval.add_argument("--dataset", required=True, help="dataset manifest path")
    p_eval.add_argument("--checkpoint", required=True, help="checkpoint path")
    p_eval.add_argument("--config", help="key-value config file")
    p_eval.add_argument("--out", required=True, help="report output path (JSON)")
    _add_key_flags(p_eval, EVAL_KEYS)
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="verify backward against finite differences")
    p_grad.add_argument("--config", help="key-value config file")
    _add_key_flags(p_grad, GRADCHECK_KEYS)
    p_grad.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
