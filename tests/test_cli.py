import argparse
import dataclasses
import inspect
import json
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wsdsel.cli
import wsdsel.evaluation
import wsdsel.head
import wsdsel.trainer
from wsdsel.cli import (EVAL_KEYS, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, GRADCHECK_KEYS, SYNTH_KEYS,
                        TRAIN_KEYS, _build_train_config, _write_loss_csv, main, resolve_config)
from wsdsel.data import SynthConfig, load_dataset, save_dataset
from wsdsel.errors import DataError
from wsdsel.evaluation import EvalOptions
from wsdsel.head import HeadParams, run_gradcheck
from wsdsel.schedule import PruneSchedule
from wsdsel.trainer import TrainConfig, TrainState, init_params, load_checkpoint, save_checkpoint

SMALL_SYNTH = ["--n-images", "10", "--num-classes", "3", "--feat-dim", "8", "--proposals-per-image", "16"]
FAST_TRAIN = ["--epochs", "4", "--warmup-epochs", "1", "--m-start", "8", "--m-final", "4",
              "--m-neg", "4", "--schedule-epochs", "4", "--learning-rate", "0.01"]


@pytest.fixture
def small_dataset(tmp_path):
    out = tmp_path / "ds.json"
    assert main(["synth", "--out", str(out), *SMALL_SYNTH]) == EXIT_OK
    return out


@pytest.fixture
def trained(small_dataset, tmp_path):
    ckpt = tmp_path / "ckpt.wsdc"
    assert main(["train", "--dataset", str(small_dataset), "--out", str(ckpt), *FAST_TRAIN]) == EXIT_OK
    return small_dataset, ckpt


def run_eval(dataset, ckpt, out, *flags):
    return main(["eval", "--dataset", str(dataset), "--checkpoint", str(ckpt), "--out", str(out), *flags])


class TestSynth:
    def test_writes_valid_dataset_and_manifest(self, tmp_path):
        out = tmp_path / "ds.json"
        assert main(["synth", "--out", str(out), *SMALL_SYNTH]) == EXIT_OK
        ds = load_dataset(out)
        assert len(ds.images) == 10
        manifest = json.loads((tmp_path / "ds.json.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["n_images"] == 10
        assert manifest["version"]

    def test_byte_identical_outputs(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            assert main(["synth", "--out", str(tmp_path / sub / "ds.json"), *SMALL_SYNTH]) == EXIT_OK
        a, b = tmp_path / "a", tmp_path / "b"
        assert (a / "ds.json").read_bytes() == (b / "ds.json").read_bytes()
        assert [p.name for p in (a / "ds_features").iterdir()] == ["features.wsdf"]
        assert (a / "ds_features/features.wsdf").read_bytes() == (b / "ds_features/features.wsdf").read_bytes()

    def test_invalid_value_exits_config(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "x.json"), "--objects-max", "0"])
        assert rc == EXIT_CONFIG
        assert "objects" in capsys.readouterr().err

    def test_unknown_config_key_listed(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("n_images = 5\nbananas = 7\n")
        rc = main(["synth", "--out", str(tmp_path / "x.json"), "--config", str(cfg)])
        assert rc == EXIT_CONFIG
        assert "bananas" in capsys.readouterr().err

    def test_config_file_not_utf8_exits_config(self, small_dataset, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfeepochs = 1\n")
        rc = main(["train", "--dataset", str(small_dataset), "--out", str(tmp_path / "c.wsdc"), "--config", str(cfg)])
        assert rc == EXIT_CONFIG
        assert "bad.cfg" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("# comment\nn_images = 6\nnum_classes = 3\nfeat_dim = 8\nproposals_per_image = 16\n")
        out = tmp_path / "ds.json"
        assert main(["synth", "--out", str(out), "--config", str(cfg), "--n-images", "4"]) == EXIT_OK
        assert len(load_dataset(out).images) == 4  # flag wins over file

    def test_train_split_writes_pair(self, tmp_path):
        out = tmp_path / "ds.json"
        assert main(["synth", "--out", str(out), *SMALL_SYNTH, "--train-split", "7"]) == EXIT_OK
        train_ds = load_dataset(tmp_path / "ds-train.json")
        test_ds = load_dataset(tmp_path / "ds-test.json")
        assert len(train_ds.images) == 7
        assert len(test_ds.images) == 3

    def test_failed_test_half_removes_the_train_half(self, tmp_path, capsys):
        taken = tmp_path / "ds-test.json"
        taken.mkdir()
        assert main(["synth", "--out", str(tmp_path / "ds.json"), *SMALL_SYNTH, "--train-split", "7"]) == EXIT_CONFIG
        assert str(taken) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [taken]

    def test_failed_manifest_keeps_a_features_directory_the_run_did_not_make(self, tmp_path):
        (tmp_path / "ds.json.manifest.json").mkdir()
        (tmp_path / "ds_features").mkdir()
        (tmp_path / "ds_features" / "notes.txt").write_text("kept\n")
        assert main(["synth", "--out", str(tmp_path / "ds.json"), *SMALL_SYNTH]) == EXIT_CONFIG
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["ds.json.manifest.json", "ds_features", "notes.txt"]

    @pytest.mark.parametrize("flags", [
        ["--noise-sigma", "nan"],
        ["--distractor-strength", "inf"],
        ["--train-split", "10"],  # as many as the images: no test set
        ["--train-split", "-3"],
        ["--seed", "-1"],
    ])
    def test_bad_setting_exits_config_before_generating(self, tmp_path, capsys, monkeypatch, flags):
        generated = []
        monkeypatch.setattr(wsdsel.cli, "generate_synthetic", generated.append)
        assert main(["synth", "--out", str(tmp_path / "ds.json"), *SMALL_SYNTH, *flags]) == EXIT_CONFIG
        assert generated == []
        assert flags[0][2:].replace("-", "_") in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("config_name, flags", [
        ("cfg.txt", ["--out", "{cfg}"]),
        ("ds.json.manifest.json", ["--out", "{tmp}/ds.json"]),  # the run manifest
        ("ds-test.json", ["--out", "{tmp}/ds.json", "--train-split", "7"]),  # the test half
        ("cfg.txt", ["--out", "{tmp}/link.json"]),  # a symbolic link to the config
        ("ds_features/features.wsdf", ["--out", "{tmp}/ds.json"]),  # the features file synth writes
        ("ds-test_features/features.wsdf", ["--out", "{tmp}/ds.json", "--train-split", "7"]),  # the test half's
    ])
    def test_an_output_that_is_the_config_is_refused_before_generating(self, tmp_path, capsys, monkeypatch,
                                                                        config_name, flags):
        generated = []
        monkeypatch.setattr(wsdsel.cli, "generate_synthetic", generated.append)
        cfg = tmp_path / config_name
        cfg.parent.mkdir(exist_ok=True)
        cfg.write_text("n_images = 10\nnum_classes = 3\n", encoding="utf-8")
        (tmp_path / "link.json").symlink_to(cfg)
        before = _tree(tmp_path)
        argv = [flag.format(cfg=cfg, tmp=tmp_path) for flag in flags]
        assert main(["synth", "--config", str(cfg), *argv]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"is the same file as --config {cfg}" in err
        # the config as it was; no dataset, features directory or run manifest
        assert generated == [] and _tree(tmp_path) == before


class TestTrain:
    def test_zero_epochs_equals_initialization(self, small_dataset, tmp_path):
        ckpt = tmp_path / "ckpt.wsdc"
        assert main(["train", "--dataset", str(small_dataset), "--out", str(ckpt), "--epochs", "0"]) == EXIT_OK
        state = load_checkpoint(ckpt)
        init = init_params(8, 3, seed=0)
        for (_, x), (_, y) in zip(state.params.blocks(), init.blocks()):
            assert x.tobytes() == y.tobytes()

    def test_run_and_loss_csv(self, small_dataset, tmp_path):
        ckpt = tmp_path / "ckpt.wsdc"
        assert main(["train", "--dataset", str(small_dataset), "--out", str(ckpt), *FAST_TRAIN]) == EXIT_OK
        rows = (tmp_path / "ckpt_loss.csv").read_text().strip().splitlines()
        assert rows[0] == "epoch,mean_loss,m_pos,m_neg"
        assert len(rows) == 5
        budgets = [r.split(",")[2] for r in rows[1:]]
        assert budgets == ["n", "8", "8", "4"]  # warmup then halving trace

    @pytest.mark.parametrize("baseline", [False, True])
    def test_loss_csv_rows_are_the_configs_budgets(self, tmp_path, baseline):
        # the README walkthrough's arms, with one logged loss per epoch of the 40-epoch schedule
        flags = ["--learning-rate", "3e-3"] + (["--baseline"] if baseline else
                                               ["--m-start", "64", "--m-final", "8", "--m-neg", "16"])
        config = _build_train_config(resolve_config(TRAIN_KEYS, wsdsel.cli.build_parser().parse_args(
            ["train", "--dataset", "d.json", "--out", "c.wsdc", *flags])))
        params = init_params(4, 2, seed=0)
        state = TrainState(params, params.zeros_like(), epoch=40, loss_history=[0.5 + e for e in range(40)])
        _write_loss_csv(tmp_path / "loss.csv", state, config)
        rows = (tmp_path / "loss.csv").read_text().splitlines()
        assert rows[0] == "epoch,mean_loss,m_pos,m_neg"
        assert rows[1:] == [f"{e},{0.5 + e!r},{'n' if p is None else p},{'n' if m is None else m}"
                            for e, (p, m) in enumerate(map(config.budgets, range(40)))]
        assert rows[1] == ("0,0.5,n,n" if baseline else "0,0.5,n,16")
        assert rows[-1] == ("39,39.5,n,n" if baseline else "39,39.5,8,16")

    def test_baseline_logs_constant_budgets(self, small_dataset, tmp_path):
        ckpt = tmp_path / "b.wsdc"
        assert main(["train", "--dataset", str(small_dataset), "--out", str(ckpt), *FAST_TRAIN, "--baseline"]) == EXIT_OK
        rows = (tmp_path / "b_loss.csv").read_text().strip().splitlines()[1:]
        assert all(r.split(",")[2] == "n" and r.split(",")[3] == "n" for r in rows)

    def test_deterministic_checkpoints(self, small_dataset, tmp_path):
        outs = []
        for name in ("one.wsdc", "two.wsdc"):
            path = tmp_path / name
            assert main(["train", "--dataset", str(small_dataset), "--out", str(path), *FAST_TRAIN]) == EXIT_OK
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_dataset_exits_data(self, tmp_path, capsys):
        rc = main(["train", "--dataset", str(tmp_path / "nope.json"), "--out", str(tmp_path / "c.wsdc")])
        assert rc == EXIT_DATA

    def test_invalid_momentum_exits_config(self, small_dataset, tmp_path):
        rc = main(["train", "--dataset", str(small_dataset), "--out", str(tmp_path / "c.wsdc"),
                   "--momentum", "1.5"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flags",
        [
            ["--epsilon", "0.7"],
            ["--epsilon", "0.5"],
            ["--epsilon", "0"],
            ["--epsilon", "-1"],
            ["--epsilon", "nan"],
            ["--lr-decay-factor", "-1"],
            ["--lr-decay-factor", "0"],
            ["--lr-decay-factor", "nan"],
            ["--learning-rate", "nan"],
            ["--learning-rate", "inf"],
            ["--weight-decay", "nan"],
            ["--weight-decay", "inf"],
            ["--learning-rate", "1e308"],  # finite, but not as the float32 SGD runs in
            ["--weight-decay", "1e39"],
            ["--lr-decay-factor", "1e300"],
            ["--learning-rate", "1e-50"],  # 0 in float32
            ["--momentum", "nan"],
            ["--seed", "-3"],
            ["--lr-decay-epoch", "-5"],  # only -1 turns decay off
            ["--lr-decay-epoch", "-2"],
        ],
    )
    def test_bad_option_exits_config(self, small_dataset, tmp_path, capsys, flags):
        ckpt = tmp_path / "c.wsdc"
        rc = main(["train", "--dataset", str(small_dataset), "--out", str(ckpt), *FAST_TRAIN, *flags])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_negative_schedule_epochs_states_the_rule(self, small_dataset, tmp_path, capsys):
        ckpt = tmp_path / "c.wsdc"
        rc = main(["train", "--dataset", str(small_dataset), "--out", str(ckpt), *FAST_TRAIN, "--schedule-epochs", "-3"])
        assert rc == EXIT_CONFIG
        assert "schedule_epochs must be >= 0 (0 means max(epochs, warmup_epochs + 1))" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("text, value", [("off", False), ("on", True)])
    def test_config_file_boolean_words(self, small_dataset, tmp_path, text, value):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"baseline = {text}\n")
        ckpt = tmp_path / "c.wsdc"
        assert main(["train", "--dataset", str(small_dataset), "--out", str(ckpt), "--config", str(cfg),
                     *FAST_TRAIN]) == EXIT_OK
        assert json.loads((tmp_path / "c.wsdc.manifest.json").read_text())["config"]["baseline"] is value

    @pytest.mark.parametrize("text, message", [
        ("baseline = maybe", "config key baseline: cannot parse boolean value 'maybe'"),
        ("epochs", "{cfg}:1: expected 'key = value', got 'epochs'"),
        ("epochs = abc", "config key epochs: invalid literal for int()"),
    ])
    def test_bad_config_line_exits_config_and_writes_nothing(self, small_dataset, tmp_path, capsys, text, message):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(text + "\n")
        before = _tree(tmp_path)
        rc = main(["train", "--dataset", str(small_dataset), "--out", str(tmp_path / "c.wsdc"), "--config", str(cfg)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: " + message.format(cfg=cfg))
        assert _tree(tmp_path) == before  # no checkpoint, loss CSV or run manifest

    def test_non_finite_gradient_exits_numeric_and_writes_nothing(self, small_dataset, tmp_path, capsys,
                                                                  monkeypatch):
        # A loaded dataset holds no NaN feature, so the third step of the run writes one into its gradient.
        steps = []

        def poisoned(params, feats, labels, budgets, eps, work, prefetch=None):
            loss = wsdsel.head.image_step(params, feats, labels, budgets, eps, work, prefetch)
            steps.append(feats.copy())
            if len(steps) == 3:
                work.grads.flat[0] = np.nan
            return loss

        monkeypatch.setattr(wsdsel.trainer, "image_step", poisoned)
        before = _tree(tmp_path)
        rc = main(["train", "--dataset", str(small_dataset), "--out", str(tmp_path / "c.wsdc"), *FAST_TRAIN])
        assert rc == EXIT_NUMERIC and len(steps) == 3
        image = next(bag.id for bag in load_dataset(small_dataset).images if np.array_equal(bag.views[0], steps[-1]))
        assert capsys.readouterr().err == f"training error: non-finite gradient (image {image}, epoch 0)\n"
        assert _tree(tmp_path) == before  # no checkpoint, loss CSV or run manifest

    def test_lr_decay_epoch_minus_one_turns_decay_off(self):
        args = wsdsel.cli.build_parser().parse_args(["train", "--dataset", "d.json", "--out", "c.wsdc",
                                                     "--lr-decay-epoch", "-1"])
        assert _build_train_config(resolve_config(TRAIN_KEYS, args)).lr_decay_epoch is None


class TestEval:
    def test_report_fields(self, trained, tmp_path):
        dataset, ckpt = trained
        report_path = tmp_path / "report.json"
        assert main(["eval", "--dataset", str(dataset), "--checkpoint", str(ckpt),
                     "--out", str(report_path), "--top-m", "4"]) == EXIT_OK
        report = json.loads(report_path.read_text())
        assert set(report) >= {"per_class_ap", "map", "per_class_corloc", "mean_corloc", "n_images", "diagnostics"}
        assert report["n_images"] == 10
        assert 0.0 <= report["map"] <= 1.0
        assert report["diagnostics"]["concentration_k"] == 4
        assert "classes_without_candidates" not in report["diagnostics"]  # written only when non-empty

    def test_fresh_checkpoint_gives_valid_report(self, small_dataset, tmp_path):
        ckpt = tmp_path / "init.wsdc"
        assert main(["train", "--dataset", str(small_dataset), "--out", str(ckpt), "--epochs", "0"]) == EXIT_OK
        report_path = tmp_path / "r.json"
        assert main(["eval", "--dataset", str(small_dataset), "--checkpoint", str(ckpt),
                     "--out", str(report_path)]) == EXIT_OK
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["map"] <= 1.0

    def test_untrained_head_at_paper_scale_says_why_it_found_nothing(self, tmp_path, capsys):
        # Scores scale like 1/(N*C), so at N=1024, C=20 an untrained head leaves every
        # region under the absolute score floor: the report must say so, not just read mAP 0.
        dataset, ckpt, path = tmp_path / "big.json", tmp_path / "init.wsdc", tmp_path / "r.json"
        assert main(["synth", "--out", str(dataset), "--n-images", "2", "--num-classes", "20",
                     "--proposals-per-image", "1024"]) == EXIT_OK
        assert main(["train", "--dataset", str(dataset), "--out", str(ckpt), "--epochs", "0"]) == EXIT_OK
        capsys.readouterr()
        assert run_eval(dataset, ckpt, path) == EXIT_OK
        report = json.loads(path.read_text())
        assert report["map"] == 0.0
        assert report["diagnostics"]["n_detections"] == 0
        assert report["diagnostics"]["classes_without_candidates"] == list(range(20))
        assert "warning: no detections" in capsys.readouterr().err

    def test_byte_identical_reports(self, trained, tmp_path):
        dataset, ckpt = trained
        blobs = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            assert main(["eval", "--dataset", str(dataset), "--checkpoint", str(ckpt),
                         "--out", str(path)]) == EXIT_OK
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_both_protocols_present(self, trained, tmp_path):
        dataset, ckpt = trained
        path = tmp_path / "r.json"
        assert main(["eval", "--dataset", str(dataset), "--checkpoint", str(ckpt),
                     "--out", str(path), "--both"]) == EXIT_OK
        report = json.loads(path.read_text())
        assert "map_area" in report["diagnostics"]
        assert abs(report["map"] - report["diagnostics"]["map_area"]) < 0.2

    def test_pr_csv_dump(self, trained, tmp_path):
        dataset, ckpt = trained
        csv_path = tmp_path / "pr.csv"
        assert main(["eval", "--dataset", str(dataset), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "r.json"), "--pr-csv", str(csv_path)]) == EXIT_OK
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "class,rank,score,recall,precision"
        assert len(lines) > 1

    def test_bad_mask_mode_exits_config(self, trained, tmp_path):
        dataset, ckpt = trained
        rc = main(["eval", "--dataset", str(dataset), "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "r.json"), "--mask-mode", "sideways"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flags",
        [
            ["--nms-threshold", "0"],
            ["--top-m", "0"],
            ["--top-m", "0", "--mask-mode", "top_mpt"],
            ["--vote-threshold", "nan"],
            ["--vote-threshold", "1.5"],
            ["--ap-protocol", "bogus"],
            ["--iou-threshold", "0"],
            ["--score-floor", "nan"],
        ],
    )
    def test_bad_option_exits_config(self, trained, tmp_path, capsys, flags):
        dataset, ckpt = trained
        assert run_eval(dataset, ckpt, tmp_path / "r.json", *flags) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_linear_layer_runs_once_per_image_view(self, tmp_path, monkeypatch):
        ds = tmp_path / "views.json"
        assert main(["synth", "--out", str(ds), *SMALL_SYNTH, "--n-views", "2"]) == EXIT_OK
        ckpt = tmp_path / "ckpt.wsdc"
        assert main(["train", "--dataset", str(ds), "--out", str(ckpt), *FAST_TRAIN]) == EXIT_OK
        # every _outputs call during eval is one application of the linear layer to one view,
        # and every one of them computes in the one workspace the eval builds
        real, real_init = wsdsel.evaluation._outputs, wsdsel.head.StepWork.__init__
        calls, works = [], []

        def counted(params, x, work):
            calls.append((x.shape, id(work)))
            return real(params, x, work)

        def counted_init(work, *args):
            works.append(args)
            real_init(work, *args)

        monkeypatch.setattr(wsdsel.evaluation, "_outputs", counted)
        monkeypatch.setattr(wsdsel.head.StepWork, "__init__", counted_init)
        assert run_eval(ds, ckpt, tmp_path / "r.json", "--both", "--pr-csv", str(tmp_path / "pr.csv")) == EXIT_OK
        assert len(calls) == 10 * 2
        assert len(works) == 1
        assert len({work for _, work in calls}) == 1

    def test_dimension_mismatch_exits_data(self, trained, tmp_path):
        dataset, _ = trained
        other = tmp_path / "other.wsdc"
        from wsdsel.trainer import TrainState, save_checkpoint

        params = init_params(5, 2, 0)
        save_checkpoint(TrainState(params=params, velocity=params.zeros_like()), other)
        rc = main(["eval", "--dataset", str(dataset), "--checkpoint", str(other),
                   "--out", str(tmp_path / "r.json")])
        assert rc == EXIT_DATA

    def test_checkpoint_of_other_classes_exits_data_and_writes_no_report(self, trained, tmp_path, capsys):
        # same D, one class more: a shape that numpy would evaluate without complaint
        dataset, _ = trained
        other = tmp_path / "other.wsdc"
        params = init_params(8, 4, 0)
        save_checkpoint(TrainState(params=params, velocity=params.zeros_like()), other)
        assert run_eval(dataset, other, tmp_path / "r.json") == EXIT_DATA
        assert "does not match" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_top_mpt_mask_mode_runs(self, trained, tmp_path):
        dataset, ckpt = trained
        path = tmp_path / "r.json"
        assert main(["eval", "--dataset", str(dataset), "--checkpoint", str(ckpt),
                     "--out", str(path), "--mask-mode", "top_mpt", "--top-m", "4"]) == EXIT_OK
        assert 0.0 <= json.loads(path.read_text())["map"] <= 1.0


@pytest.mark.parametrize(
    "command, flag",
    # flag None: the manifest's own path is taken, after every other output of the run is written
    [("synth", "--out"), ("train", "--out"), ("eval", "--out"), ("eval", "--pr-csv"), ("synth", None),
     ("synth --train-split 7", None), ("train", None), ("eval", None)],
)
def test_output_that_cannot_be_written_exits_config(trained, tmp_path, capsys, command, flag):
    dataset, ckpt = trained
    command, *extra = command.split()
    taken = tmp_path / "taken" if flag else tmp_path / "out" / "x.manifest.json"
    taken.mkdir(parents=True)
    inputs = {"synth": SMALL_SYNTH, "train": ["--dataset", str(dataset), *FAST_TRAIN],
              "eval": ["--dataset", str(dataset), "--checkpoint", str(ckpt),
                       "--pr-csv", str(tmp_path / "out" / "pr.csv")]}[command]
    before = set(tmp_path.rglob("*"))
    # a flag given twice takes its last value, so `--out taken` overrides the first --out
    taking = [flag, str(taken)] if flag else []
    assert main([command, *inputs, *extra, "--out", str(tmp_path / "out" / "x"), *taking]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and str(taken) in err
    # no dataset, features file, features directory, checkpoint, loss CSV, PR CSV, report or manifest temporary
    # is left behind, only the output directory made for them
    assert set(tmp_path.rglob("*")) - before <= {tmp_path / "out"}


def _tree(root: Path) -> dict:
    """Every path under `root` with its bytes, None for a directory."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("command, name", [
    ("synth", "ds.json"),  # fails in its third image record
    ("synth", "ds.json.manifest.json"),
    ("synth --train-split 7", "ds-test.json"),  # after the train half is saved
    ("train", "ckpt.wsdc"),
    ("train", "ckpt_loss.csv"),
    ("train", "ckpt.wsdc.manifest.json"),
    ("eval", "pr.csv"),
    ("eval", "r.json"),
    ("eval", "r.json.manifest.json"),
])
def test_a_write_that_fails_partway_leaves_nothing(trained, tmp_path, capsys, monkeypatch, full_disk, command, name):
    dataset, ckpt = trained
    command, *extra = command.split()
    out = tmp_path / "out"
    argv = {"synth": [*SMALL_SYNTH, "--out", str(out / "ds.json")],
            "train": ["--dataset", str(dataset), *FAST_TRAIN, "--out", str(out / "ckpt.wsdc")],
            "eval": ["--dataset", str(dataset), "--checkpoint", str(ckpt), "--pr-csv", str(out / "pr.csv"),
                     "--out", str(out / "r.json")]}[command]
    out.mkdir()
    (out / name).write_bytes(b"previous\n")
    before = _tree(tmp_path)
    # `dataset` is a SMALL_SYNTH manifest too, so its third record starts at the same offset
    full_disk(name, dataset.read_text().index('"id": "im00002"') if name == "ds.json" else 40)
    assert main([command, *argv, *extra]) == EXIT_CONFIG
    assert "No space left on device" in capsys.readouterr().err
    # no partial file, no other output of the run, no temporary; the previous file is as it was
    assert _tree(tmp_path) == before
    monkeypatch.undo()
    assert main([command, *argv, *extra]) == EXIT_OK
    assert (out / name).read_bytes() != b"previous\n"
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("failure", ["full disk", "directory"])
@pytest.mark.parametrize("command, name", [
    ("train", "ckpt.wsdc"),
    ("train", "ckpt_loss.csv"),
    ("train", "ckpt.wsdc.manifest.json"),
    ("eval", "pr.csv"),
    ("eval", "r.json"),
    ("eval", "r.json.manifest.json"),
])
def test_a_failed_run_keeps_every_output_it_would_have_replaced(trained, tmp_path, capsys, full_disk, command, name,
                                                                 failure):
    # A previous run's outputs stand at every path the run writes, and one write fails: by a full disk
    # partway through, or because a directory stands where the file goes.
    dataset, ckpt = trained
    out = tmp_path / "out"
    argv = {"train": ["--dataset", str(dataset), *FAST_TRAIN, "--out", str(out / "ckpt.wsdc")],
            "eval": ["--dataset", str(dataset), "--checkpoint", str(ckpt), "--pr-csv", str(out / "pr.csv"),
                     "--out", str(out / "r.json")]}[command]
    previous = {"train": ["--seed", "1"], "eval": ["--score-floor", "0.5"]}[command]
    assert main([command, *argv, *previous]) == EXIT_OK
    if failure == "directory":
        (out / name).unlink()
        (out / name).mkdir()
        (out / name / "kept.txt").write_text("kept\n")
    else:
        full_disk(name)
    before = _tree(tmp_path)
    assert main([command, *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert ("No space left on device" if failure == "full disk" else f"{out / name} is a directory") in err
    # every previous output as it was, the one that failed included; nothing new and no temporary
    assert _tree(tmp_path) == before
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("fails", [False, True])
def test_a_file_named_as_a_temporary_is_left_alone(trained, tmp_path, full_disk, fails):
    # An output's temporary takes a name no file has, so a user's `r.json.tmp` beside `--out r.json` is not
    # written over, renamed onto the report or removed, whether the run succeeds or fails after the report.
    dataset, ckpt = trained
    notes = tmp_path / "r.json.tmp"
    notes.write_text("my notes\n")
    if fails:
        full_disk("r.json.manifest.json")
    assert run_eval(dataset, ckpt, tmp_path / "r.json") == (EXIT_CONFIG if fails else EXIT_OK)
    assert notes.read_bytes() == b"my notes\n"
    assert (tmp_path / "r.json").exists() != fails
    assert sorted(p.name for p in tmp_path.glob("*.tmp")) == ["r.json.tmp"]


@pytest.mark.parametrize("command, config_name, flags", [
    ("train", "cfg.txt", ["--out", "{dataset}"]),
    ("train", "cfg.txt", ["--out", "{cfg}"]),
    ("train", "run_loss.csv", ["--out", "{tmp}/run.wsdc"]),  # the loss CSV
    ("train", "run.wsdc.manifest.json", ["--out", "{tmp}/run.wsdc"]),  # the run manifest
    ("train", "cfg.txt", ["--out", "{tmp}/link.json"]),  # a symbolic link to the dataset
    ("train", "cfg.txt", ["--out", "{tmp}/hard.json"]),  # a hard link: another name for the dataset
    ("eval", "cfg.txt", ["--out", "{dataset}"]),
    ("eval", "cfg.txt", ["--out", "{ckpt}"]),
    ("eval", "cfg.txt", ["--out", "{cfg}"]),
    ("eval", "cfg.txt", ["--out", "{tmp}/r.json", "--pr-csv", "{dataset}"]),
    ("eval", "cfg.txt", ["--out", "{tmp}/r.json", "--pr-csv", "{ckpt}"]),
    ("eval", "r.json.manifest.json", ["--out", "{tmp}/r.json"]),  # the run manifest
    ("eval", "cfg.txt", ["--out", "{tmp}/link.json"]),
    ("eval", "cfg.txt", ["--out", "{tmp}/r.json", "--pr-csv", "{tmp}/hard.json"]),
    # two outputs, neither of which exists yet: compared as resolved paths
    ("eval", "cfg.txt", ["--out", "{tmp}/r.json", "--pr-csv", "{tmp}/r.json"]),
    ("eval", "cfg.txt", ["--out", "{tmp}/r.json", "--pr-csv", "{tmp}/sub/../r.json"]),
    ("eval", "cfg.txt", ["--out", "{tmp}/r.json", "--pr-csv", "{tmp}/r.json.manifest.json"]),
])
def test_an_output_that_is_an_input_or_another_output_is_refused(trained, tmp_path, capsys, command, config_name,
                                                                   flags):
    dataset, ckpt = trained
    cfg = tmp_path / config_name
    cfg.write_text({"train": "epochs = 4\n", "eval": "both = true\n"}[command], encoding="utf-8")
    (tmp_path / "link.json").symlink_to(dataset)
    (tmp_path / "hard.json").hardlink_to(dataset)
    inputs = {"train": ["--dataset", str(dataset), *FAST_TRAIN],
              "eval": ["--dataset", str(dataset), "--checkpoint", str(ckpt)]}[command]
    argv = [flag.format(dataset=dataset, ckpt=ckpt, cfg=cfg, tmp=tmp_path) for flag in flags]
    before = _tree(tmp_path)
    assert main([command, *inputs, "--config", str(cfg), *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "is the same file as" in err and "Traceback" not in err
    assert _tree(tmp_path) == before  # nothing written: every input as it was, no output and no temporary


def test_a_bad_dataset_is_reported_before_an_output_that_would_replace_it(trained, tmp_path, capsys):
    # The guard runs once the dataset is loaded, so a dataset that cannot be loaded is the error named.
    _, ckpt = trained
    bad = tmp_path / "bad.json"
    bad.write_text("not json\n", encoding="utf-8")
    before = _tree(tmp_path)
    assert run_eval(bad, ckpt, tmp_path / "r.json", "--pr-csv", str(bad)) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"data error: cannot load dataset manifest {bad}")
    assert _tree(tmp_path) == before  # bad.json as it was, and no output


def test_a_refused_run_leaves_its_inputs_usable(trained, tmp_path, capsys):
    dataset, ckpt = trained
    assert run_eval(dataset, ckpt, tmp_path / "r.json", "--pr-csv", str(dataset)) == EXIT_CONFIG
    assert main(["train", "--dataset", str(dataset), "--out", str(dataset), *FAST_TRAIN]) == EXIT_CONFIG
    assert f"--out {dataset} is the same file as --dataset {dataset}" in capsys.readouterr().err
    assert run_eval(dataset, ckpt, tmp_path / "r.json", "--pr-csv", str(tmp_path / "pr.csv")) == EXIT_OK
    assert main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "again.wsdc"), *FAST_TRAIN]) == EXIT_OK
    assert (tmp_path / "again.wsdc").read_bytes() == ckpt.read_bytes()


@pytest.mark.parametrize("command, flag, via", [
    ("eval", "--pr-csv", "ds_features/features.wsdf"),
    ("eval", "--out", "ds_features/features.wsdf"),  # the report
    ("train", "--out", "ds_features/features.wsdf"),  # the checkpoint
    ("eval", "--pr-csv", "link.wsdf"),  # a symbolic link to the features file
    ("train", "--out", "link.wsdf"),
    ("eval", "--pr-csv", "hard.wsdf"),  # a hard link: another name for the same file
    ("train", "--out", "hard.wsdf"),
    ("eval", "pr_csv", "ds_features/features.wsdf"),  # the PR CSV named in --config
])
def test_an_output_that_is_the_features_file_is_refused(trained, tmp_path, capsys, command, flag, via):
    dataset, ckpt = trained
    features = tmp_path / "ds_features" / "features.wsdf"
    (tmp_path / "link.wsdf").symlink_to(features)
    (tmp_path / "hard.wsdf").hardlink_to(features)
    target = str(tmp_path / via)
    if flag == "pr_csv":
        (tmp_path / "cfg.txt").write_text(f"pr_csv = {target}\n", encoding="utf-8")
        outputs, flag = {"--out": str(tmp_path / "r.json"), "--config": str(tmp_path / "cfg.txt")}, "--pr-csv"
    else:
        outputs = {"--out": str(tmp_path / "r.json"), flag: target}  # with flag --out, the features file is the report
    inputs = {"train": ["--dataset", str(dataset), *FAST_TRAIN],
              "eval": ["--dataset", str(dataset), "--checkpoint", str(ckpt)]}[command]
    before = _tree(tmp_path)
    assert main([command, *inputs, *(arg for pair in outputs.items() for arg in pair)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {flag} {target} is the same file as the dataset's features file; " \
                  "refusing to overwrite it\n"
    assert _tree(tmp_path) == before  # the features file's bytes as they were, and no output or temporary
    assert run_eval(dataset, ckpt, tmp_path / "after.json") == EXIT_OK


@pytest.mark.parametrize("command, out, name", [
    ("train", "c.wsdc", "the loss CSV"),
    ("train", "c.wsdc", "the run manifest"),
    ("eval", "r.json", "the run manifest"),
])
def test_a_derived_output_that_is_the_features_file_is_refused(trained, tmp_path, capsys, command, out, name):
    # A manifest may name any file as its features file: here, the file the run would write beside --out.
    dataset, ckpt = trained
    taken = tmp_path / (f"{Path(out).stem}_loss.csv" if name == "the loss CSV" else f"{out}.manifest.json")
    (tmp_path / "ds_features" / "features.wsdf").rename(taken)
    manifest = json.loads(dataset.read_text())
    manifest["features"] = taken.name
    dataset.write_text(json.dumps(manifest))
    inputs = {"train": ["--dataset", str(dataset), *FAST_TRAIN],
              "eval": ["--dataset", str(dataset), "--checkpoint", str(ckpt)]}[command]
    before = _tree(tmp_path)
    assert main([command, *inputs, "--out", str(tmp_path / out)]) == EXIT_CONFIG
    assert f"{name} {taken} is the same file as the dataset's features file" in capsys.readouterr().err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("raw", [False, True], ids=["escaped-manifest", "raw-utf8-manifest"])
def test_eval_under_a_non_utf8_locale_writes_utf8(trained, tmp_path, raw):
    dataset, ckpt = trained
    ds = load_dataset(dataset)
    ds.class_names[0] = "caf\u00e9 \u6570"
    path = tmp_path / "named.json"
    save_dataset(ds, path)
    if raw:  # the name as UTF-8 bytes, not as json's \u escapes
        path.write_bytes(path.read_bytes().replace(json.dumps(ds.class_names[0]).encode(),
                                                   f'"{ds.class_names[0]}"'.encode()))
        assert ds.class_names[0].encode() in path.read_bytes()
    assert run_eval(path, ckpt, tmp_path / "want.json", "--pr-csv", str(tmp_path / "want.csv")) == EXIT_OK
    locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    got_csv = tmp_path / "\u6570.csv"  # reaches the run's sys.argv as surrogate escapes
    proc = subprocess.run([sys.executable, "-m", "wsdsel.cli", "eval", "--dataset", str(path), "--checkpoint",
                           str(ckpt), "--out", str(tmp_path / "got.json"), "--pr-csv", str(got_csv)],
                          capture_output=True, text=True, env={**os.environ, **locale})
    assert proc.returncode == EXIT_OK, proc.stderr
    assert got_csv.read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    assert "\ncaf\u00e9 \u6570," in got_csv.read_text(encoding="utf-8")
    run = json.loads((tmp_path / "got.json.manifest.json").read_text(encoding="utf-8"))
    assert run["outputs"]["pr_csv"] == run["config"]["pr_csv"] == str(got_csv)
    assert run["inputs"] == {"dataset": str(path), "checkpoint": str(ckpt)}


def test_an_output_name_the_filesystem_encoding_cannot_hold_is_not_written(trained, tmp_path):
    # Read from a UTF-8 config file, the name holds the character itself, not surrogate escapes,
    # and an ASCII filesystem encoding cannot encode it: an output that cannot be written.
    dataset, ckpt = trained
    (tmp_path / "cfg.txt").write_text(f"pr_csv = {tmp_path}/数-cfg.csv\n", encoding="utf-8")
    before = _tree(tmp_path)
    locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    proc = subprocess.run([sys.executable, "-m", "wsdsel.cli", "eval", "--dataset", str(dataset), "--checkpoint",
                           str(ckpt), "--out", str(tmp_path / "r.json"), "--config", str(tmp_path / "cfg.txt")],
                          capture_output=True, text=True, env={**os.environ, **locale})
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "config error: cannot write output" in proc.stderr and "Traceback" not in proc.stderr
    assert _tree(tmp_path) == before  # no PR CSV, report, run manifest or temporary file


def test_an_output_name_holding_a_nul_is_not_written(trained, tmp_path, capsys):
    # No file name holds a NUL, and a --config file's value can.
    dataset, ckpt = trained
    (tmp_path / "cfg.txt").write_text(f"pr_csv = {tmp_path}/a\0b.csv\n", encoding="utf-8")
    before = _tree(tmp_path)
    assert run_eval(dataset, ckpt, tmp_path / "r.json", "--config", str(tmp_path / "cfg.txt")) == EXIT_CONFIG
    assert "config error: cannot write output" in capsys.readouterr().err
    assert _tree(tmp_path) == before  # no PR CSV, report, run manifest or temporary file


def test_run_manifest_writes_an_undecodable_name_byte_as_an_escape(trained, tmp_path):
    dataset, ckpt = trained
    pr_csv = os.fsdecode(bytes(tmp_path) + b"/pr-\xff.csv")  # no UTF-8 text holds the byte 0xff
    assert run_eval(dataset, ckpt, tmp_path / "r.json", "--pr-csv", pr_csv) == EXIT_OK
    assert os.path.exists(pr_csv)
    run = json.loads((tmp_path / "r.json.manifest.json").read_text(encoding="utf-8"))
    assert run["outputs"]["pr_csv"] == run["config"]["pr_csv"] == f"{tmp_path}/pr-\\xff.csv"


def _dataclass_defaults(cls) -> dict:
    instance = cls()
    return {f.name: getattr(instance, f.name) for f in dataclasses.fields(cls)}


def _train_defaults() -> dict:
    config = _dataclass_defaults(TrainConfig)
    del config["schedule"]
    config["epochs"] = config.pop("total_epochs")  # epsilon's default is head.EPS
    schedule = _dataclass_defaults(PruneSchedule)
    del schedule["total_epochs"]  # the CLI derives it from schedule_epochs, below
    return {**config, **schedule}


@pytest.mark.parametrize(
    "keys, cli_only, library",
    [
        (SYNTH_KEYS, {"train_split"}, lambda: _dataclass_defaults(SynthConfig)),
        # schedule_epochs 0 means max(epochs, warmup_epochs + 1), not PruneSchedule's total_epochs
        (TRAIN_KEYS, {"schedule_epochs"}, _train_defaults),
        (EVAL_KEYS, {"both", "pr_csv"}, lambda: _dataclass_defaults(EvalOptions)),
        (GRADCHECK_KEYS, set(), lambda: {n: p.default for n, p in inspect.signature(run_gradcheck).parameters.items()}),
    ],
    ids=["synth", "train", "eval", "gradcheck"],
)
def test_cli_defaults_are_the_librarys(keys, cli_only, library):
    # every key but the CLI-only ones is a library setting, with the same default of the same type
    assert cli_only <= {key.name for key in keys}
    cli = {key.name: (type(key.default), key.default) for key in keys if key.name not in cli_only}
    assert cli == {name: (type(value), value) for name, value in library().items()}


def test_pr_csv_into_a_missing_directory_is_written(trained, tmp_path):
    dataset, ckpt = trained
    csv = tmp_path / "new" / "dir" / "pr.csv"
    assert run_eval(dataset, ckpt, tmp_path / "r.json", "--pr-csv", str(csv)) == EXIT_OK
    assert csv.read_text().startswith("class,rank,score,recall,precision")
    assert (tmp_path / "r.json.manifest.json").exists()


class TestMalformedInputs:
    """Corrupt or empty inputs end in exit 3 with a message, never a traceback or a report."""

    def test_short_checkpoint(self, trained, tmp_path):
        dataset, ckpt = trained
        ckpt.write_bytes(ckpt.read_bytes()[:10])
        assert run_eval(dataset, ckpt, tmp_path / "r.json") == EXIT_DATA

    @pytest.mark.parametrize("block", ["params", "velocity"])
    def test_non_finite_checkpoint(self, trained, tmp_path, block):
        dataset, ckpt = trained
        state = load_checkpoint(ckpt)
        getattr(state, block).w_cls[0, 0] = np.nan
        save_checkpoint(state, ckpt)
        assert run_eval(dataset, ckpt, tmp_path / "r.json") == EXIT_DATA
        assert not (tmp_path / "r.json").exists()

    def test_checkpoint_of_another_version_names_the_file_and_the_version(self, trained, tmp_path, capsys):
        dataset, ckpt = trained
        raw = ckpt.read_bytes()
        ckpt.write_bytes(raw[:4] + struct.pack("<I", 2) + raw[8:])
        with pytest.raises(DataError, match="unsupported checkpoint version 2"):
            load_checkpoint(ckpt)
        before = _tree(tmp_path)
        assert run_eval(dataset, ckpt, tmp_path / "r.json") == EXIT_DATA
        assert capsys.readouterr().err == f"data error: checkpoint {ckpt}: unsupported checkpoint version 2\n"
        assert _tree(tmp_path) == before  # no report or run manifest

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_features_file_of_another_dataset_is_refused(self, trained, tmp_path, capsys, command):
        # The manifest names the features file of a split with fewer images: its header's count differs.
        dataset, ckpt = trained
        assert main(["synth", "--out", str(tmp_path / "sp.json"), *SMALL_SYNTH, "--train-split", "7"]) == EXIT_OK
        manifest = json.loads(dataset.read_text())
        manifest["features"] = "sp-test_features/features.wsdf"
        dataset.write_text(json.dumps(manifest))
        before = _tree(tmp_path)
        if command == "eval":
            rc = run_eval(dataset, ckpt, tmp_path / "r.json")
        else:
            rc = main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "c.wsdc"), *FAST_TRAIN])
        assert rc == EXIT_DATA
        named = tmp_path / "sp-test_features" / "features.wsdf"
        assert capsys.readouterr().err == f"data error: features file {named} holds 3 images, the manifest 10\n"
        assert _tree(tmp_path) == before  # no checkpoint, loss CSV, report or run manifest

    def test_short_features_file(self, trained, tmp_path, capsys):
        dataset, ckpt = trained
        features = tmp_path / "ds_features" / "features.wsdf"
        features.write_bytes(features.read_bytes()[:12])
        assert run_eval(dataset, ckpt, tmp_path / "r.json") == EXIT_DATA
        assert "data error: image im00000: truncated features file" in capsys.readouterr().err

    def test_a_dataset_of_per_image_sidecars_names_the_manifest(self, trained, tmp_path, capsys):
        # The layout before features file version 3: each record names its own version-2 sidecar (magic,
        # version, V, N, D, then the boxes and the views), and the manifest has no `features` key.
        dataset, ckpt = trained
        loaded = load_dataset(dataset)
        manifest = json.loads(dataset.read_text())
        (tmp_path / "ds_features" / "features.wsdf").unlink()
        del manifest["features"]
        for bag, record in zip(loaded.images, manifest["images"]):
            record["feature_file"] = f"ds_features/{bag.id}.wsdf"
            (tmp_path / record["feature_file"]).write_bytes(
                b"WSDF" + struct.pack("<HIII", 2, *bag.views.shape) + bag.boxes.tobytes() + bag.views.tobytes()
            )
        dataset.write_text(json.dumps(manifest))
        before = _tree(tmp_path)
        assert run_eval(dataset, ckpt, tmp_path / "r.json") == EXIT_DATA
        assert capsys.readouterr().err == f"data error: dataset manifest {dataset} missing key 'features'\n"
        assert _tree(tmp_path) == before  # no report or run manifest

    def test_a_sidecar_named_as_the_features_file_names_the_version(self, trained, tmp_path, capsys):
        # A version-2 sidecar begins as a features file does; its version tells them apart.
        dataset, ckpt = trained
        loaded = load_dataset(dataset)
        bag = loaded.images[0]
        features = tmp_path / "ds_features" / "features.wsdf"
        features.write_bytes(b"WSDF" + struct.pack("<HIII", 2, *bag.views.shape) + bag.boxes.tobytes()
                             + bag.views.tobytes())
        assert run_eval(dataset, ckpt, tmp_path / "r.json") == EXIT_DATA
        assert capsys.readouterr().err == f"data error: features file {features}: unsupported version 2\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("key", ["labels", "views"])
    def test_image_record_missing_key(self, trained, tmp_path, capsys, key):
        dataset, ckpt = trained
        manifest = json.loads(dataset.read_text())
        del manifest["images"][0][key]
        dataset.write_text(json.dumps(manifest))
        assert run_eval(dataset, ckpt, tmp_path / "r.json") == EXIT_DATA
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("c", "three"), ("d", 8.5), ("c", None)])
    def test_non_integer_dimension(self, trained, tmp_path, key, value):
        dataset, ckpt = trained
        manifest = json.loads(dataset.read_text())
        manifest[key] = value
        dataset.write_text(json.dumps(manifest))
        assert run_eval(dataset, ckpt, tmp_path / "r.json") == EXIT_DATA

    @pytest.mark.parametrize("edit", [
        lambda m: m.update(images={"im0": m["images"][0]}),
        lambda m: m.update(images="im0"),
        lambda m: m.update(images=[m["images"][0], 7]),
        lambda m: m.update(images=[["im0"]]),
        lambda m: m["images"][0].update(labels=["one", 0, 0]),
        lambda m: m["images"][0].update(labels=[1.5, 0, 0]),
        lambda m: m["images"][0].update(labels=[None, 0, 0]),
        lambda m: m["images"][0].update(labels="100"),
        lambda m: m["images"][0].update(labels=[2**70, 0, 0]),
    ], ids=["images-object", "images-string", "record-number", "record-list",
            "label-string", "label-float", "label-null", "labels-string", "label-huge"])
    def test_malformed_structure(self, trained, tmp_path, capsys, edit):
        dataset, ckpt = trained
        manifest = json.loads(dataset.read_text())
        edit(manifest)
        dataset.write_text(json.dumps(manifest))
        assert run_eval(dataset, ckpt, tmp_path / "r.json") == EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_repeated_image_id(self, trained, tmp_path, capsys):
        # Images that shared an id used to share their ground truth in the AP matching.
        dataset, ckpt = trained
        manifest = json.loads(dataset.read_text())
        for record in manifest["images"]:
            record["id"] = "im00000"
        dataset.write_text(json.dumps(manifest))
        assert run_eval(dataset, ckpt, tmp_path / "r.json") == EXIT_DATA
        assert "image 1 ('im00000'): id repeats image 0's" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("where", ["images", "proposals", "c"])
    def test_manifest_nested_deeper_than_json_decodes(self, trained, tmp_path, capsys, where):
        dataset, ckpt = trained
        manifest = json.loads(dataset.read_text())
        if where == "proposals":
            manifest["images"][0]["proposals"] = "deep"
        else:
            manifest[where] = "deep"
        dataset.write_text(json.dumps(manifest).replace('"deep"', "[" * 100_000 + "]" * 100_000))
        assert run_eval(dataset, ckpt, tmp_path / "r.json") == EXIT_DATA
        assert "cannot load dataset manifest" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_features_path_holding_a_nul_names_the_file(self, small_dataset, tmp_path, capsys):
        manifest = json.loads(small_dataset.read_text())
        manifest["features"] = "ds_features/feat\u0000ures.wsdf"
        small_dataset.write_text(json.dumps(manifest))
        rc = main(["train", "--dataset", str(small_dataset), "--out", str(tmp_path / "c.wsdc"), *FAST_TRAIN])
        assert rc == EXIT_DATA
        assert "data error: cannot read features file" in capsys.readouterr().err
        assert not (tmp_path / "c.wsdc").exists()

    @pytest.mark.parametrize("text", ["[1, 2, 3]", '"c d class_names images"'])
    def test_manifest_not_an_object(self, trained, tmp_path, text):
        dataset, ckpt = trained
        dataset.write_text(text)
        assert run_eval(dataset, ckpt, tmp_path / "r.json") == EXIT_DATA

    def test_fewer_class_names_than_classes(self, trained, tmp_path, capsys):
        dataset, _ = trained
        manifest = json.loads(dataset.read_text())
        manifest["class_names"] = manifest["class_names"][:2]
        dataset.write_text(json.dumps(manifest))
        before = _tree(tmp_path)
        assert main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "c.wsdc"), *FAST_TRAIN]) == EXIT_DATA
        assert capsys.readouterr().err == "data error: expected 3 class names, got 2\n"
        assert _tree(tmp_path) == before  # no checkpoint, loss CSV or run manifest

    def test_missing_checkpoint(self, trained, tmp_path, capsys):
        dataset, _ = trained
        before = _tree(tmp_path)
        assert run_eval(dataset, tmp_path / "missing.wsdc", tmp_path / "r.json") == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: cannot read checkpoint {tmp_path / 'missing.wsdc'}: ")
        assert _tree(tmp_path) == before  # no report or run manifest

    def test_no_images(self, trained, tmp_path):
        dataset, ckpt = trained
        manifest = json.loads(dataset.read_text())
        manifest["images"] = []
        dataset.write_text(json.dumps(manifest))
        assert run_eval(dataset, ckpt, tmp_path / "r.json") == EXIT_DATA
        assert not (tmp_path / "r.json").exists()


class TestGradcheck:
    def test_default_passes(self, capsys):
        assert main(["gradcheck", "--instances", "20"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "max relative error" in out

    def test_degenerate_sizes_pass(self):
        assert main(["gradcheck", "--instances", "5", "--max-regions", "1",
                     "--max-classes", "1", "--max-dim", "1"]) == EXIT_OK

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_no_instances_exits_config(self, capsys, count):
        assert main(["gradcheck", "--instances", count]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "instances" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("flag, value", [("--max-regions", "0"), ("--max-classes", "0"), ("--max-dim", "0"),
                                             ("--step", "0"), ("--step", "nan"), ("--step", "inf"),
                                             ("--tolerance", "0"), ("--tolerance", "nan"), ("--tolerance", "inf"),
                                             ("--seed", "-2")])
    def test_bad_option_exits_config(self, capsys, flag, value):
        assert main(["gradcheck", "--instances", "2", flag, value]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert flag[2:].replace("-", "_") in captured.err
        assert "Traceback" not in captured.err
        assert "PASS" not in captured.out

    def test_nan_gradient_mutation_fails(self, monkeypatch, capsys):
        real, calls = wsdsel.head.backward_image, []

        def one_nan(trace, params, feats, labels, eps=wsdsel.head.EPS):
            grads = real(trace, params, feats, labels, eps)
            calls.append(None)
            if len(calls) == 3:
                grads.flat[0] = np.nan
            return grads

        monkeypatch.setattr(wsdsel.head, "backward_image", one_nan)
        report = wsdsel.head.run_gradcheck(instances=6)
        assert np.isnan(report["max_rel_error"]) and not report["passed"]
        assert report["worst_instance"].startswith("instance 2:")  # the finite errors after it do not replace it
        calls.clear()
        assert main(["gradcheck", "--instances", "6"]) == EXIT_NUMERIC
        assert "PASS" not in capsys.readouterr().out

    def test_sign_flip_mutation_fails(self, monkeypatch, capsys):
        real = wsdsel.head.backward_image

        def flipped(trace, params, feats, labels, eps=wsdsel.head.EPS):
            grads = real(trace, params, feats, labels, eps)
            return HeadParams(-grads.w_cls, grads.b_cls, grads.w_imp, grads.b_imp)

        monkeypatch.setattr(wsdsel.head, "backward_image", flipped)
        rc = main(["gradcheck", "--instances", "10"])
        assert rc == EXIT_NUMERIC
        assert "worst" in capsys.readouterr().err


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "wsdsel.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "wsdsel" in proc.stdout

    def test_run_as_module_synth(self, tmp_path):
        out = tmp_path / "ds.json"
        proc = subprocess.run(
            [sys.executable, "-m", "wsdsel.cli", "synth", "--out", str(out), *SMALL_SYNTH],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


def readme_commands() -> list[list[str]]:
    """Every `wsdsel ...` line in the README's code blocks, `\\` continuations joined, split as a shell would."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    lines = [line.strip() for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    return [shlex.split(line, comments=True) for line in lines if line.startswith("wsdsel ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[1] for argv in commands} == {"synth", "train", "eval", "gradcheck"}
    parser = wsdsel.cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


# Each subcommand's options, in order: (option strings, required, help).
PARSER_TABLE = {
    "synth": ("generate a synthetic dataset", [
        (["-h", "--help"], False, "show this help message and exit"),
        (["--config"], False, "key-value config file"),
        (["--out"], True, "dataset manifest path (JSON)"),
        (["--n-images"], False, "number of images to generate"),
        (["--num-classes"], False, "number of object classes"),
        (["--feat-dim"], False, "feature dimensionality"),
        (["--proposals-per-image"], False, "candidate regions per image"),
        (["--objects-min"], False, "minimum ground-truth objects per image"),
        (["--objects-max"], False, "maximum ground-truth objects per image"),
        (["--noise-sigma"], False, "feature noise standard deviation"),
        (["--context-fraction"], False, "fraction of proposals that are oversized context boxes"),
        (["--distractor-strength"], False, "scale of the shared scene-context direction"),
        (["--n-views"], False, "feature views per image"),
        (["--seed"], False, "generation seed"),
        (["--train-split"], False, "if > 0, write <out>-train/<out>-test datasets split at this index (< n_images)"),
    ]),
    "train": ("train the detection head", [
        (["-h", "--help"], False, "show this help message and exit"),
        (["--dataset"], True, "dataset manifest path"),
        (["--config"], False, "key-value config file"),
        (["--out"], True, "checkpoint output path"),
        (["--learning-rate"], False, "SGD learning rate"),
        (["--momentum"], False, "SGD momentum"),
        (["--weight-decay"], False, "L2 weight decay"),
        (["--epochs"], False, "training epochs"),
        (["--seed"], False, "initialization/shuffle seed"),
        (["--epsilon"], False, "aggregated-score clamp"),
        (["--lr-decay-epoch"], False, "epoch at which the learning rate steps down (-1 disables)"),
        (["--lr-decay-factor"], False, "learning-rate step factor"),
        (["--warmup-epochs"], False, "epochs with the full positive region set"),
        (["--m-start"], False, "positive budget at the end of warmup"),
        (["--m-final"], False, "positive budget floor"),
        (["--m-neg"], False, "negative budget (constant)"),
        (["--schedule-epochs"], False, "pruning-schedule horizon (0: max(epochs, warmup+1))"),
        (["--baseline", "--no-baseline"], False, "disable region selection (budgets = all regions)"),
    ]),
    "eval": ("evaluate a checkpoint: mAP, CorLoc, diagnostics", [
        (["-h", "--help"], False, "show this help message and exit"),
        (["--dataset"], True, "dataset manifest path"),
        (["--checkpoint"], True, "checkpoint path"),
        (["--config"], False, "key-value config file"),
        (["--out"], True, "report output path (JSON)"),
        (["--mask-mode"], False, "test-time importance mask: all | top_mpt"),
        (["--top-m"], False, "top-M budget for mask_mode=top_mpt and the concentration diagnostic"),
        (["--ap-protocol"], False, "AP protocol: eleven_point | area"),
        (["--nms-threshold"], False, "NMS IoU threshold"),
        (["--vote-threshold"], False, "box-voting IoU threshold"),
        (["--score-floor"], False, "drop detections scoring below this"),
        (["--iou-threshold"], False, "IoU threshold for a correct detection"),
        (["--both", "--no-both"], False, "also report the other AP protocol in diagnostics"),
        (["--pr-csv"], False, "optional path for a per-class PR-curve CSV dump"),
    ]),
    "gradcheck": ("verify backward against finite differences", [
        (["-h", "--help"], False, "show this help message and exit"),
        (["--config"], False, "key-value config file"),
        (["--seed"], False, "instance-generation seed"),
        (["--instances"], False, "number of random instances"),
        (["--max-regions"], False, "max regions per instance"),
        (["--max-classes"], False, "max classes per instance"),
        (["--max-dim"], False, "max feature dimension"),
        (["--step"], False, "finite-difference step"),
        (["--tolerance"], False, "max relative error allowed"),
    ]),
}


def test_parser_options_are_the_commands_table():
    # argparse keeps a parser's subcommands and options only in its private attributes
    parser = wsdsel.cli.build_parser()
    sub = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    helps = {action.dest: action.help for action in sub._choices_actions}
    got = {name: (helps[name], [(action.option_strings, action.required, action.help) for action in p._actions])
           for name, p in sub.choices.items()}
    assert got == PARSER_TABLE


def test_main_builds_its_parser_once_and_finds_each_handler_by_name(monkeypatch):
    built, handled = [], []
    build_parser = wsdsel.cli.build_parser
    monkeypatch.setattr(wsdsel.cli, "build_parser", lambda: built.append(1) or build_parser())
    wsdsel.cli._parser.cache_clear()
    try:
        # A wrapper put in the module's namespace after the parser exists is the handler each command calls.
        for instances in ("2", "3"):
            monkeypatch.setattr(wsdsel.cli, "cmd_gradcheck", lambda args, config: handled.append(config) or EXIT_OK)
            assert wsdsel.cli.main(["gradcheck", "--instances", instances]) == EXIT_OK
    finally:
        wsdsel.cli._parser.cache_clear()
    assert built == [1]
    assert [config["instances"] for config in handled] == [2, 3]
