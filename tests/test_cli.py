import json
import subprocess
import sys

import numpy as np
import pytest

import wsdsel.head
from wsdsel.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from wsdsel.data import load_dataset
from wsdsel.head import HeadParams
from wsdsel.trainer import init_params, load_checkpoint, save_checkpoint

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
        for sidecar in sorted((a / "ds_features").iterdir()):
            assert sidecar.read_bytes() == (b / "ds_features" / sidecar.name).read_bytes()

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
            ["--momentum", "nan"],
        ],
    )
    def test_bad_option_exits_config(self, small_dataset, tmp_path, capsys, flags):
        ckpt = tmp_path / "c.wsdc"
        rc = main(["train", "--dataset", str(small_dataset), "--out", str(ckpt), *FAST_TRAIN, *flags])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not ckpt.exists()


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
        # every linear_outputs call during eval is one application of the linear layer to one view
        real = wsdsel.head.linear_outputs
        calls = []

        def counted(params, feats):
            calls.append(feats.shape)
            return real(params, feats)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "wsdsel" and getattr(module, "linear_outputs", None) is real:
                monkeypatch.setattr(module, "linear_outputs", counted)
        assert run_eval(ds, ckpt, tmp_path / "r.json", "--both", "--pr-csv", str(tmp_path / "pr.csv")) == EXIT_OK
        assert len(calls) == 10 * 2

    def test_dimension_mismatch_exits_data(self, trained, tmp_path):
        dataset, _ = trained
        other = tmp_path / "other.wsdc"
        from wsdsel.trainer import TrainState, save_checkpoint

        params = init_params(5, 2, 0)
        save_checkpoint(TrainState(params=params, velocity=params.zeros_like()), other)
        rc = main(["eval", "--dataset", str(dataset), "--checkpoint", str(other),
                   "--out", str(tmp_path / "r.json")])
        assert rc == EXIT_DATA

    def test_top_mpt_mask_mode_runs(self, trained, tmp_path):
        dataset, ckpt = trained
        path = tmp_path / "r.json"
        assert main(["eval", "--dataset", str(dataset), "--checkpoint", str(ckpt),
                     "--out", str(path), "--mask-mode", "top_mpt", "--top-m", "4"]) == EXIT_OK
        assert 0.0 <= json.loads(path.read_text())["map"] <= 1.0


@pytest.mark.parametrize(
    "command, flag",
    [("synth", "--out"), ("train", "--out"), ("eval", "--out"), ("eval", "--pr-csv")],
)
def test_output_that_cannot_be_written_exits_config(trained, tmp_path, capsys, command, flag):
    dataset, ckpt = trained
    taken = tmp_path / "taken"
    taken.mkdir()
    inputs = {"synth": SMALL_SYNTH, "train": ["--dataset", str(dataset), *FAST_TRAIN],
              "eval": ["--dataset", str(dataset), "--checkpoint", str(ckpt)]}[command]
    # a flag given twice takes its last value, so `--out taken` overrides the first --out
    assert main([command, *inputs, "--out", str(tmp_path / "out" / "x"), flag, str(taken)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and str(taken) in err


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

    def test_short_sidecar(self, trained, tmp_path):
        dataset, ckpt = trained
        sidecar = sorted((tmp_path / "ds_features").iterdir())[0]
        sidecar.write_bytes(sidecar.read_bytes()[:12])
        assert run_eval(dataset, ckpt, tmp_path / "r.json") == EXIT_DATA

    @pytest.mark.parametrize("key", ["feature_file", "labels", "proposals", "views"])
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

    @pytest.mark.parametrize("text", ["[1, 2, 3]", '"c d class_names images"'])
    def test_manifest_not_an_object(self, trained, tmp_path, text):
        dataset, ckpt = trained
        dataset.write_text(text)
        assert run_eval(dataset, ckpt, tmp_path / "r.json") == EXIT_DATA

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
                                             ("--tolerance", "0"), ("--tolerance", "nan"), ("--tolerance", "inf")])
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
