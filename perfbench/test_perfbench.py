"""Fast self-test of the benchmark on toy shapes.

    python3 -m pytest -q -p no:cacheprovider perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is emitted with its unit, in
both trace modes and on every workload, that the tracer leaves every
wsdsel module attribute as it found it, that its byte counts match the
files written, and that the result-figure check catches a changed number.
"""

import json
import sys

import pytest

import run

run.import_wsdsel()

import workloads  # noqa: E402  (needs wsdsel on the path)
from tracer import COUNTED, TIMED, Tracer  # noqa: E402

TOY = {
    "walkthrough": workloads.WalkthroughShape(
        synth_flags=("--n-images", "12", "--num-classes", "3", "--feat-dim", "8", "--proposals-per-image", "16"),
        n_images=12,
        train_split=8,
        epochs=3,
        train_flags=("--learning-rate", "3e-3", "--epochs", "3", "--warmup-epochs", "1", "--schedule-epochs", "3"),
        selection_flags=("--m-start", "16", "--m-final", "4", "--m-neg", "4"),
        top_m=4,
    ),
    "paper_train": workloads.PaperTrainShape(
        n_images=4, num_classes=3, feat_dim=8, proposals=32, epochs=3, warmup_epochs=1, m_start=16, m_final=8, m_neg=8
    ),
    "dense_eval": workloads.DenseEvalShape(n_train=4, n_test=2, num_classes=3, feat_dim=8, proposals=16),
}


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def wsdsel_namespaces() -> dict[str, dict]:
    return {name: dict(vars(m)) for name, m in sys.modules.items() if name.split(".")[0] == "wsdsel"}


def test_workloads_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS) == sorted(TOY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TOY))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, monkeypatch):
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)  # toy set-ups take milliseconds
    before = wsdsel_namespaces()
    result, detail = run.measure(name, seed=0, seconds=0, trace=bool(trace), shape=TOY[name])
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared("per_layer" if trace else "end_to_end")
    assert result["attempted"] >= 1 and result["failed"] == 0
    failed_checks = {k for k, ok in detail["checks"].items() if not ok}
    # Toy data is too small for selection to be guaranteed to beat the baseline.
    assert failed_checks <= {"selection_beats_baseline"}
    after = wsdsel_namespaces()
    assert before.keys() == after.keys()
    for module, namespace in before.items():
        changed = [k for k, v in namespace.items() if after[module].get(k) is not v]
        assert not changed, f"{module}: {changed}"


def test_tracer_wraps_every_holder_and_restores_them():
    import wsdsel
    from wsdsel import evaluation, geometry, head, trainer

    original_iou, original_forward = geometry.iou, head.forward_image
    before = wsdsel_namespaces()
    with Tracer():
        assert evaluation.iou is geometry.iou is wsdsel.iou
        assert geometry.iou is not original_iou
        assert trainer.forward_image is head.forward_image is not original_forward
    after = wsdsel_namespaces()
    for module, namespace in before.items():
        assert all(after[module][k] is v for k, v in namespace.items()), module


def test_removed_function_is_absent_not_zero(monkeypatch):
    from wsdsel import geometry

    monkeypatch.delattr(geometry, "box_vote")
    tracer = Tracer()
    with tracer:
        pass
    assert tracer.absent == ["geometry.box_vote"]
    metrics = tracer.metrics()
    assert not any(k.startswith("geometry.box_vote.") for k in metrics)
    assert "geometry.nms.calls" in metrics and len(TIMED + COUNTED) > len(tracer.absent)


def test_failed_commands_are_counted_not_raised(tmp_path):
    ops = workloads.Ops()
    ops.cli(["train", "--no-such-flag"])
    ops.cli(["eval", "--dataset", str(tmp_path / "missing.json"), "--checkpoint", "x", "--out", "y"])
    ops.call(workloads.data.load_dataset, tmp_path / "missing.json")
    assert (ops.attempted, ops.failed) == (3, 3)


def test_dataset_bytes_are_the_bytes_on_disk(tmp_path):
    from wsdsel import data

    ds = data.generate_synthetic(
        data.SynthConfig(n_images=3, num_classes=3, feat_dim=8, proposals_per_image=16, n_views=2, seed=0)
    )
    tracer = Tracer()
    with tracer:
        data.save_dataset(ds, tmp_path / "toy.json")
        data.load_dataset(tmp_path / "toy.json")
        data.load_dataset(tmp_path / "toy.json")
    on_disk = sum(f.stat().st_size for f in tmp_path.rglob("*") if f.is_file())
    metrics = tracer.metrics()
    assert metrics["data.bytes_written"][0] == on_disk
    assert metrics["data.bytes_read"][0] == 2 * on_disk


def test_quality_check_catches_a_changed_number():
    reference = {"map": 0.23, "map_gain": 0.0}
    assert run.quality_matches({"map": (0.23 + 1e-12, "ratio"), "map_gain": (1e-12, "ratio")}, reference)
    assert not run.quality_matches({"map": (0.15, "ratio"), "map_gain": (0.0, "ratio")}, reference)
    assert not run.quality_matches({"map": (0.23, "ratio")}, reference)
    assert not run.quality_matches({"map": (None, "ratio"), "map_gain": (0.0, "ratio")}, reference)
