"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
The synthetic-benchmark protocol (criteria 7 and 8) is the default
generator config with a pruning schedule scaled to its region count:
budgets start at the full 64 regions and halve down to 8, with 16 hard
negatives per class.
"""

import time

import numpy as np
import pytest

from wsdsel.cli import main
from wsdsel.data import SynthConfig, generate_synthetic, split_dataset
from wsdsel.evaluation import EvalOptions, corloc, evaluate_map, infer_image, detect, voc_ap, weight_concentration
from wsdsel.geometry import BBox, iou
from wsdsel.head import (
    HeadParams,
    backward_image,
    finite_diff_grads,
    forward_image,
    gradient_agreement,
    run_gradcheck,
    select_regions,
)
from wsdsel.schedule import PruneSchedule, epochs_per_halving, pos_budget
from wsdsel.trainer import TrainConfig, init_params, train

from reference_eval import reference_ap, topm_indices

EPS = 1e-12

BENCH_SYNTH = SynthConfig()  # 200 images, C=6, D=64, N=64
BENCH_SPLIT = 160
BENCH_SCHEDULE = dict(warmup_epochs=20, m_start=64, m_final=8, m_neg=16, total_epochs=40)
BENCH_TRAIN = dict(learning_rate=3e-3, momentum=0.9, weight_decay=5e-4, total_epochs=40)
BENCH_EVAL = EvalOptions(top_m=BENCH_SCHEDULE["m_final"])
BENCH_SEEDS = (0, 1, 2, 3, 4)


def announce(ok: bool, text: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, text


@pytest.fixture(scope="module")
def ablation():
    """Train selection and baseline arms on 5 fixed seeds; cache everything."""
    runs = []
    started = time.time()
    for seed in BENCH_SEEDS:
        ds = generate_synthetic(SynthConfig(seed=seed))
        train_ds, test_ds = split_dataset(ds, BENCH_SPLIT)
        schedule = PruneSchedule(**BENCH_SCHEDULE)
        selection = train(train_ds, TrainConfig(**BENCH_TRAIN, seed=seed, schedule=schedule))
        baseline = train(train_ds, TrainConfig(**BENCH_TRAIN, seed=seed, schedule=schedule, baseline=True))
        runs.append(
            {
                "seed": seed,
                "train_ds": train_ds,
                "selection": selection,
                "baseline": baseline,
                "sel_map": evaluate_map(test_ds, selection.params, BENCH_EVAL).map,
                "bas_map": evaluate_map(test_ds, baseline.params, BENCH_EVAL).map,
            }
        )
    return {"runs": runs, "elapsed": time.time() - started}


def test_criterion_1_gradient_correctness():
    started = time.time()
    report = run_gradcheck(seed=0, instances=100, max_regions=12, max_classes=4, max_dim=8,
                           step=1e-4, tolerance=1e-4)
    elapsed = time.time() - started
    ok = report["passed"] and elapsed < 30.0
    announce(ok, f"criterion 1: gradient check over {report['instances']} instances, "
                 f"max rel error {report['max_rel_error']:.2e} < 1e-4, {elapsed:.1f}s < 30s")


def test_criterion_2_constraint_suite():
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 31))
        c = int(rng.integers(1, 9))
        d = int(rng.integers(1, 13))
        params = HeadParams(
            w_cls=rng.normal(scale=0.5, size=(c, d)),
            b_cls=rng.normal(scale=0.5, size=c),
            w_imp=rng.normal(scale=0.5, size=(c, d)),
            b_imp=rng.normal(scale=0.5, size=c),
        )
        feats = rng.normal(size=(n, d))
        labels = (rng.random(c) < 0.5).astype(np.int64)
        trace = forward_image(params, feats, labels,
                              int(rng.integers(1, n + 2)), int(rng.integers(1, n + 2)))
        assert np.abs(trace.p.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.abs(trace.v.sum(axis=0) - 1.0).max() <= 1e-9
        assert (trace.v[~trace.h] == 0.0).all()
        assert ((trace.f >= EPS) & (trace.f <= 1.0 - EPS)).all()
        checked += 1
    announce(checked == 1000,
             "criterion 2: 1000 forward passes satisfy row/column stochasticity and f clamping")


def test_criterion_3_selection_oracle():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 1001))
        c = int(rng.integers(1, 21))
        p = rng.random((n, c))
        if rng.random() < 0.2:  # force ties
            p = np.round(p, 2)
        labels = (rng.random(c) < 0.5).astype(np.int64)
        m_pos = int(rng.integers(1, 1200))
        m_neg = int(rng.integers(1, 1200))
        h = select_regions(p, labels, m_pos, m_neg)
        j = int(rng.integers(c))  # exhaustive check on one random column per instance
        budget = m_pos if labels[j] else m_neg
        assert set(np.flatnonzero(h[:, j])) == topm_indices(list(p[:, j]), budget)
    announce(True, "criterion 3: select_regions matches the brute-force top-M argmax on 1000 instances")


def test_criterion_4_schedule():
    schedule = PruneSchedule()
    ok = epochs_per_halving(schedule) == 5.0
    n = 2000
    expected = [n] * 20 + [1024] * 5 + [512] * 5 + [256] * 5 + [128] * 5
    got = [pos_budget(e, n, schedule) for e in range(40)]
    ok = ok and got == expected
    announce(ok, "criterion 4: defaults give N_e = 5 and the exact per-epoch budget trace")


def test_criterion_5_selected_only_backprop():
    rng = np.random.default_rng(5)
    instances = 0
    for _ in range(25):
        n, c, d = 12, int(rng.integers(1, 4)), int(rng.integers(2, 9))
        params = HeadParams(
            w_cls=rng.normal(scale=0.1, size=(c, d)),
            b_cls=rng.normal(scale=0.1, size=c),
            w_imp=rng.normal(scale=0.1, size=(c, d)),
            b_imp=rng.normal(scale=0.1, size=c),
        )
        feats = rng.normal(size=(n, d))
        labels = (rng.random(c) < 0.5).astype(np.int64)
        trace = forward_image(params, feats, labels, 2, 2)
        idle = np.flatnonzero(~trace.h.any(axis=1))
        if idle.size == 0:
            continue
        grads = backward_image(trace, params, feats, labels)
        zeroed = feats.copy()
        zeroed[idle] = 0.0
        grads_zeroed = backward_image(trace, params, zeroed, labels)
        for (_, a), (_, b) in zip(grads.blocks(), grads_zeroed.blocks()):
            assert a.tobytes() == b.tobytes()
        instances += 1
    announce(instances >= 20,
             f"criterion 5: zeroing unselected regions left gradients bit-identical on {instances} instances")


def test_criterion_6_metrics_oracle():
    # eleven-point AP fixture: 2 GT, ranked detections TP, FP, TP -> 28/33
    g1, g2 = BBox(0, 0, 10, 10), BBox(20, 20, 30, 30)
    gts = {"a": [g1, g2]}
    dets = [("a", 0.9, g1), ("a", 0.8, BBox(50, 50, 60, 60)), ("a", 0.7, g2)]
    ap = voc_ap(dets, gts, protocol="eleven_point")
    ok = abs(ap - 28.0 / 33.0) < 1e-12
    ok = ok and abs(ap - reference_ap(dets, gts, 0.5, "eleven_point", iou)) < 1e-12
    ok = ok and abs(voc_ap(dets, gts, protocol="area")
                    - reference_ap(dets, gts, 0.5, "area", iou)) < 1e-12

    # CorLoc threshold behavior at IoU 0.49 / 0.50 / 0.60
    from wsdsel.data import Dataset, ImageBag

    def corloc_with_gt(gt_box):
        feats = np.array([[3.0], [0.0]], dtype=np.float32)
        bag = ImageBag(id="i", proposals=[BBox(0, 0, 10, 10), BBox(20, 20, 30, 30)],
                       views=[feats], labels=np.array([1]), ground_truth=[(0, gt_box)])
        ds = Dataset(num_classes=1, feat_dim=1, class_names=["c"], images=[bag])
        params = HeadParams(np.zeros((1, 1)), np.zeros(1), np.array([[1.0]]), np.zeros(1))
        return corloc(ds, params)[1]

    ok = ok and corloc_with_gt(BBox(0, 0, 10, 4.9)) == 0.0
    ok = ok and corloc_with_gt(BBox(0, 0, 10, 5.0)) == 1.0
    ok = ok and corloc_with_gt(BBox(0, 0, 10, 6.0)) == 1.0

    # full evaluate_map agrees exactly with the brute-force reference
    ds = generate_synthetic(SynthConfig(n_images=5, num_classes=2, feat_dim=6,
                                        proposals_per_image=10, seed=41))
    params = init_params(6, 2, seed=6)
    report = evaluate_map(ds, params)
    for j in range(2):
        dets_j, gts_j = [], {}
        for bag in ds.images:
            boxes = [b for cls, b in bag.ground_truth if cls == j]
            if boxes:
                gts_j[bag.id] = boxes
            scores = infer_image(params, bag)
            for det in detect(scores, bag.proposals):
                if det.class_id == j:
                    dets_j.append((bag.id, det.score, det.box))
        ok = ok and abs(report.per_class_ap[j] - reference_ap(dets_j, gts_j, 0.5, "eleven_point", iou)) < 1e-12
    announce(ok, "criterion 6: metrics match the brute-force reference exactly "
                 "(28/33 eleven-point case, CorLoc thresholds, 5-image mAP fixture)")


def test_criterion_7_selection_beats_baseline(ablation):
    diffs = [r["sel_map"] - r["bas_map"] for r in ablation["runs"]]
    wins = sum(d > 0 for d in diffs)
    mean_diff = float(np.mean(diffs))
    elapsed = ablation["elapsed"]
    detail = ", ".join(f"seed {r['seed']}: {r['sel_map']:.3f} vs {r['bas_map']:.3f}"
                       for r in ablation["runs"])
    ok = wins >= 4 and mean_diff >= 0.03 and elapsed < 600.0
    announce(ok, f"criterion 7: selection beats baseline in {wins}/5 seeds, "
                 f"mean mAP gain {mean_diff:+.4f} >= 0.03, {elapsed:.0f}s < 600s ({detail})")


def test_criterion_8_weight_concentration(ablation):
    k = BENCH_SCHEDULE["m_final"]
    run = ablation["runs"][0]
    train_ds = run["train_ds"]
    at_init = weight_concentration(init_params(train_ds.feat_dim, train_ds.num_classes, run["seed"]),
                                   train_ds, k)
    trained = weight_concentration(run["selection"].params, train_ds, k)
    ok = trained > at_init
    announce(ok, f"criterion 8: top-{k} importance concentration rose from "
                 f"{at_init:.3f} at init to {trained:.3f} after the selection run")


def test_criterion_9_determinism(tmp_path):
    synth_flags = ["--n-images", "16", "--num-classes", "3", "--feat-dim", "8",
                   "--proposals-per-image", "16", "--seed", "3"]
    train_flags = ["--epochs", "6", "--warmup-epochs", "2", "--m-start", "16", "--m-final", "4",
                   "--m-neg", "4", "--schedule-epochs", "6", "--seed", "3"]
    blobs = []
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        ds = root / "ds.json"
        ckpt = root / "ckpt.wsdc"
        report = root / "report.json"
        assert main(["synth", "--out", str(ds), *synth_flags]) == 0
        assert main(["train", "--dataset", str(ds), "--out", str(ckpt), *train_flags]) == 0
        assert main(["eval", "--dataset", str(ds), "--checkpoint", str(ckpt),
                     "--out", str(report), "--top-m", "4"]) == 0
        blobs.append({
            "manifest": ds.read_bytes(),
            "features": {p.name: p.read_bytes() for p in sorted((root / "ds_features").iterdir())},
            "checkpoint": ckpt.read_bytes(),
            "report": report.read_bytes(),
        })
    ok = blobs[0] == blobs[1]
    announce(ok, "criterion 9: synth -> train -> eval reruns are byte-identical "
                 "(dataset manifest, features file, checkpoint, report)")
