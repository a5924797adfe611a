import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsdsel import evaluation
from wsdsel.data import Dataset, ImageBag, SynthConfig, generate_synthetic
from wsdsel.evaluation import (
    EvalOptions,
    corloc,
    detect,
    evaluate_map,
    infer_image,
    voc_ap,
    weight_concentration,
)
from wsdsel.geometry import BBox, Detection, iou, iou_matrix
from wsdsel.head import HeadParams, class_softmax, masked_softmax
from wsdsel.trainer import init_params

from reference_eval import greedy_nms_indices, match_detections, reference_ap, reference_corloc
from test_geometry import grid_boxes_strategy


def scalar_detect(scores, proposals, nms_threshold=0.6, vote_threshold=0.5, score_floor=1e-4):
    """Per-class NMS and box voting with scalar IoU, voters summed one by one in index order."""
    out = []
    for j in range(scores.shape[1]):
        pool = [i for i in range(len(proposals)) if scores[i, j] >= score_floor]
        boxes = [proposals[i] for i in pool]
        pool_scores = [float(scores[i, j]) for i in pool]
        for k in greedy_nms_indices(boxes, pool_scores, nms_threshold, iou):
            sums, total = [0.0] * 4, 0.0
            for box, w in zip(boxes, pool_scores):
                if iou(box, boxes[k]) >= vote_threshold:
                    sums = [acc + w * x for acc, x in zip(sums, box.as_tuple())]
                    total += w
            voted = BBox(*(x / total for x in sums)) if total > 0.0 else boxes[k]
            out.append(Detection(voted, j, pool_scores[k]))
    return out


def bag_with(feats, labels, proposals=None, gt=None, n_views=1):
    feats = np.asarray(feats, dtype=np.float32)
    n = feats.shape[0]
    proposals = proposals or [BBox(0, 0, 1, 1 + i) for i in range(n)]
    return ImageBag(
        id="fix0",
        proposals=proposals,
        views=[feats.copy() for _ in range(n_views)],
        labels=np.asarray(labels),
        ground_truth=gt or [],
    )


class TestInferImage:
    def test_degenerate_single_region_single_class(self):
        params = HeadParams(np.array([[0.7]]), np.array([0.2]), np.array([[1.3]]), np.array([-1.0]))
        bag = bag_with([[2.0]], [1])
        scores = infer_image(params, bag)
        np.testing.assert_array_equal(scores, [[1.0]])

    def test_two_identical_views_equal_one(self):
        rng = np.random.default_rng(0)
        params = HeadParams(
            rng.normal(size=(3, 4)), rng.normal(size=3), rng.normal(size=(3, 4)), rng.normal(size=3)
        )
        feats = rng.normal(size=(5, 4))
        one = infer_image(params, bag_with(feats, [1, 0, 1], n_views=1))
        two = infer_image(params, bag_with(feats, [1, 0, 1], n_views=2))
        np.testing.assert_allclose(one, two, atol=1e-15)

    def test_mask_all_composes_op_oracles(self):
        rng = np.random.default_rng(1)
        params = HeadParams(
            rng.normal(size=(2, 3)), rng.normal(size=2), rng.normal(size=(2, 3)), rng.normal(size=2)
        )
        feats = rng.normal(size=(3, 3))
        scores = infer_image(params, bag_with(feats, [1, 0]))
        x = feats.astype(np.float64)
        p = class_softmax(x @ params.w_cls.T + params.b_cls)
        logits = x @ params.w_imp.T + params.b_imp
        for j in range(2):
            v = masked_softmax(logits[:, j], np.ones(3, dtype=bool))
            np.testing.assert_allclose(scores[:, j], v * p[:, j], atol=1e-15)

    def test_top_mpt_masks_low_probability_regions(self):
        rng = np.random.default_rng(2)
        params = HeadParams(
            rng.normal(size=(2, 3)), rng.normal(size=2), rng.normal(size=(2, 3)), rng.normal(size=2)
        )
        feats = rng.normal(size=(6, 3))
        scores = infer_image(params, bag_with(feats, [1, 1]), mask_mode="top_mpt", top_m=2)
        assert ((scores > 0).sum(axis=0) == 2).all()

    def test_unknown_mask_mode(self):
        params = HeadParams(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
        with pytest.raises(ValueError):
            infer_image(params, bag_with([[1.0]], [1]), mask_mode="bogus")


class TestDetect:
    def test_all_below_floor(self):
        scores = np.full((3, 2), 1e-6)
        props = [BBox(0, 0, 1, 1), BBox(2, 2, 3, 3), BBox(4, 4, 5, 5)]
        assert detect(scores, props) == []

    def test_single_region_keeps_original_box(self):
        props = [BBox(0, 0, 4, 4)]
        dets = detect(np.array([[0.5]]), props)
        assert len(dets) == 1
        assert dets[0].box == props[0]
        assert dets[0].score == 0.5

    def test_overlapping_pair_voted(self):
        a, b = BBox(0, 0, 10, 10), BBox(0, 0, 12, 10)
        assert iou(a, b) == pytest.approx(100 / 120)
        dets = detect(np.array([[0.9], [0.8]]), [a, b], nms_threshold=0.6, vote_threshold=0.5)
        assert len(dets) == 1
        total = 0.9 + 0.8  # score-weighted mean of the two boxes, coordinate by coordinate
        assert dets[0].box == BBox(0.0, 0.0, (0.9 * 10 + 0.8 * 12) / total, (0.9 * 10 + 0.8 * 10) / total)
        assert dets[0].score == 0.9

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_reference_exactly(self, seed):
        rng = np.random.default_rng(50 + seed)
        n, c = int(rng.integers(1, 40)), int(rng.integers(1, 4))
        props = []
        for _ in range(n):
            x, y = rng.uniform(0, 8, 2)
            w, h = rng.uniform(0.5, 4, 2)
            props.append(BBox(x, y, x + w, y + h))
        scores = rng.random((n, c)) * (rng.random((n, c)) < 0.7)  # some candidates under the floor
        nms_threshold, vote_threshold = float(rng.uniform(0.2, 0.9)), float(rng.uniform(0.0, 1.0))
        got = detect(scores, props, nms_threshold, vote_threshold)
        assert got == scalar_detect(scores, props, nms_threshold, vote_threshold)

    def test_no_kept_pair_overlaps_beyond_threshold(self):
        # vote_threshold=1.0 makes each box vote only for itself, so the
        # output boxes are exactly the pre-vote NMS survivors
        rng = np.random.default_rng(3)
        props = []
        for _ in range(20):
            x, y = rng.uniform(0, 5, 2)
            w, h = rng.uniform(0.5, 4, 2)
            props.append(BBox(x, y, x + w, y + h))
        scores = rng.random((20, 2))
        dets = detect(scores, props, nms_threshold=0.4, vote_threshold=1.0)
        for j in (0, 1):
            cls = [d for d in dets if d.class_id == j]
            assert cls  # floor 1e-4 keeps plenty of candidates
            for i, a in enumerate(cls):
                for b in cls[i + 1 :]:
                    assert iou(a.box, b.box) <= 0.4


    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.lists(grid_boxes_strategy(), min_size=n, max_size=n),
                st.lists(st.lists(st.sampled_from([0.0, 5e-5, 0.2, 0.5, 0.9]), min_size=3, max_size=3),
                         min_size=n, max_size=n),
            )
        ),
        st.sampled_from([0.3, 0.6, 1.0]),
        st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_class_batched_equals_scalar_reference(self, case, nms_threshold, vote_threshold):
        # grid boxes and a few score levels give IoU and score ties; 0 and 5e-5 are under the floor,
        # and class 2 never has a candidate
        props, levels = case
        scores = np.array(levels)
        scores[:, 2] = np.minimum(scores[:, 2], 5e-5)
        got = detect(scores, props, nms_threshold, vote_threshold)
        assert got == scalar_detect(scores, props, nms_threshold, vote_threshold)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_paper_scale_equals_per_class_reference(self, seed):
        # N=1024, C=20, every region a candidate of most classes: per-class greedy NMS on the
        # pool, then each kept box voted with its voters summed one by one in index order
        n, c = 1024, 20
        ds = generate_synthetic(SynthConfig(n_images=1, num_classes=c, feat_dim=4, proposals_per_image=n, seed=seed))
        props = ds.images[0].proposals
        rng = np.random.default_rng(seed)
        scores = rng.random((n, c)) * (rng.random((n, c)) < 0.9)
        boxes = np.array([b.as_tuple() for b in props])
        ious = iou_matrix(boxes, boxes)
        classes, kept_scores, voted = evaluation.detect_arrays(scores, boxes)
        want_classes, want_scores, want_boxes = [], [], []
        for j in range(c):
            pool = np.flatnonzero(scores[:, j] >= 1e-4)
            pool_scores = scores[pool, j].tolist()
            for k in greedy_nms_indices(list(pool), pool_scores, 0.6, lambda a, b: ious[a, b]):
                voters = pool[ious[pool[k], pool] >= 0.5]
                total, sums = 0.0, [0.0] * 4
                for i in voters.tolist():
                    total += scores[i, j]
                    sums = [acc + scores[i, j] * x for acc, x in zip(sums, boxes[i])]
                want_classes.append(j)
                want_scores.append(pool_scores[k])
                want_boxes.append([x / total for x in sums])
        assert classes.tolist() == want_classes
        assert kept_scores.tolist() == want_scores
        assert voted.tolist() == want_boxes


class TestCorloc:
    def _single_class_dataset(self, gt_box):
        # two proposals; w_imp ranks proposal 0 on top
        feats = np.array([[3.0], [0.0]], dtype=np.float32)
        proposals = [BBox(0, 0, 10, 10), BBox(20, 20, 30, 30)]
        bag = ImageBag(
            id="i0", proposals=proposals, views=[feats], labels=np.array([1]),
            ground_truth=[(0, gt_box)],
        )
        return Dataset(num_classes=1, feat_dim=1, class_names=["c0"], images=[bag])

    def _params(self):
        return HeadParams(np.zeros((1, 1)), np.zeros(1), np.array([[1.0]]), np.zeros(1))

    def test_overlap_above_threshold_counts(self):
        ds = self._single_class_dataset(BBox(0, 0, 10, 6))  # IoU = 0.6
        per_class, mean = corloc(ds, self._params())
        assert per_class == [1.0]
        assert mean == 1.0

    def test_overlap_below_threshold_fails(self):
        ds = self._single_class_dataset(BBox(0, 0, 10, 4.9))  # IoU = 0.49
        per_class, mean = corloc(ds, self._params())
        assert per_class == [0.0]

    def test_overlap_exactly_at_threshold_counts(self):
        ds = self._single_class_dataset(BBox(0, 0, 10, 5))  # IoU = 0.5 exactly
        assert iou(BBox(0, 0, 10, 10), BBox(0, 0, 10, 5)) == 0.5
        per_class, _ = corloc(ds, self._params())
        assert per_class == [1.0]

    def test_class_without_positives_excluded_from_mean(self):
        feats = np.array([[1.0]], dtype=np.float32)
        box = BBox(0, 0, 1, 1)
        bag = ImageBag(id="i0", proposals=[box], views=[feats], labels=np.array([1, 0]),
                       ground_truth=[(0, box)])
        ds = Dataset(num_classes=2, feat_dim=1, class_names=["a", "b"], images=[bag])
        params = HeadParams(np.zeros((2, 1)), np.zeros(2), np.zeros((2, 1)), np.zeros(2))
        per_class, mean = corloc(ds, params)
        assert per_class[0] == 1.0
        assert math.isnan(per_class[1])
        assert mean == 1.0


def eleven_point_fixture():
    """Two GT boxes; ranked detections TP, FP, TP."""
    g1, g2 = BBox(0, 0, 10, 10), BBox(20, 20, 30, 30)
    gts = {"a": [g1, g2]}
    dets = [
        ("a", 0.9, BBox(0, 0, 10, 10)),       # TP
        ("a", 0.8, BBox(50, 50, 60, 60)),     # FP
        ("a", 0.7, BBox(20, 20, 30, 30)),     # TP
    ]
    return dets, gts


class TestVocAp:
    def test_single_matching_detection(self):
        g = BBox(0, 0, 10, 10)
        assert voc_ap([("a", 0.9, g)], {"a": [g]}) == 1.0

    def test_single_non_overlapping_detection(self):
        assert voc_ap([("a", 0.9, BBox(50, 50, 60, 60))], {"a": [BBox(0, 0, 10, 10)]}) == 0.0

    def test_eleven_point_interpolation(self):
        dets, gts = eleven_point_fixture()
        ap = voc_ap(dets, gts, protocol="eleven_point")
        assert ap == pytest.approx(28.0 / 33.0, abs=1e-12)
        assert ap == pytest.approx(reference_ap(dets, gts, 0.5, "eleven_point", iou), abs=1e-12)

    def test_area_protocol(self):
        dets, gts = eleven_point_fixture()
        ap = voc_ap(dets, gts, protocol="area")
        assert ap == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert ap == pytest.approx(reference_ap(dets, gts, 0.5, "area", iou), abs=1e-12)

    def test_protocols_agree_within_band(self):
        dets, gts = eleven_point_fixture()
        a = voc_ap(dets, gts, protocol="eleven_point")
        b = voc_ap(dets, gts, protocol="area")
        assert abs(a - b) < 0.1

    def test_no_ground_truth_defined_as_zero(self):
        assert voc_ap([("a", 0.5, BBox(0, 0, 1, 1))], {}) == 0.0
        assert voc_ap([], {}) == 0.0

    def test_duplicate_detection_of_one_gt_is_fp(self):
        g = BBox(0, 0, 10, 10)
        dets = [("a", 0.9, g), ("a", 0.8, BBox(0, 0, 10, 9))]
        ap = voc_ap(dets, {"a": [g]})
        assert ap == pytest.approx(reference_ap(dets, {"a": [g]}, 0.5, "eleven_point", iou), abs=1e-12)
        assert ap == 1.0  # recall saturates at the first TP

    def test_invariant_to_detection_storage_order(self):
        rng = np.random.default_rng(4)
        gts = {"a": [BBox(0, 0, 10, 10)], "b": [BBox(5, 5, 15, 15), BBox(30, 30, 40, 40)]}
        dets = []
        for img in ("a", "b", "a", "b", "b"):
            x, y = rng.uniform(0, 30, 2)
            dets.append((img, float(rng.random()), BBox(x, y, x + 10, y + 10)))
        base = voc_ap(dets, gts)
        perm = [dets[i] for i in rng.permutation(len(dets))]
        assert voc_ap(perm, gts) == base

    @pytest.mark.parametrize("protocol", ["eleven_point", "area"])
    def test_random_instances_match_reference(self, protocol):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n_images = int(rng.integers(1, 6))
            gts = {}
            for i in range(n_images):
                boxes = []
                for _ in range(int(rng.integers(0, 4))):
                    x, y = rng.uniform(0, 40, 2)
                    boxes.append(BBox(x, y, x + rng.uniform(3, 15), y + rng.uniform(3, 15)))
                if boxes:
                    gts[f"im{i}"] = boxes
            dets = []
            for _ in range(int(rng.integers(0, 10))):
                i = int(rng.integers(0, n_images))
                x, y = rng.uniform(0, 40, 2)
                box = BBox(x, y, x + rng.uniform(3, 15), y + rng.uniform(3, 15))
                dets.append((f"im{i}", float(rng.random()), box))
            got = voc_ap(dets, gts, protocol=protocol)
            want = reference_ap(dets, gts, 0.5, protocol, iou)
            assert got == pytest.approx(want, abs=1e-12)


class TestArrayMatching:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from([0.2, 0.5, 0.9]), grid_boxes_strategy()),
            max_size=12,
        ),
        st.dictionaries(st.sampled_from(["a", "b", "d"]), st.lists(grid_boxes_strategy(), max_size=4), max_size=3),
        st.sampled_from([0.1, 0.5, 1.0]),
    )
    @example(  # the first detection ties between both boxes and must take the first
        dets=[("a", 0.9, BBox(1, 0, 3, 1)), ("a", 0.5, BBox(0, 0, 2, 1))],
        gts={"a": [BBox(0, 0, 2, 1), BBox(2, 0, 4, 1)]},
        iou_threshold=0.1,
    )
    @settings(max_examples=200, deadline=None)
    def test_matcher_equals_reference(self, dets, gts, iou_threshold):
        # grid boxes tie often, both in score and in IoU with two ground-truth boxes
        keys = {image_id: k for k, image_id in enumerate(gts)}
        curve = evaluation._pr_curve(
            np.array([keys.get(d[0], -1) for d in dets], dtype=np.intp),
            np.array([d[1] for d in dets], dtype=np.float64),
            np.array([d[2].as_tuple() for d in dets], dtype=np.float64).reshape(-1, 4),
            {keys[k]: np.array([b.as_tuple() for b in v]).reshape(-1, 4) for k, v in gts.items()},
            iou_threshold,
        )
        labels, npos = match_detections(dets, gts, iou_threshold, iou)
        assert curve.npos == npos
        got = np.diff(np.rint(curve.recall * npos), prepend=0.0) == 1.0 if npos else np.zeros(len(dets), bool)
        assert got.tolist() == labels
        assert curve.scores.tolist() == sorted((d[1] for d in dets), reverse=True)

    @given(st.lists(st.floats(0.0, 1.0), max_size=30).map(sorted), st.lists(st.floats(0.0, 1.0), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_area_running_max_is_exact(self, recall, precision):
        n = min(len(recall), len(precision))
        recall, precision = np.array(recall[:n]), np.array(precision[:n])
        r = np.concatenate(([0.0], recall, [1.0]))
        p = np.concatenate(([0.0], precision, [0.0]))
        for i in range(len(p) - 2, -1, -1):
            p[i] = max(p[i], p[i + 1])
        idx = np.where(r[1:] != r[:-1])[0]
        assert evaluation._ap_area(recall, precision) == float(((r[idx + 1] - r[idx]) * p[idx + 1]).sum())


class TestEvaluateMap:
    def test_reads_the_box_array_and_builds_no_bbox_per_proposal(self, monkeypatch):
        ds = generate_synthetic(SynthConfig(n_images=6, num_classes=3, feat_dim=8, proposals_per_image=12, seed=11))
        params = init_params(8, 3, seed=2)
        want = evaluate_map(ds, params, EvalOptions(ap_protocol="area")).to_json()

        def refuse(bag):
            raise AssertionError("eval asked for proposals as BBoxes")

        monkeypatch.setattr(ImageBag, "proposals", property(refuse))
        assert evaluate_map(ds, params, EvalOptions(ap_protocol="area")).to_json() == want

    def test_report_invariants_on_random_params(self):
        ds = generate_synthetic(SynthConfig(n_images=6, num_classes=3, feat_dim=8,
                                            proposals_per_image=12, seed=11))
        params = init_params(8, 3, seed=2)
        report = evaluate_map(ds, params)
        assert report.map == pytest.approx(float(np.mean(report.per_class_ap)))
        assert all(0.0 <= ap <= 1.0 for ap in report.per_class_ap)
        assert 0.0 <= report.mean_corloc <= 1.0
        assert report.n_images == 6

    def test_matches_bruteforce_reference(self):
        ds = generate_synthetic(SynthConfig(n_images=5, num_classes=2, feat_dim=6,
                                            proposals_per_image=10, seed=13))
        params = init_params(6, 2, seed=3)
        opts = EvalOptions()
        report = evaluate_map(ds, params, opts)

        dets_by_class = {j: [] for j in range(2)}
        gts_by_class = {j: {} for j in range(2)}
        for bag in ds.images:
            for cls, box in bag.ground_truth:
                gts_by_class[cls].setdefault(bag.id, []).append(box)
            scores = infer_image(params, bag)
            for det in detect(scores, bag.proposals):
                dets_by_class[det.class_id].append((bag.id, det.score, det.box))
        ref_aps = [
            reference_ap(dets_by_class[j], gts_by_class[j], 0.5, "eleven_point", iou) for j in range(2)
        ]
        np.testing.assert_allclose(report.per_class_ap, ref_aps, atol=1e-12)
        assert report.map == pytest.approx(float(np.mean(ref_aps)), abs=1e-12)

        ref_per_class, ref_mean = reference_corloc(ds, lambda bag: infer_image(params, bag), iou)
        for j, val in ref_per_class.items():
            assert report.per_class_corloc[j] == pytest.approx(val, abs=1e-12)
        assert report.mean_corloc == pytest.approx(ref_mean, abs=1e-12)

    def test_perfect_oracle_scores_reach_upper_bound(self):
        # score 1 on the best-IoU proposal of each GT: CorLoc hits 100%
        ds = generate_synthetic(SynthConfig(n_images=8, num_classes=3, feat_dim=8,
                                            proposals_per_image=16, seed=17))

        def oracle_scores(bag):
            scores = np.zeros((bag.n_regions, ds.num_classes))
            for cls, gt_box in bag.ground_truth:
                best = max(range(bag.n_regions), key=lambda i: iou(bag.proposals[i], gt_box))
                scores[best][cls] = 1.0
            return scores

        per_class, mean = reference_corloc(ds, oracle_scores, iou)
        assert mean == 1.0
        ref_aps = []
        for j in range(ds.num_classes):
            dets, gts = [], {}
            for bag in ds.images:
                s = oracle_scores(bag)
                for i in range(bag.n_regions):
                    if s[i][j] > 0:
                        dets.append((bag.id, float(s[i][j]), bag.proposals[i]))
                boxes = [b for c, b in bag.ground_truth if c == j]
                if boxes:
                    gts[bag.id] = boxes
            ref_aps.append(reference_ap(dets, gts, 0.5, "eleven_point", iou))
        # every oracle detection is correct; AP only loses mass where two GT
        # objects share a best proposal or recall is truncated
        assert float(np.mean(ref_aps)) > 0.8

    def test_invariant_to_image_order(self):
        ds = generate_synthetic(SynthConfig(n_images=6, num_classes=2, feat_dim=6,
                                            proposals_per_image=10, seed=19))
        params = init_params(6, 2, seed=4)
        report = evaluate_map(ds, params)
        rng = np.random.default_rng(0)
        shuffled = Dataset(ds.num_classes, ds.feat_dim, ds.class_names,
                           [ds.images[i] for i in rng.permutation(len(ds.images))])
        report2 = evaluate_map(shuffled, params)
        np.testing.assert_allclose(report2.per_class_ap, report.per_class_ap, atol=1e-12)
        assert report2.mean_corloc == pytest.approx(report.mean_corloc, abs=1e-12)

    def test_zero_gt_class_flagged(self):
        feats = np.ones((2, 3), dtype=np.float32)
        box = BBox(0, 0, 1, 1)
        bag = ImageBag(id="i", proposals=[box, BBox(2, 2, 3, 3)], views=[feats],
                       labels=np.array([1, 0]), ground_truth=[(0, box)])
        ds = Dataset(num_classes=2, feat_dim=3, class_names=["a", "b"], images=[bag])
        report = evaluate_map(ds, init_params(3, 2, 0))
        assert report.diagnostics["classes_without_ground_truth"] == [1]

    def test_no_positive_labels_writes_null_concentration(self):
        import json

        ds = generate_synthetic(SynthConfig(n_images=3, num_classes=2, feat_dim=6,
                                            proposals_per_image=8, seed=37))
        for bag in ds.images:
            bag.labels = np.zeros_like(bag.labels)
        report = evaluate_map(ds, init_params(6, 2, 0))
        assert math.isnan(report.diagnostics["weight_concentration"])

        def reject(token):
            raise ValueError(f"invalid JSON token {token}")

        parsed = json.loads(report.to_json(), parse_constant=reject)
        assert parsed["diagnostics"]["weight_concentration"] is None
        assert parsed["mean_corloc"] is None

    def test_report_json_round_trips(self):
        import json

        ds = generate_synthetic(SynthConfig(n_images=4, num_classes=2, feat_dim=6,
                                            proposals_per_image=8, seed=23))
        report = evaluate_map(ds, init_params(6, 2, 0))
        parsed = json.loads(report.to_json())
        assert parsed["map"] == report.map
        assert parsed["n_images"] == 4


class TestPrCurveCsv:
    @staticmethod
    def csv_writer_rows(curves, class_names, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["class", "rank", "score", "recall", "precision"])
            for name, curve in zip(class_names, curves):
                rows = zip(curve.scores.tolist(), curve.recall.tolist(), curve.precision.tolist())
                for rank, (score, rec, prec) in enumerate(rows):
                    writer.writerow([name, rank, f"{score:.6g}", f"{rec:.6f}", f"{prec:.6f}"])

    def test_bytes_equal_csv_writer_rows(self, tmp_path):
        rng = np.random.default_rng(0)
        names = ["class00", "", "a,b", 'say "hi"', "two\nlines", "cr\rhere", " lead", "tab\t", "caf\u00e9", "x'y",
                 "50%", "%s%d", "100%%"]
        curves = [
            evaluation.PRCurve(rng.random(n) * 10.0 ** rng.integers(-9, 4, n), rng.random(n), rng.random(n), 3)
            for n in [0, 1, 5, 40, 3, 2, 7, 1, 4, 300, 2, 3, 0]
        ]
        curves[3].scores[:3] = [0.0, 1e-300, 123456789.0]
        self.csv_writer_rows(curves, names, tmp_path / "want.csv")
        evaluation.dump_pr_curves(curves, names, tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestWeightConcentration:
    def test_full_mass_when_k_covers_all(self):
        ds = generate_synthetic(SynthConfig(n_images=4, num_classes=2, feat_dim=6,
                                            proposals_per_image=8, seed=29))
        assert weight_concentration(init_params(6, 2, 0), ds, k=8) == pytest.approx(1.0)
        assert weight_concentration(init_params(6, 2, 0), ds, k=100) == pytest.approx(1.0)

    def test_uniform_case(self):
        feats = np.zeros((10, 4), dtype=np.float32)
        box = BBox(0, 0, 1, 1)
        bag = ImageBag(id="i", proposals=[box] * 10, views=[feats], labels=np.array([1]),
                       ground_truth=[(0, box)])
        ds = Dataset(num_classes=1, feat_dim=4, class_names=["a"], images=[bag])
        params = HeadParams(np.zeros((1, 4)), np.zeros(1), np.zeros((1, 4)), np.zeros(1))
        assert weight_concentration(params, ds, k=5) == pytest.approx(0.5)

    def test_two_region_split(self):
        # v = [0.75, 0.25] aligned with the p ordering; k=1 captures 0.75
        feats = np.array([[math.log(3.0)], [0.0]], dtype=np.float32)
        box = BBox(0, 0, 1, 1)
        bag = ImageBag(id="i", proposals=[box, box], views=[feats], labels=np.array([1]),
                       ground_truth=[(0, box)])
        ds = Dataset(num_classes=1, feat_dim=1, class_names=["a"], images=[bag])
        params = HeadParams(np.zeros((1, 1)), np.zeros(1), np.array([[1.0]]), np.zeros(1))
        assert weight_concentration(params, ds, k=1) == pytest.approx(0.75, rel=1e-6)

    def test_rejects_bad_k(self):
        ds = generate_synthetic(SynthConfig(n_images=2, num_classes=2, feat_dim=6,
                                            proposals_per_image=8, seed=31))
        with pytest.raises(ValueError):
            weight_concentration(init_params(6, 2, 0), ds, k=0)
