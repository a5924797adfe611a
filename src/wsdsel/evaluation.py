"""Inference and metrics: test-time scoring, detection post-processing, CorLoc, VOC-style AP.

Test-time region scores are v*p per class, averaged over feature views.
The importance weights v default to an unmasked softmax over all regions
(labels are unknown at test time); a label-free top-M mask by class
probability is available for ablation.

Every evaluation setting travels in one frozen `EvalOptions`, checked
where it is built. Each public function that takes settings one by one
builds one first, so it refuses what `EvalOptions` refuses before any work.

`evaluate_map` is one pass: it checks the dataset against the params and
builds one `StepWork` sized for the largest image (`StepWork.sized_for`,
as training does). Each view of an image goes through the training step's
forward stages in it once; detection runs once per image over two bool
overlap masks shared by all classes (`overlap_masks`; no float IoU matrix
of the proposals is built), and not at all for an image where no region
reaches the score floor. Each image's detections are judged there, in one
IoU matrix against its ground truth with pairs of different classes masked
out; the pass keeps each detection's class, score and verdict, and CorLoc,
weight concentration, AP under either protocol and the PR-curve CSV are
all computed from those results.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wsdsel.data import Dataset, ImageBag, replaced
from wsdsel.errors import ConfigError
from wsdsel.geometry import BBox, Detection, box_array, box_vote, iou, iou_matrix, nms, overlap_masks  # noqa: F401  (perfbench's tracer reads evaluation.iou)
from wsdsel.head import Budgets, HeadParams, StepWork, _masked_softmax, _outputs, _select

MASK_MODES = ("all", "top_mpt")
AP_PROTOCOLS = ("eleven_point", "area")


@dataclass(frozen=True)
class EvalOptions:
    mask_mode: str = "all"
    top_m: int = 128  # top-M budget when mask_mode == "top_mpt"; also the concentration k
    ap_protocol: str = "eleven_point"  # or "area"
    nms_threshold: float = 0.6
    vote_threshold: float = 0.5
    score_floor: float = 1e-4
    iou_threshold: float = 0.5

    def __post_init__(self):
        for name, choices in (("mask_mode", MASK_MODES), ("ap_protocol", AP_PROTOCOLS)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        if self.top_m < 1:
            raise ConfigError(f"top_m must be >= 1, got {self.top_m}")
        for name in ("nms_threshold", "iou_threshold"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {getattr(self, name)}")
        if not 0.0 <= self.vote_threshold <= 1.0:
            raise ConfigError(f"vote_threshold must be in [0, 1], got {self.vote_threshold}")
        if not 0.0 <= self.score_floor < math.inf:
            raise ConfigError(f"score_floor must be finite and >= 0, got {self.score_floor}")


@dataclass
class PRCurve:
    """One class's detections in rank order: each one's score, and recall and precision after it."""

    scores: np.ndarray
    recall: np.ndarray
    precision: np.ndarray
    npos: int  # ground-truth boxes of the class

    def ap(self, protocol: str) -> float:
        """Average precision, 0 by definition without ground truth or detections; an unknown protocol refused first."""
        if protocol not in AP_PROTOCOLS:
            raise ConfigError(f"ap_protocol must be one of {AP_PROTOCOLS}, got {protocol!r}")
        if self.npos == 0 or len(self.scores) == 0:
            return 0.0
        return (_ap_eleven_point if protocol == "eleven_point" else _ap_area)(self.recall, self.precision)


def ap_by_class(curves: list[PRCurve], protocol: str) -> tuple[list[float], float]:
    """Per-class AP under `protocol` and its mean, the mAP."""
    per_class = [curve.ap(protocol) for curve in curves]
    return per_class, float(np.mean(per_class))


def _nan_to_none(value):
    return None if isinstance(value, float) and math.isnan(value) else value


@dataclass
class EvalReport:
    per_class_ap: list[float]
    map: float
    per_class_corloc: list[float]  # NaN for classes with no positive image
    mean_corloc: float
    n_images: int
    diagnostics: dict = field(default_factory=dict)
    curves: list[PRCurve] = field(default_factory=list)  # per class; not serialized

    def to_dict(self) -> dict:
        return {
            "per_class_ap": self.per_class_ap,
            "map": self.map,
            "per_class_corloc": [_nan_to_none(v) for v in self.per_class_corloc],
            "mean_corloc": _nan_to_none(self.mean_corloc),
            "n_images": self.n_images,
            "diagnostics": {k: _nan_to_none(v) for k, v in self.diagnostics.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True, allow_nan=False) + "\n"


def _infer(params: HeadParams, bag: ImageBag, opts: EvalOptions, work: StepWork):
    """One image through the head in `work`, each view once: test scores v*p, p, and the all-mask v, view-averaged.

    `opts` gives the mask mode and top_m. Each view runs the training
    step's stages: `_outputs` gives p and the importance logits in the
    stack z. Under "top_mpt" every class keeps its top_m regions by
    probability, as if every label were positive:
    `_select` and the masked softmax over that selection, which gathers
    it and so leaves the logits in `work.zt`, give v in `work.q[0]`. Then
    the all-mask softmax runs in place and writes v_all over the logits in
    z[1]. Under "all", or with top_m >= N, `_select` returns None and v
    is v_all.
    """
    shape = (bag.n_regions, params.num_classes)
    budget = opts.top_m if opts.mask_mode == "top_mpt" else shape[0]
    budgets = Budgets(np.ones(shape[1], dtype=bool), shape[0], budget, budget)
    total, p_sum, v_sum = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    for feats in bag.views:
        p, v_all = _outputs(params, np.asarray(feats, dtype=np.float64), work)
        h_t = _select(p, budgets, work.key, work.srt, work.mask)
        np.copyto(work.zt, v_all.T)
        v = v_all if h_t is None else _masked_softmax(work.zt, h_t, budgets.levels, work.q[0], work.cols, work.group)
        _masked_softmax(work.zt, None, None, v_all, work.cols, work.group)
        total += v * p
        p_sum += p
        v_sum += v_all
    n_views = len(bag.views)
    return total / n_views, p_sum / n_views, v_sum / n_views


def infer_image(
    params: HeadParams, bag: ImageBag, mask_mode: str = EvalOptions.mask_mode, top_m: int = EvalOptions.top_m
) -> np.ndarray:
    """Per-region per-class confidence scores v*p, averaged over views; settings checked by `EvalOptions`."""
    opts = EvalOptions(mask_mode=mask_mode, top_m=top_m)
    return _infer(params, bag, opts, StepWork(bag.n_regions, params.num_classes, params.feat_dim))[0]


def detect_arrays(
    scores: np.ndarray, boxes: np.ndarray, opts: EvalOptions | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class NMS plus box voting over the pre-NMS candidate pool, all classes at once.

    `scores` is (N, C) and `boxes` the (N, 4) proposals; `opts` (default
    `EvalOptions()`) gives the thresholds. The candidates of a class are
    the regions scoring at least `opts.score_floor`. Every class shares the
    two bool (N, N) masks of `overlap_masks`, built block by block with no
    float (N, N) IoU matrix: NMS reads IoU > nms_threshold and voting
    IoU >= vote_threshold. No mask is built when no region is a candidate.
    Returns the detections' class ids, scores and voted (K, 4) boxes, class
    by class and each class in descending score order.
    """
    opts = opts or EvalOptions()
    candidates = scores >= opts.score_floor
    if not candidates.any():
        return np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros((0, 4))
    overlaps, voting = overlap_masks(boxes, opts.nms_threshold, opts.vote_threshold)
    kept = nms(overlaps, scores, candidates)
    return kept[1], scores[kept], box_vote(kept, voting, boxes, scores, candidates)


def detect(
    scores: np.ndarray,
    proposals: list[BBox],
    nms_threshold: float = EvalOptions.nms_threshold,
    vote_threshold: float = EvalOptions.vote_threshold,
    score_floor: float = EvalOptions.score_floor,
) -> list[Detection]:
    """Per-class NMS plus box voting over the pre-NMS candidate pool, as `Detection`s (see `detect_arrays`)."""
    opts = EvalOptions(nms_threshold=nms_threshold, vote_threshold=vote_threshold, score_floor=score_floor)
    classes, kept_scores, voted = detect_arrays(np.asarray(scores), box_array(proposals), opts)
    return [
        Detection(box=BBox(*box), class_id=j, score=score)
        for j, score, box in zip(classes.tolist(), kept_scores.tolist(), voted.tolist())
    ]


def corloc(
    dataset: Dataset,
    params: HeadParams,
    mask_mode: str = EvalOptions.mask_mode,
    top_m: int = EvalOptions.top_m,
    iou_threshold: float = EvalOptions.iou_threshold,
) -> tuple[list[float], float]:
    """Top-1 localization accuracy over positive images, per class and mean.

    The single highest-scoring proposal (raw scores, no NMS) is correct iff
    it overlaps a ground-truth box of the class with IoU >= the threshold.
    Classes without positive images are reported as NaN and excluded from
    the mean. Read from the report of `evaluate_map`.
    """
    report = evaluate_map(dataset, params, EvalOptions(mask_mode=mask_mode, top_m=top_m, iou_threshold=iou_threshold))
    return report.per_class_corloc, report.mean_corloc


def weight_concentration(params: HeadParams, dataset: Dataset, k: int) -> float:
    """Mean fraction of importance mass on the k highest-probability regions.

    Computed with the all-ones mask over positive (image, class) pairs;
    view-averaged p ranks the regions and view-averaged v carries the mass.
    Read from the report of `evaluate_map`; NaN without positive pairs.
    """
    return evaluate_map(dataset, params, EvalOptions(top_m=k)).diagnostics["weight_concentration"]


def _match(ious: np.ndarray, iou_threshold: float) -> np.ndarray:
    """True-positive flags of one image's detections (rows, in rank order) against its ground truth (columns).

    Each detection in turn takes its best-IoU *unmatched* ground truth, the
    first on ties, iff that IoU reaches the threshold. An entry below 0
    never matches, so the caller sets the pairs of different classes to -1.
    The unmatched set only changes at a match, so one argmax over the
    remaining rows finds the next true positive: at most one step per
    ground-truth box. `ious` is overwritten.
    """
    tp = np.zeros(len(ious), dtype=bool)
    start = 0
    while ious.size and start < len(ious):
        rest = ious[start:]
        best = rest.argmax(axis=1)
        hits = np.flatnonzero(rest[np.arange(len(rest)), best] >= iou_threshold)
        if hits.size == 0:
            break
        tp[start + hits[0]] = True
        ious[:, best[hits[0]]] = -1.0  # matched: below every unmatched IoU from now on
        start += hits[0] + 1
    return tp


def _pr_curve(scores: np.ndarray, tp: np.ndarray, npos: int) -> PRCurve:
    """One class's PR curve: its detections ranked by score (ties in input order), of `npos` ground-truth boxes."""
    ranked = np.argsort(-scores, kind="stable")
    cum_tp = np.cumsum(tp[ranked], dtype=np.float64)
    recall = cum_tp / npos if npos > 0 else np.zeros(len(ranked))
    precision = cum_tp / np.arange(1.0, len(ranked) + 1.0)  # true positives over detections so far
    return PRCurve(scores[ranked], recall, precision, int(npos))


def _ap_eleven_point(recall: np.ndarray, precision: np.ndarray) -> float:
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 11):
        mask = recall >= r
        ap += precision[mask].max() if mask.any() else 0.0
    return ap / 11.0


def _ap_area(recall: np.ndarray, precision: np.ndarray) -> float:
    r = np.concatenate(([0.0], recall, [1.0]))
    p = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    idx = np.where(r[1:] != r[:-1])[0]
    return float(((r[idx + 1] - r[idx]) * p[idx + 1]).sum())


def voc_ap(
    dets: list[tuple[str, float, BBox]],
    gts: dict[str, list[BBox]],
    iou_threshold: float = EvalOptions.iou_threshold,
    protocol: str = EvalOptions.ap_protocol,
) -> float:
    """Average precision for one class across images.

    `dets` are (image_id, score, box) triples; `gts` maps image id to the
    ground-truth boxes of the class. With no ground truth the AP is 0 by
    definition (flagged by the caller). An `iou_threshold` or `protocol`
    that `EvalOptions` refuses raises its ConfigError, whatever the input.
    """
    opts = EvalOptions(iou_threshold=iou_threshold, ap_protocol=protocol)
    scores = np.array([score for _, score, _ in dets], dtype=np.float64)
    by_image: dict[str, list[int]] = {}
    for i in np.argsort(-scores, kind="stable").tolist():
        by_image.setdefault(dets[i][0], []).append(i)
    tp = np.zeros(len(dets), dtype=bool)
    for image_id, rows in by_image.items():
        ious = iou_matrix(box_array([dets[i][2] for i in rows]), box_array(gts.get(image_id, [])))
        tp[rows] = _match(ious, opts.iou_threshold)
    return _pr_curve(scores, tp, sum(len(boxes) for boxes in gts.values())).ap(opts.ap_protocol)


def evaluate_map(dataset: Dataset, params: HeadParams, options: EvalOptions | None = None) -> EvalReport:
    """Full pipeline in one pass over the images: inference, detection, AP/mAP, CorLoc, concentration.

    Raises DataError for an empty dataset or one whose C or D differs from the params'.
    """
    opts = options or EvalOptions()
    work = StepWork.sized_for(dataset, params)
    c = dataset.num_classes
    # per image: the class ids and scores of its detections, and which of them are true positives
    judged = []
    npos, correct, positives = np.zeros(c, dtype=np.intp), np.zeros(c), np.zeros(c)
    fractions: list[float] = []
    for bag in dataset.images:
        scores, p, v = _infer(params, bag, opts, work)
        boxes, gt_classes, gt_boxes = bag.boxes, bag.gt_classes, bag.gt_boxes
        npos += np.bincount(gt_classes, minlength=c)
        classes, det_scores, voted = detect_arrays(scores, boxes, opts)
        # AP: each detection may only match a ground-truth box of its own class. Within one class the
        # detections come in descending score, ties by index: their order in the class's ranking.
        ious = iou_matrix(voted, gt_boxes)
        ious[classes[:, None] != gt_classes] = -1.0
        judged.append((classes, det_scores, _match(ious, opts.iou_threshold)))
        positive = np.flatnonzero(bag.labels)
        positives[positive] += 1
        # CorLoc: the top-scoring region of each positive class against that class's ground truth
        tops = boxes[np.argmax(scores[:, positive], axis=0)]
        hits = (iou_matrix(tops, gt_boxes) >= opts.iou_threshold) & (gt_classes == positive[:, None])
        correct[positive] += hits.any(axis=1)
        # Weight concentration: each positive class's importance mass on its top_m most probable
        # regions, gathered into one contiguous row per class so that each row sums as a 1-D sum.
        top = np.argsort(-p[:, positive], axis=0, kind="stable")[: opts.top_m]
        fractions.extend(np.add.reduce(np.take_along_axis(v[:, positive], top, axis=0).T.copy(), axis=1))

    classes, det_scores, tp = (np.concatenate(part) for part in zip(*judged))
    curves = [_pr_curve(det_scores[classes == j], tp[classes == j], npos[j]) for j in range(c)]
    per_class_ap, mean_ap = ap_by_class(curves, opts.ap_protocol)
    per_class_corloc = [correct[j] / positives[j] if positives[j] else float("nan") for j in range(c)]
    defined = [x for x in per_class_corloc if not math.isnan(x)]
    diagnostics = {
        "weight_concentration": float(np.mean(fractions)) if fractions else float("nan"),
        "concentration_k": opts.top_m,
        "n_detections": len(classes),
    }
    flagged = np.flatnonzero(npos == 0).tolist()
    if flagged:
        diagnostics["classes_without_ground_truth"] = flagged
    # A class with a candidate always keeps one, so a class without detections had no region at or above the floor.
    unscored = np.flatnonzero(np.bincount(classes, minlength=c) == 0).tolist()
    if unscored:
        diagnostics["classes_without_candidates"] = unscored
    return EvalReport(
        per_class_ap=per_class_ap,
        map=mean_ap,
        per_class_corloc=per_class_corloc,
        mean_corloc=sum(defined) / len(defined) if defined else float("nan"),
        n_images=len(dataset.images),
        diagnostics=diagnostics,
        curves=curves,
    )


def _csv_field(text: str) -> str:
    """`text` as one field of a `csv.writer` row: quoted only where the csv module would quote it."""
    out = io.StringIO()
    csv.writer(out).writerow([text, ""])
    return out.getvalue()[: -len(",\r\n")]


def dump_pr_curves(curves: list[PRCurve], class_names: list[str], path: str | Path):
    """Write one CSV row per (class, rank) with the score and the recall/precision after it.

    The bytes are those of `csv.writer`: CRLF line ends, and a class name
    quoted where it must be. Each class is one `%` format, a row template
    repeated once per rank, applied to the class's (rank, score, recall,
    precision) values interleaved, and one write. The file is UTF-8,
    written through `data.replaced`, which also makes a missing directory.
    """
    with replaced(path, newline="") as fh:
        fh.write("class,rank,score,recall,precision\r\n")
        for name, curve in zip(class_names, curves):
            n = len(curve.scores)
            values = [None] * (4 * n)
            values[0::4] = range(n)
            values[1::4] = curve.scores.tolist()
            values[2::4] = curve.recall.tolist()
            values[3::4] = curve.precision.tolist()
            row = _csv_field(name).replace("%", "%%") + ",%d,%.6g,%.6f,%.6f\r\n"
            fh.write(row * n % tuple(values))
