"""Inference and metrics: test-time scoring, detection post-processing, CorLoc, VOC-style AP.

Test-time region scores are v*p per class, averaged over feature views.
The importance weights v default to an unmasked softmax over all regions
(labels are unknown at test time); a label-free top-M mask by class
probability is available for ablation.

`evaluate_map` is one pass: each view of an image goes through the head
once, detection runs once per image over one IoU matrix shared by all
classes, and CorLoc, weight concentration, AP under either protocol and
the PR-curve CSV are all computed from those results.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wsdsel.data import Dataset, ImageBag
from wsdsel.errors import ConfigError
from wsdsel.geometry import BBox, Detection, box_array, box_vote, iou, iou_matrix, nms  # noqa: F401  (perfbench's tracer reads evaluation.iou)
from wsdsel.head import HeadParams, linear_outputs, masked_softmax, select_regions

MASK_MODES = ("all", "top_mpt")
AP_PROTOCOLS = ("eleven_point", "area")


@dataclass
class EvalOptions:
    mask_mode: str = "all"
    top_m: int = 128  # top-M budget when mask_mode == "top_mpt"; also the concentration k
    ap_protocol: str = "eleven_point"  # or "area"
    nms_threshold: float = 0.6
    vote_threshold: float = 0.5
    score_floor: float = 1e-4
    iou_threshold: float = 0.5

    def __post_init__(self):
        if self.mask_mode not in MASK_MODES:
            raise ConfigError(f"mask_mode must be one of {MASK_MODES}, got {self.mask_mode!r}")
        if self.ap_protocol not in AP_PROTOCOLS:
            raise ConfigError(f"ap_protocol must be one of {AP_PROTOCOLS}, got {self.ap_protocol!r}")
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
        """Average precision; 0 by definition without ground truth or detections."""
        if self.npos == 0 or len(self.scores) == 0:
            return 0.0
        if protocol == "eleven_point":
            return _ap_eleven_point(self.recall, self.precision)
        if protocol == "area":
            return _ap_area(self.recall, self.precision)
        raise ValueError(f"unknown AP protocol {protocol!r}")


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


def _infer(params: HeadParams, bag: ImageBag, mask_mode: str, top_m: int):
    """One image through the head, each view once: test scores v*p, p, and the all-mask v, view-averaged."""
    if mask_mode not in MASK_MODES:
        raise ValueError(f"unknown mask_mode {mask_mode!r}, expected one of {MASK_MODES}")
    shape = (bag.n_regions, params.num_classes)
    total, p_sum, v_sum = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    for feats in bag.views:
        p, logits_imp = linear_outputs(params, feats)
        v_all = masked_softmax(logits_imp, np.ones(shape, dtype=bool))
        if mask_mode == "all":
            v = v_all
        else:  # top_mpt: each class keeps its top-M regions by probability, as if every label were positive
            v = masked_softmax(logits_imp, select_regions(p, np.ones(shape[1]), top_m, top_m))
        total += v * p
        p_sum += p
        v_sum += v_all
    n_views = len(bag.views)
    return total / n_views, p_sum / n_views, v_sum / n_views


def infer_image(params: HeadParams, bag: ImageBag, mask_mode: str = "all", top_m: int = 128) -> np.ndarray:
    """Per-region per-class confidence scores v*p, averaged over views."""
    return _infer(params, bag, mask_mode, top_m)[0]


def detect_arrays(
    scores: np.ndarray,
    boxes: np.ndarray,
    nms_threshold: float = 0.6,
    vote_threshold: float = 0.5,
    score_floor: float = 1e-4,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class NMS plus box voting over the pre-NMS candidate pool, all classes at once.

    `scores` is (N, C) and `boxes` the (N, 4) proposals; the candidates of a
    class are the regions scoring at least `score_floor`. One IoU matrix
    serves every class. Returns the detections' class ids, scores and voted
    (K, 4) boxes, class by class and each class in descending score order.
    """
    candidates = scores >= score_floor
    ious = iou_matrix(boxes, boxes)
    kept = nms(ious, scores, nms_threshold, candidates)
    return kept[1], scores[kept], box_vote(kept, ious, boxes, scores, vote_threshold, candidates)


def detect(
    scores: np.ndarray,
    proposals: list[BBox],
    nms_threshold: float = 0.6,
    vote_threshold: float = 0.5,
    score_floor: float = 1e-4,
) -> list[Detection]:
    """Per-class NMS plus box voting over the pre-NMS candidate pool, as `Detection`s (see `detect_arrays`)."""
    classes, kept_scores, voted = detect_arrays(
        np.asarray(scores), box_array(proposals), nms_threshold, vote_threshold, score_floor
    )
    return [
        Detection(box=BBox(*box), class_id=j, score=score)
        for j, score, box in zip(classes.tolist(), kept_scores.tolist(), voted.tolist())
    ]


def corloc(
    dataset: Dataset,
    params: HeadParams,
    mask_mode: str = "all",
    top_m: int = 128,
    iou_threshold: float = 0.5,
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
    first on ties, iff that IoU reaches the threshold. The unmatched set
    only changes at a match, so one argmax over the remaining rows finds
    the next true positive: at most one step per ground-truth box. `ious`
    is overwritten.
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


def _pr_curve(
    images: np.ndarray,
    scores: np.ndarray,
    boxes: np.ndarray,
    gts: dict[int, np.ndarray],
    iou_threshold: float,
) -> PRCurve:
    """Greedy matching of one class's detections, in rank order.

    Detection i is in image `images[i]` with score `scores[i]` and box
    `boxes[i]`; `gts` maps an image to the (G, 4) ground-truth boxes of the
    class. A detection is a true positive iff its best-IoU *unmatched*
    ground truth in the same image reaches the threshold. Ties in score
    keep input order.
    """
    npos = sum(len(g) for g in gts.values())
    ranked = np.argsort(-scores, kind="stable")
    images, boxes = images[ranked], boxes[ranked]
    by_image = np.argsort(images, kind="stable")  # ranks grouped by image, in rank order within one
    grouped = images[by_image]
    tp = np.zeros(len(ranked))
    for image, gt in gts.items():
        rows = by_image[np.searchsorted(grouped, image, "left") : np.searchsorted(grouped, image, "right")]
        tp[rows] = _match(iou_matrix(boxes[rows], gt), iou_threshold)
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / npos if npos > 0 else np.zeros(len(ranked))
    precision = cum_tp / np.maximum(cum_tp + cum_fp, 1.0)
    return PRCurve(scores[ranked], recall, precision, npos)


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
    iou_threshold: float = 0.5,
    protocol: str = "eleven_point",
) -> float:
    """Average precision for one class across images.

    `dets` are (image_id, score, box) triples; `gts` maps image id to the
    ground-truth boxes of the class. With no ground truth the AP is 0 by
    definition (flagged by the caller).
    """
    keys = {image_id: k for k, image_id in enumerate(gts)}
    curve = _pr_curve(
        np.array([keys.get(image_id, -1) for image_id, _, _ in dets], dtype=np.intp),
        np.array([score for _, score, _ in dets], dtype=np.float64),
        box_array([box for _, _, box in dets]),
        {keys[image_id]: box_array(boxes) for image_id, boxes in gts.items()},
        iou_threshold,
    )
    return curve.ap(protocol)


def evaluate_map(dataset: Dataset, params: HeadParams, options: EvalOptions | None = None) -> EvalReport:
    """Full pipeline in one pass over the images: inference, detection, AP/mAP, CorLoc, concentration."""
    opts = options or EvalOptions()
    c = dataset.num_classes
    gts_by_class: list[dict[int, np.ndarray]] = [{} for _ in range(c)]
    # per image: the class ids, scores and voted boxes of its detections
    found = [(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros((0, 4)))]
    correct, positives = np.zeros(c), np.zeros(c)
    fractions: list[float] = []
    for key, bag in enumerate(dataset.images):  # each image is its own key
        scores, p, v = _infer(params, bag, opts.mask_mode, opts.top_m)
        boxes, gt_classes, gt_boxes = bag.boxes, bag.gt_classes, bag.gt_boxes
        for j in set(gt_classes.tolist()):
            gts_by_class[j][key] = gt_boxes[gt_classes == j]
        found.append(detect_arrays(scores, boxes, opts.nms_threshold, opts.vote_threshold, opts.score_floor))
        positive = np.flatnonzero(bag.labels)
        positives[positive] += 1
        # CorLoc: the top-scoring region of each positive class against that class's ground truth
        tops = boxes[np.argmax(scores[:, positive], axis=0)]
        hits = (iou_matrix(tops, gt_boxes) >= opts.iou_threshold) & (gt_classes == positive[:, None])
        correct[positive] += hits.any(axis=1)
        for j in positive:
            # weight concentration: importance mass on the top_m most probable regions
            fractions.append(float(v[np.argsort(-p[:, j], kind="stable")[: opts.top_m], j].sum()))

    images = np.repeat(np.arange(len(dataset.images)), [len(f[0]) for f in found[1:]])
    classes, det_scores, det_boxes = (np.concatenate(part) for part in zip(*found))
    del found  # freed before the per-class arrays are built, so the two sets are never held at once
    curves = []
    for j in range(c):
        mine = classes == j
        curves.append(_pr_curve(images[mine], det_scores[mine], det_boxes[mine], gts_by_class[j], opts.iou_threshold))
    per_class_ap, mean_ap = ap_by_class(curves, opts.ap_protocol)
    per_class_corloc = [correct[j] / positives[j] if positives[j] else float("nan") for j in range(c)]
    defined = [x for x in per_class_corloc if not math.isnan(x)]
    diagnostics = {
        "weight_concentration": float(np.mean(fractions)) if fractions else float("nan"),
        "concentration_k": opts.top_m,
        "n_detections": len(classes),
    }
    flagged = [j for j in range(c) if not gts_by_class[j]]
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
    precision) values interleaved, and one write. A missing directory of
    `path` is created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
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
