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
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wsdsel.data import Dataset, ImageBag
from wsdsel.errors import ConfigError
from wsdsel.geometry import BBox, Detection, box_vote, iou, iou_matrix, nms
from wsdsel.head import HeadParams, importance_weights, linear_outputs, select_regions

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

    scores: list[float]
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
        v_all = importance_weights(logits_imp, np.ones(shape, dtype=bool))
        if mask_mode == "all":
            v = v_all
        else:  # top_mpt: each class keeps its top-M regions by probability, as if every label were positive
            v = importance_weights(logits_imp, select_regions(p, np.ones(shape[1]), top_m, top_m))
        total += v * p
        p_sum += p
        v_sum += v_all
    n_views = len(bag.views)
    return total / n_views, p_sum / n_views, v_sum / n_views


def infer_image(params: HeadParams, bag: ImageBag, mask_mode: str = "all", top_m: int = 128) -> np.ndarray:
    """Per-region per-class confidence scores v*p, averaged over views."""
    return _infer(params, bag, mask_mode, top_m)[0]


def detect(
    scores: np.ndarray,
    proposals: list[BBox],
    nms_threshold: float = 0.6,
    vote_threshold: float = 0.5,
    score_floor: float = 1e-4,
) -> list[Detection]:
    """Per-class NMS plus box voting over the pre-NMS candidate pool.

    One IoU matrix over all proposals serves every class's pool.
    """
    boxes = np.array([b.as_tuple() for b in proposals], dtype=np.float64)
    ious = iou_matrix(boxes, boxes)
    out: list[Detection] = []
    for j in range(scores.shape[1]):
        pool = np.flatnonzero(scores[:, j] >= score_floor)
        if pool.size == 0:
            continue
        pool_ious = ious[np.ix_(pool, pool)]
        pool_scores = scores[pool, j]
        kept = nms(pool_ious, pool_scores, nms_threshold)
        voted = box_vote(kept, pool_ious, boxes[pool], pool_scores, vote_threshold)
        for box, score in zip(voted.tolist(), pool_scores[kept].tolist()):
            out.append(Detection(box=BBox(*box), class_id=j, score=score))
    return out


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


def _pr_curve(
    dets: list[tuple[str, float, BBox]],
    gts: dict[str, list[BBox]],
    iou_threshold: float,
) -> PRCurve:
    """Greedy matching of one class's detections, in rank order.

    A detection is a true positive iff its best-IoU *unmatched* ground
    truth in the same image reaches the threshold. Ties in score keep
    input order.
    """
    npos = sum(len(v) for v in gts.values())
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    matched: dict[str, list[bool]] = {img: [False] * len(boxes) for img, boxes in gts.items()}
    tp = np.zeros(len(dets))
    for rank, i in enumerate(order):
        image_id, _, box = dets[i]
        boxes = gts.get(image_id, [])
        flags = matched.get(image_id, [])
        best, best_j = 0.0, -1
        for j, g in enumerate(boxes):
            if flags[j]:
                continue
            ov = iou(box, g)
            if ov > best:
                best, best_j = ov, j
        if best_j >= 0 and best >= iou_threshold:
            tp[rank] = 1.0
            flags[best_j] = True
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / npos if npos > 0 else np.zeros(len(dets))
    precision = cum_tp / np.maximum(cum_tp + cum_fp, 1.0)
    return PRCurve([dets[i][1] for i in order], recall, precision, npos)


def _ap_eleven_point(recall: np.ndarray, precision: np.ndarray) -> float:
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 11):
        mask = recall >= r
        ap += precision[mask].max() if mask.any() else 0.0
    return ap / 11.0


def _ap_area(recall: np.ndarray, precision: np.ndarray) -> float:
    r = np.concatenate(([0.0], recall, [1.0]))
    p = np.concatenate(([0.0], precision, [0.0]))
    for i in range(len(p) - 2, -1, -1):
        p[i] = max(p[i], p[i + 1])
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
    return _pr_curve(dets, gts, iou_threshold).ap(protocol)


def evaluate_map(dataset: Dataset, params: HeadParams, options: EvalOptions | None = None) -> EvalReport:
    """Full pipeline in one pass over the images: inference, detection, AP/mAP, CorLoc, concentration."""
    opts = options or EvalOptions()
    c = dataset.num_classes
    dets_by_class: list[list[tuple[str, float, BBox]]] = [[] for _ in range(c)]
    gts_by_class: list[dict[str, list[BBox]]] = [{} for _ in range(c)]
    correct, positives = np.zeros(c), np.zeros(c)
    fractions: list[float] = []
    for bag in dataset.images:
        scores, p, v = _infer(params, bag, opts.mask_mode, opts.top_m)
        for class_id, box in bag.ground_truth:
            gts_by_class[class_id].setdefault(bag.id, []).append(box)
        for det in detect(scores, bag.proposals, opts.nms_threshold, opts.vote_threshold, opts.score_floor):
            dets_by_class[det.class_id].append((bag.id, det.score, det.box))
        for j in np.flatnonzero(bag.labels):
            positives[j] += 1
            top = bag.proposals[int(np.argmax(scores[:, j]))]
            correct[j] += any(iou(top, g) >= opts.iou_threshold for cls, g in bag.ground_truth if cls == j)
            # weight concentration: importance mass on the top_m most probable regions
            fractions.append(float(v[np.argsort(-p[:, j], kind="stable")[: opts.top_m], j].sum()))

    curves = [_pr_curve(dets_by_class[j], gts_by_class[j], opts.iou_threshold) for j in range(c)]
    per_class_ap, mean_ap = ap_by_class(curves, opts.ap_protocol)
    per_class_corloc = [correct[j] / positives[j] if positives[j] else float("nan") for j in range(c)]
    defined = [x for x in per_class_corloc if not math.isnan(x)]
    diagnostics = {
        "weight_concentration": float(np.mean(fractions)) if fractions else float("nan"),
        "concentration_k": opts.top_m,
        "n_detections": sum(len(d) for d in dets_by_class),
    }
    flagged = [j for j in range(c) if not gts_by_class[j]]
    if flagged:
        diagnostics["classes_without_ground_truth"] = flagged
    return EvalReport(
        per_class_ap=per_class_ap,
        map=mean_ap,
        per_class_corloc=per_class_corloc,
        mean_corloc=sum(defined) / len(defined) if defined else float("nan"),
        n_images=len(dataset.images),
        diagnostics=diagnostics,
        curves=curves,
    )


def dump_pr_curves(curves: list[PRCurve], class_names: list[str], path: str | Path):
    """Write one CSV row per (class, rank) with the score and the recall/precision after it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "rank", "score", "recall", "precision"])
        for name, curve in zip(class_names, curves):
            for rank, (score, rec, prec) in enumerate(zip(curve.scores, curve.recall, curve.precision)):
                writer.writerow([name, rank, f"{score:.6g}", f"{rec:.6f}", f"{prec:.6f}"])
