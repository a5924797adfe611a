"""Brute-force reference implementations used as oracles by the tests.

Everything here is written with plain Python loops, independent of the
vectorized production code paths it cross-checks.
"""

from __future__ import annotations

import numpy as np

from wsdsel.geometry import BBox


def grid_iou(a: BBox, b: BBox, cells: int = 400) -> float:
    """Rasterized IoU over a uniform grid covering both boxes (approximate)."""
    x_lo = min(a.x1, b.x1)
    x_hi = max(a.x2, b.x2)
    y_lo = min(a.y1, b.y1)
    y_hi = max(a.y2, b.y2)
    xs = np.linspace(x_lo, x_hi, cells, endpoint=False) + (x_hi - x_lo) / (2 * cells)
    ys = np.linspace(y_lo, y_hi, cells, endpoint=False) + (y_hi - y_lo) / (2 * cells)
    gx, gy = np.meshgrid(xs, ys)
    in_a = (gx >= a.x1) & (gx < a.x2) & (gy >= a.y1) & (gy < a.y2)
    in_b = (gx >= b.x1) & (gx < b.x2) & (gy >= b.y1) & (gy < b.y2)
    union = (in_a | in_b).sum()
    return float((in_a & in_b).sum() / union) if union else 0.0


def greedy_nms_indices(boxes: list[BBox], scores: list[float], threshold: float, iou_fn) -> list[int]:
    """Reference greedy NMS returning kept input indices."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept: list[int] = []
    for i in order:
        if all(iou_fn(boxes[i], boxes[k]) <= threshold for k in kept):
            kept.append(i)
    return kept


def topm_indices(column: list[float], m: int) -> set[int]:
    """Indices of the m largest values, ties to the smaller index."""
    order = sorted(range(len(column)), key=lambda i: (-column[i], i))
    return set(order[: min(m, len(column))])


def match_detections(
    dets: list[tuple[str, float, BBox]],
    gts: dict[str, list[BBox]],
    iou_threshold: float,
    iou_fn,
) -> tuple[list[bool], int]:
    """Greedy TP/FP labels in descending-score order (ties by input order)."""
    npos = sum(len(v) for v in gts.values())
    taken = {img: [False] * len(boxes) for img, boxes in gts.items()}
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    labels = []
    for i in order:
        image_id, _, box = dets[i]
        best_iou = 0.0
        best_j = -1
        for j, g in enumerate(gts.get(image_id, [])):
            if taken[image_id][j]:
                continue
            ov = iou_fn(box, g)
            if ov > best_iou:
                best_iou, best_j = ov, j
        if best_j >= 0 and best_iou >= iou_threshold:
            labels.append(True)
            taken[image_id][best_j] = True
        else:
            labels.append(False)
    return labels, npos


def ap_from_labels(labels: list[bool], npos: int, protocol: str) -> float:
    if npos == 0 or not labels:
        return 0.0
    points = []  # (recall, precision) after each detection
    tp = fp = 0
    for is_tp in labels:
        tp += int(is_tp)
        fp += int(not is_tp)
        points.append((tp / npos, tp / (tp + fp)))
    if protocol == "eleven_point":
        total = 0.0
        # py-faster-rcnn's voc_eval levels: 0.3, 0.6 and 0.7 are the doubles just above those
        # tenths (0.30000000000000004, ...), so a recall of exactly 3/5 misses the 0.6 level.
        for r in np.arange(0.0, 1.1, 0.1):
            candidates = [p for rec, p in points if rec >= r]
            total += max(candidates) if candidates else 0.0
        return total / 11.0
    if protocol == "area":
        area = 0.0
        prev_r = 0.0
        for rec, _ in points:
            if rec == prev_r:
                continue
            best = max(p for r2, p in points if r2 >= rec)
            area += (rec - prev_r) * best
            prev_r = rec
        return area
    raise ValueError(protocol)


def reference_ap(dets, gts, iou_threshold, protocol, iou_fn) -> float:
    labels, npos = match_detections(dets, gts, iou_threshold, iou_fn)
    return ap_from_labels(labels, npos, protocol)


def reference_corloc(dataset, score_fn, iou_fn, iou_threshold=0.5):
    """Top-1 localization per class using `score_fn(bag) -> (N, C) scores`."""
    hits = {}
    counts = {}
    for bag in dataset.images:
        scores = score_fn(bag)
        for j in range(dataset.num_classes):
            if not bag.labels[j]:
                continue
            counts[j] = counts.get(j, 0) + 1
            best = 0
            for i in range(bag.n_regions):
                if scores[i][j] > scores[best][j]:
                    best = i
            gt_boxes = [b for cls, b in bag.ground_truth if cls == j]
            if any(iou_fn(bag.proposals[best], g) >= iou_threshold for g in gt_boxes):
                hits[j] = hits.get(j, 0) + 1
    per_class = {j: hits.get(j, 0) / counts[j] for j in counts}
    mean = sum(per_class.values()) / len(per_class) if per_class else float("nan")
    return per_class, mean
