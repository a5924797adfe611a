"""Axis-aligned bounding-box arithmetic: IoU, NMS, and box voting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box with strictly positive area (x1 < x2, y1 < y2)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x1, self.y1, self.x2, self.y2)):
            raise ValueError(f"non-finite box coordinates: {self}")
        if self.x1 >= self.x2 or self.y1 >= self.y2:
            raise ValueError(f"degenerate box (non-positive area): {self}")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True)
class Detection:
    """A scored, class-labeled box."""

    box: BBox
    class_id: int
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score) or self.score < 0.0:
            raise ValueError(f"detection score must be finite and non-negative, got {self.score}")


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes; symmetric, 0 when disjoint."""
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each [x1, y1, x2, y2] row of `a` (M, 4) with each row of `b` (K, 4), as (M, K).

    The arithmetic is `iou`'s, so entry [i, j] equals iou(a_i, b_j) bit for bit.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    iw = np.minimum(a[:, None, 2], b[:, 2]) - np.maximum(a[:, None, 0], b[:, 0])
    ih = np.minimum(a[:, None, 3], b[:, 3]) - np.maximum(a[:, None, 1], b[:, 1])
    overlap = (iw > 0.0) & (ih > 0.0)
    inter = iw * ih
    del iw, ih
    union = ((a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1]))[:, None] + (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union -= inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=overlap)


def nms(ious: np.ndarray, scores: np.ndarray, threshold: float) -> np.ndarray:
    """Greedy non-maximum suppression within one class; returns kept candidate indices.

    `ious` is the (K, K) IoU matrix of the K candidates and `scores` their
    (K,) scores. Candidates are visited in descending score order (ties
    broken by index); one is removed iff its IoU with an already-kept,
    higher-scored candidate exceeds `threshold`. Output is in visiting order.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"nms threshold must be in (0, 1], got {threshold}")
    suppressed = np.zeros(len(scores), dtype=bool)
    kept = []
    for i in np.argsort(-np.asarray(scores), kind="stable"):
        if not suppressed[i]:
            kept.append(i)
            suppressed |= ious[i] > threshold
    return np.array(kept, dtype=np.intp)


def box_vote(
    kept: np.ndarray, ious: np.ndarray, boxes: np.ndarray, scores: np.ndarray, vote_threshold: float
) -> np.ndarray:
    """Refine kept candidates by score-weighted averaging of the boxes overlapping them.

    For each kept index k, every candidate i with ious[k, i] >= vote_threshold
    votes with weight scores[i]; `boxes` is (K, 4). Returns one row per kept
    index. A kept candidate votes for itself, so the voter set is never
    empty; if all voter scores are zero its own box is returned unchanged.
    """
    weights = np.where(ious[kept] >= vote_threshold, scores, 0.0)
    # Running sums add the voters in index order, as a scalar loop would, so
    # the voted boxes do not depend on how numpy groups a plain sum.
    total = np.cumsum(weights, axis=1)[:, -1:]
    sums = np.stack([np.cumsum(weights * boxes[:, c], axis=1)[:, -1] for c in range(4)], axis=1)
    return np.divide(sums, total, out=boxes[kept], where=total > 0.0)
