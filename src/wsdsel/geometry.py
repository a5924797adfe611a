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

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)

    def __iter__(self):
        return iter((self.x1, self.y1, self.x2, self.y2))


@dataclass(frozen=True)
class Detection:
    """A scored, class-labeled box."""

    box: BBox
    class_id: int
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score) or self.score < 0.0:
            raise ValueError(f"detection score must be finite and non-negative, got {self.score}")


def box_array(boxes) -> np.ndarray:
    """`BBox`es, or rows of four numbers x1, y1, x2, y2, as an (N, 4) float64 array."""
    return np.array([tuple(b) for b in boxes], dtype=np.float64).reshape(-1, 4)


def iou(a, b) -> float:
    """Intersection-over-union of two boxes; symmetric, 0 when disjoint.

    Each box is a `BBox` or any four numbers x1, y1, x2, y2 in a row (a tuple).
    """
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / ((ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each [x1, y1, x2, y2] row of `a` (M, 4) with each row of `b` (K, 4), as (M, K).

    The arithmetic is `iou`'s, so entry [i, j] equals iou(a_i, b_j) bit for bit.
    """
    return iou_pairs(np.asarray(a, dtype=np.float64)[:, None], b)


def iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of the [x1, y1, x2, y2] boxes on the last axis of `a` and `b`, the other axes broadcast against each other.

    The arithmetic is `iou`'s, so each entry equals `iou` of its two boxes bit for bit.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    overlap = (iw > 0.0) & (ih > 0.0)
    inter = iw * ih
    del iw, ih
    union = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1]) + (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union -= inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=overlap)


# Detection works on blocks of at most this many (row, region) entries: the
# IoU rows of the mask pass and the kept rows of voting, so its temporaries
# stay bounded however many regions an image has.
VOTE_BLOCK = 1 << 18


def overlap_masks(boxes: np.ndarray, nms_threshold: float, vote_threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The two relations detection reads, IoU > nms_threshold and IoU >= vote_threshold, as (N, N) bool arrays.

    `boxes` is (N, 4). No float (N, N) IoU matrix is built: each block of
    rows [lo, hi) takes `iou_matrix(boxes[lo:hi], boxes[lo:])`, at most
    VOTE_BLOCK entries, and compares it into columns lo: of those rows.
    IoU entries are exactly symmetric, so the block's transpose gives rows
    hi: of columns lo:hi the same bits as a whole matrix would.
    """
    if not 0.0 < nms_threshold <= 1.0:
        raise ValueError(f"nms threshold must be in (0, 1], got {nms_threshold}")
    n = len(boxes)
    overlaps, voting = np.empty((n, n), dtype=bool), np.empty((n, n), dtype=bool)
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, VOTE_BLOCK // (n - lo)))
        block = iou_matrix(boxes[lo:hi], boxes[lo:])
        for mask, compare, limit in ((overlaps, np.greater, nms_threshold), (voting, np.greater_equal, vote_threshold)):
            compare(block, limit, out=mask[lo:hi, lo:])
            mask[hi:, lo:hi] = mask[lo:hi, hi:].T
        lo = hi
    return overlaps, voting


def nms(overlaps: np.ndarray, scores: np.ndarray, candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy non-maximum suppression, every class on its own; returns the kept entries as an index into `scores`.

    `overlaps` is the (N, N) bool relation IoU > threshold of N regions, as
    `overlap_masks` gives it, `scores` their (N, C) class scores and
    `candidates` the (N, C) bool mask of the entries that take part. Within
    a class, candidates are visited in descending score order (ties broken
    by index); one is removed iff it overlaps an already-kept, higher-scored
    candidate of the class. The result is a (regions, classes) pair of
    arrays, class by class and each class in visiting order, so
    `scores[kept]` are the kept scores.

    Each row of `overlaps` is packed into one Python int, bit i set when
    region i overlaps it. A class's walk then keeps a candidate whose bit
    is clear in the class's suppression int and ORs the kept row into it,
    so the walk costs one int test per candidate.
    """
    # One stable sort per class; non-candidates rank last and are never kept.
    order = np.argsort(np.where(candidates, -scores, np.inf), axis=0, kind="stable").T
    live = np.take_along_axis(candidates.T, order, axis=1)
    rows = [int.from_bytes(row, "little") for row in np.packbits(overlaps, axis=1, bitorder="little")]
    regions, counts = [], []
    for ranked, is_live in zip(order, live):
        suppressed, before = 0, len(regions)
        for i in ranked[is_live].tolist():
            if not suppressed >> i & 1:
                regions.append(i)
                suppressed |= rows[i]
        counts.append(len(regions) - before)
    return np.array(regions, dtype=np.intp), np.repeat(np.arange(len(counts)), counts)


def box_vote(kept, voting: np.ndarray, boxes: np.ndarray, scores: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Refine kept entries by score-weighted averaging of the boxes overlapping them.

    `kept` is the (regions, classes) pair `nms` returns, and `scores` and
    `candidates` are the (N, C) arrays passed to it; `boxes` is (N, 4) and
    `voting` the (N, N) bool relation IoU >= vote threshold, as
    `overlap_masks` gives it. For a kept region k of class j, every
    candidate i of class j with voting[k, i] votes with weight
    scores[i, j]. Returns one row per kept entry. A kept region votes for
    itself, so the voter set is never empty; if all voter scores are zero
    its own box is returned unchanged.

    `np.bincount` adds each row's entries one by one in input order, and
    `flatnonzero` lists a row's voters in index order, so the weight and
    each weighted coordinate are summed as a scalar loop over the voters
    would sum them.
    """
    regions, classes = kept
    live_by_class = np.ascontiguousarray(candidates.T)
    out = boxes[regions]
    n = len(boxes)
    step = max(1, VOTE_BLOCK // max(n, 1))
    for lo in range(0, len(regions), step):
        block, block_classes = regions[lo : lo + step], classes[lo : lo + step]
        rows, idx = np.divmod(np.flatnonzero(voting[block] & live_by_class[block_classes]), n)
        weights = scores[idx, block_classes[rows]]
        total = np.bincount(rows, weights, len(block))
        sums = np.column_stack([np.bincount(rows, weights * x[idx], len(block)) for x in boxes.T])
        np.divide(sums, total[:, None], out=out[lo : lo + step], where=total[:, None] > 0.0)
    return out
