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
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    iw = np.minimum(a[:, None, 2], b[:, 2]) - np.maximum(a[:, None, 0], b[:, 0])
    ih = np.minimum(a[:, None, 3], b[:, 3]) - np.maximum(a[:, None, 1], b[:, 1])
    overlap = (iw > 0.0) & (ih > 0.0)
    inter = iw * ih
    del iw, ih
    union = ((a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1]))[:, None] + (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union -= inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=overlap)


# Voting works on blocks of kept rows with at most this many (row, region)
# entries, so its temporaries stay bounded however many regions an image has.
VOTE_BLOCK = 1 << 18


def _columns(scores: np.ndarray, candidates: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """`scores` as (N, C), one column for a 1-D vector, and the candidate mask of that shape."""
    scores = np.asarray(scores)
    cols = scores[:, None] if scores.ndim == 1 else scores
    if candidates is None:
        return cols, np.ones(cols.shape, dtype=bool)
    return cols, np.asarray(candidates, dtype=bool).reshape(cols.shape)


def nms(ious: np.ndarray, scores: np.ndarray, threshold: float, candidates: np.ndarray | None = None):
    """Greedy non-maximum suppression, every class on its own; returns the kept entries as an index into `scores`.

    `ious` is the (N, N) IoU matrix of N regions and `scores` their (N, C)
    class scores; a 1-D `scores` is one class. `candidates`, shaped like
    `scores` (default: every entry), marks the entries that take part.
    Within a class, candidates are visited in descending score order (ties
    broken by index); one is removed iff its IoU with an already-kept,
    higher-scored candidate of the class exceeds `threshold`. For 1-D
    scores the result is the kept region indices in visiting order; for
    2-D it is a (regions, classes) pair of arrays, class by class and each
    class in visiting order. Either way `scores[kept]` are the kept scores.

    Each row of `ious > threshold` is packed into one Python int, bit i set
    when region i overlaps it. A class's walk then keeps a candidate whose
    bit is clear in the class's suppression int and ORs the kept row into
    it, so the walk costs one int test per candidate.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"nms threshold must be in (0, 1], got {threshold}")
    cols, live = _columns(scores, candidates)
    # One stable sort per class; non-candidates rank last and are never kept.
    order = np.argsort(np.where(live, -cols, np.inf), axis=0, kind="stable").T
    live = np.take_along_axis(live.T, order, axis=1)
    rows = [int.from_bytes(row, "little") for row in np.packbits(ious > threshold, axis=1, bitorder="little")]
    regions, counts = [], []
    for ranked, is_live in zip(order, live):
        suppressed, before = 0, len(regions)
        for i in ranked[is_live].tolist():
            if not suppressed >> i & 1:
                regions.append(i)
                suppressed |= rows[i]
        counts.append(len(regions) - before)
    regions = np.array(regions, dtype=np.intp)
    return regions if np.ndim(scores) == 1 else (regions, np.repeat(np.arange(len(counts)), counts))


def box_vote(
    kept,
    ious: np.ndarray,
    boxes: np.ndarray,
    scores: np.ndarray,
    vote_threshold: float,
    candidates: np.ndarray | None = None,
) -> np.ndarray:
    """Refine kept entries by score-weighted averaging of the boxes overlapping them.

    `kept` indexes `scores` as `nms` returns it, and `scores`/`candidates`
    are shaped as for `nms`; `boxes` is (N, 4). For a kept region k of
    class j, every candidate i of class j with ious[k, i] >= vote_threshold
    votes with weight scores[i, j]. Returns one row per kept entry. A kept
    region votes for itself, so the voter set is never empty; if all voter
    scores are zero its own box is returned unchanged.
    """
    cols, live = _columns(scores, candidates)
    regions, classes = (kept, np.zeros(len(kept), dtype=np.intp)) if np.ndim(scores) == 1 else kept
    close = ious >= vote_threshold
    live_by_class = np.ascontiguousarray(live.T)
    out = boxes[regions]
    n = len(boxes)
    step = max(1, VOTE_BLOCK // max(n, 1))
    for lo in range(0, len(regions), step):
        block, block_classes = regions[lo : lo + step], classes[lo : lo + step]
        voters = close[block] & live_by_class[block_classes]
        rows, idx = np.divmod(np.flatnonzero(voters), n)
        # Each row's voters packed to the front in index order, layer by layer:
        # (weight, weight * box) of every row's first voter, then its second...
        counts = np.bincount(rows, minlength=len(block))
        slot = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        weights = cols[idx, block_classes[rows]]
        layers = np.zeros((counts.max(), len(block), 5))
        layers[slot, rows, 0] = weights
        layers[slot, rows, 1:] = weights[:, None] * boxes[idx]
        # Adding the layers one by one sums each row's voters in index order,
        # as a scalar loop would, so the voted boxes do not depend on how
        # numpy groups a plain sum.
        sums = layers[0].copy()
        for layer in layers[1:]:
            sums += layer
        total = sums[:, :1]
        np.divide(sums[:, 1:], total, out=out[lo : lo + step], where=total > 0.0)
    return out
