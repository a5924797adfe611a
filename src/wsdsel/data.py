"""Dataset model, file formats, and the synthetic MIL benchmark generator.

The generator builds images on a unit canvas where each ground-truth object
is surrounded by a cluster of proposals spanning tight to loose overlap,
plus oversized "context" boxes that carry a shared scene direction scaled
by `distractor_strength`. Region features encode partial class evidence in
proportion to their best overlap with a ground-truth box, so loose boxes
score deceptively well: the object/background ambiguity that region
selection is meant to resolve.

Boxes travel as arrays: each image's proposals are one (N, 4) float64
array, `ImageBag.boxes`, and its ground truth a (G,) class array,
`ImageBag.gt_classes`, beside a (G, 4) float64 array, `ImageBag.gt_boxes`.
The generator and the loader fill them, `Dataset.validate` checks both box
arrays alike, and evaluation reads them as they are. `ImageBag.proposals`
and `ImageBag.ground_truth` build `BBox` objects from them only when asked.
An image's features are one (V, N, D) float32 array, `ImageBag.views`,
stored with its proposals in its dataset's binary features file, never
through text: the writer puts both arrays' bytes there and the loader
returns views of the buffer it reads each image's block into.

The boxes of an image are drawn from its own generator in a fixed order,
each by rejection sampling: the clusters object by object (a tight first
box, then loose boxes), then the context boxes, then the background boxes.
Each try of a cluster or background box reads four consecutive doubles, so
the tries of the image's cluster boxes form one stream of candidates, and
those of its background boxes another; the samplers draw each stream in
rounds rather than four doubles at a time. A round holds one candidate for
every box still needed, drawn with one `rng.random` call; since every such
box takes at least one more try, no round reads past what the box-by-box
loop would, and nothing is put back. The candidates are judged at once and
handed to the boxes in stream order, with each box's try count carried
across rounds, so a box gives up after exactly as many tries as it would
alone: a cluster box then becomes a copy of its ground truth (30 tries), a
background box keeps its last try (20 tries). The boxes, and the generator
state left behind, are the same bytes as one scalar loop per box.

The context boxes read theirs from raw outputs instead. A box-by-box loop
calls `rng.integers(k)` for the object a box surrounds, then tries three
doubles at a time. PCG64 makes such a 32-bit draw from the low half
of a new 64-bit output and holds the high half for the next one, so the
integers fall between the doubles, every other box reading a new output.
`_context_boxes` draws a block of outputs with `random_raw` and rebuilds
both as numpy does: a double is (output >> 11) * 2**-53, and
`integers(k)` is Lemire's multiply of a 32-bit half by k, the high word
of the product, drawn again where its low word is below (2**32 - k) % k
(at k = 1 nothing is read). The try from every offset in the block around
every object is made and judged at once, on arrays; a walk then reads
each box's integer and looks up its tries, in stream order. The generator
is left where the loop would leave it, the held half included; a box
whose 30 tries fail (a loose cluster box instead) is drawn by numpy
itself from that point.

Feature split. Once an image's boxes are drawn, its features are a block
of numpy calls on its own generator: the signal `overlap @ prototypes`,
the distractor added to the context rows, then per view a normal fill, a
scale, an add and a float32 cast. Every image has a generator of its own,
so two images' blocks can run at the same time and draw the same bytes.
Where the head's gate, `head._worker_for(N*D*views, FEATURE_SPLIT_MIN)`,
gives its worker (N*D*views of at least 2^16 on at least two usable
CPUs), `generate_synthetic` samples the boxes of images i and i+1, then
runs image i's block on that worker thread (through `beside`) while the
calling thread runs image i+1's; with an odd image count the last image
runs on the caller. Below the gate, the handoff and the worker's wake-up
cost more than the block saves: the walkthrough and dense_eval shapes
stay serial. The caller keeps all box sampling and allocates the float32
views; the block calls numpy only, never a wsdsel function (perfbench's
tracer keeps one span stack), and allocates nothing: each thread has its
own signal buffer and noise chunk. The noise is drawn in chunks of
NOISE_CHUNK entries (whole rows), which read the normal stream in the same
order as one fill of the whole view, so the bytes stay the same while the
chunk stays in cache.

File formats
------------
Dataset manifest (JSON): top level {c, d, class_names, features, images:
[{id, labels, ground_truth, views}]}, with ground_truth as {class, box}
records and each box an [x1, y1, x2, y2] row. `features` is the path of
the features file relative to the manifest's directory; each record's
`views` is checked against its block.

Features file (binary, one per dataset, `<stem>_features/features.wsdf`),
version 3: magic "WSDF", version as u16 LE, the image count as u32 LE;
then, for each image in manifest order, a block: V, N, D as u32 LE, the N
proposal rows [x1, y1, x2, y2] as float64 LE, then V*N*D row-major float32
LE. The file ends exactly after the last block. A load opens it once and
reads each block's arrays into a buffer of the image's own.

Writing outputs
---------------
Every output of `synth`, `train` and `eval` is written through `replaced`,
under a temporary name of its own beside its path, text as UTF-8 whatever
the locale. A command writes them in one `removed_on_failure` block, which
renames them all into place once every one is written, so a failure leaves
each previous file as it was.
"""

from __future__ import annotations

import contextlib
import contextvars
import errno
import itertools
import json
import math
import os
import reprlib
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wsdsel import head
from wsdsel.errors import ConfigError, DataError
from wsdsel.geometry import BBox, box_array, iou, iou_matrix

FEATURE_MAGIC = b"WSDF"
FEATURE_VERSION = 3
# The smallest per-image N*D*views at which generation draws features on two threads (see the module docstring).
FEATURE_SPLIT_MIN = 1 << 16
# Noise entries drawn per chunk: 256 KB of float64 per thread, a buffer that stays in cache.
NOISE_CHUNK = 1 << 15
# `Dataset.validate` checks box values over runs of whole images holding at
# most this many box rows, so its copies stay bounded however many images a
# dataset has; an image with more rows makes a run alone. A run's copy (128 KiB
# of coordinates) is then the largest thing a load holds beside its arrays.
VALIDATE_ROWS = 1 << 12
# What a load message shows of a bad manifest value: lists are cut after 20
# items (a 20-class label vector shows whole) and nesting after 6 levels.
_SHOWN = reprlib.Repr()
_SHOWN.maxlist = 20


class ImageBag:
    """One image: proposal boxes, per-region features as one (V, N, D) array of views, labels, ground truth.

    `boxes` holds the proposals as an (N, 4) float64 array of [x1, y1, x2,
    y2] rows; `proposals` builds them as `BBox`es on demand. A bag is made
    from either one: `ImageBag(id, boxes=array, ...)` keeps the array,
    `ImageBag(id, proposals=[BBox, ...], ...)` stacks the boxes into one.

    The ground truth is given as (class, box) pairs, each box a `BBox` or
    four numbers, and kept as `gt_classes`, a (G,) intp array, and
    `gt_boxes`, a (G, 4) float64 array; `ground_truth` builds the pairs,
    as (int, `BBox`), on demand. It is carried for evaluation only; the
    trainer never reads it.
    """

    def __init__(
        self,
        id: str,
        *,
        views: np.ndarray | list[np.ndarray],  # (V, N, D) float32, as a features file lays it out; or V (N, D) arrays
        labels: np.ndarray,  # (C,) ints in {0, 1}
        ground_truth: Iterable[tuple[int, BBox | Box]] | None = None,
        boxes: np.ndarray | None = None,
        proposals: list[BBox] | None = None,
    ):
        if (boxes is None) == (proposals is None):
            raise ValueError("an ImageBag takes its proposals as either `boxes` or `proposals`")
        self.id = id
        self.boxes = box_array(proposals) if boxes is None else np.asarray(boxes, dtype=np.float64)
        self.views = np.asarray(views)
        self.labels = labels
        pairs = list(ground_truth or ())
        self.gt_classes = np.array([c for c, _ in pairs], dtype=np.intp)
        self.gt_boxes = box_array([b for _, b in pairs])

    @property
    def proposals(self) -> list[BBox]:
        return [BBox(*row) for row in self.boxes.tolist()]

    @property
    def ground_truth(self) -> list[tuple[int, BBox]]:
        return [(c, BBox(*row)) for c, row in zip(self.gt_classes.tolist(), self.gt_boxes.tolist())]

    @property
    def n_regions(self) -> int:
        return len(self.boxes)


@dataclass
class Dataset:
    num_classes: int
    feat_dim: int
    class_names: list[str]
    images: list[ImageBag]
    # (st_dev, st_ino) of the features file `load_dataset` read: the file a command must not overwrite.
    features_file: tuple[int, int] | None = None

    def validate(self):
        """Raise a DataError that names the image at the first fault found.

        Shapes and views are checked image by image. Then the box
        coordinates, the 0/1 labels and the ground-truth classes are
        checked over runs of whole images in order, each run holding at most
        VALIDATE_ROWS box rows (`_runs`): once over the run's concatenated
        arrays, and only if that fails image by image, for the message. So
        where several images fail, a shape or view fault is named before a
        value fault, and the first image with a value fault names it.
        """
        if not self.images:
            raise DataError("dataset has no images")
        if len(self.class_names) != self.num_classes:
            raise DataError(f"expected {self.num_classes} class names, got {len(self.class_names)}")
        for bag in self.images:
            n = bag.n_regions
            if n < 1:
                raise DataError(f"image {bag.id}: no proposals")
            if bag.boxes.shape != (n, 4):
                raise DataError(f"image {bag.id}: proposal boxes have shape {bag.boxes.shape}, expected ({n}, 4)")
            if bag.labels.shape != (self.num_classes,):
                raise DataError(f"image {bag.id}: label vector has shape {bag.labels.shape}")
            _check_views(bag, self.feat_dim)
            if not np.isfinite(bag.views).all():
                raise DataError(f"image {bag.id}: non-finite feature values")
        for run in _runs(self.images, VALIDATE_ROWS):
            boxes = np.concatenate([bag.boxes for bag in run] + [bag.gt_boxes for bag in run])
            classes = np.concatenate([bag.gt_classes for bag in run])
            if not (
                np.isfinite(boxes).all()
                and (boxes[:, :2] < boxes[:, 2:]).all()  # x1 < x2, y1 < y2
                and np.isin(np.concatenate([bag.labels for bag in run]), (0, 1)).all()
                and ((classes >= 0) & (classes < self.num_classes)).all()
            ):
                for bag in run:  # the first image that fails names the fault
                    self._check_values(bag)

    def _check_values(self, bag: ImageBag):
        """The value checks of `validate` on one image, in their order, with their messages."""
        for what, boxes in (("proposal", bag.boxes), ("ground-truth", bag.gt_boxes)):
            if not np.isfinite(boxes).all():
                raise DataError(f"image {bag.id}: non-finite {what} box coordinates")
            ordered = boxes[:, :2] < boxes[:, 2:]  # x1 < x2, y1 < y2
            if not ordered.all():
                row = np.argmin(ordered.all(axis=1))
                raise DataError(
                    f"image {bag.id}: degenerate {what} box {row} (non-positive area): {boxes[row].tolist()}"
                )
        if not np.isin(bag.labels, (0, 1)).all():
            raise DataError(f"image {bag.id}: labels must be 0/1")
        outside = np.flatnonzero((bag.gt_classes < 0) | (bag.gt_classes >= self.num_classes))
        if outside.size:
            raise DataError(f"image {bag.id}: ground-truth class {bag.gt_classes[outside[0]]} out of range")


def _check_views(bag: ImageBag, feat_dim: int):
    """The view rule of `Dataset.validate` and `save_dataset`: (V, N, `feat_dim`) views, V >= 1, for N boxes."""
    if not len(bag.views):
        raise DataError(f"image {bag.id}: no feature views")
    if bag.views.shape[1:] != (bag.n_regions, feat_dim):
        raise DataError(f"image {bag.id}: view shape {bag.views.shape[1:]} != ({bag.n_regions}, {feat_dim})")


def _runs(images: list[ImageBag], limit: int):
    """`images` in order, as lists of consecutive whole images holding at most `limit` box rows each.

    An image's rows are its proposal and ground-truth boxes; an image with
    more than `limit` rows makes a run alone.
    """
    run, rows = [], 0
    for bag in images:
        size = len(bag.boxes) + len(bag.gt_boxes)
        if run and rows + size > limit:
            yield run
            run, rows = [], 0
        run.append(bag)
        rows += size
    if run:
        yield run


@dataclass(frozen=True)
class SynthConfig:
    n_images: int = 200
    num_classes: int = 6
    feat_dim: int = 64
    proposals_per_image: int = 64
    objects_min: int = 1
    objects_max: int = 3
    noise_sigma: float = 0.5
    context_fraction: float = 0.2
    distractor_strength: float = 2.0
    n_views: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("n_images", "num_classes", "feat_dim", "proposals_per_image", "objects_min", "objects_max", "n_views"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.objects_max < self.objects_min:
            raise ConfigError("objects_max must be >= objects_min")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma > 0):
            raise ConfigError(f"noise_sigma must be finite and > 0, got {self.noise_sigma}")
        if not math.isfinite(self.distractor_strength):
            raise ConfigError(f"distractor_strength must be finite, got {self.distractor_strength}")
        if not 0.0 <= self.context_fraction < 1.0:
            raise ConfigError(f"context_fraction must be in [0, 1), got {self.context_fraction}")
        n_context = round(self.context_fraction * self.proposals_per_image)
        if n_context + self.objects_max > self.proposals_per_image:
            raise ConfigError(
                "infeasible geometry: proposals_per_image cannot hold "
                f"{self.objects_max} object clusters plus {n_context} context boxes"
            )


def _unit_rows(rng: np.random.Generator, shape) -> np.ndarray:
    m = rng.normal(size=shape)
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


# A box on the generator's canvas as plain floats: (x1, y1, x2, y2).
Box = tuple[float, float, float, float]


def _uniform(low: float, high: float, u: float) -> float:
    """`rng.uniform(low, high)` of the double `u` from `rng.random`: numpy's own arithmetic, so the same float."""
    return low + (high - low) * u


def _random_gt_box(rng: np.random.Generator) -> Box:
    uw, uh, ux, uy = rng.random(4).tolist()
    w = _uniform(0.12, 0.35, uw)
    h = _uniform(0.12, 0.35, uh)
    cx = _uniform(w / 2, 1.0 - w / 2, ux)
    cy = _uniform(h / 2, 1.0 - h / 2, uy)
    return (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def _jitter(box, scale, u):
    """`box` moved and resized at relative magnitude `scale` by uniforms u = (ux, uy, uw, uh), clipped to the canvas.

    Each coordinate, scale and uniform is an array with one element per try.
    """
    x1, y1, x2, y2 = box
    w, h = x2 - x1, y2 - y1
    cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
    ux, uy, uw, uh = u
    cx = cx + _uniform(-scale, scale, ux) * w
    cy = cy + _uniform(-scale, scale, uy) * h
    w = w * np.exp(_uniform(-scale, scale, uw))
    h = h * np.exp(_uniform(-scale, scale, uh))
    x1, y1 = np.maximum(0.0, cx - w / 2), np.maximum(0.0, cy - h / 2)
    return x1, y1, np.minimum(1.0, cx + w / 2), np.minimum(1.0, cy + h / 2)


def _cluster_boxes(rng: np.random.Generator, gt, scales, min_iou, tries: int = 30) -> np.ndarray:
    """A jittered copy of each row of `gt` (M, 4), drawn in rounds (see the module docstring).

    Box i is rejection-sampled at relative magnitude `scales[i]` until a try
    is not degenerate and has IoU >= `min_iou[i]` with `gt[i]` (at a
    `min_iou` of 0 or less, any box that is not degenerate passes); after
    `tries` failed tries it is a copy of `gt[i]`. A try is judged at its own
    box, so a round takes its tries up to the first rejected one and carries
    the rest into the next round, shifted onto the boxes they then belong to.
    """
    count = len(gt)
    out = np.empty((count, 4))
    done = tried = 0  # boxes finished; rejected tries of box `done`
    u = np.empty((0, 4))  # tries drawn for the boxes from `done` on
    while done < count:
        if len(u) < count - done:
            u = np.concatenate((u, rng.random((count - done - len(u), 4))))
        cand = np.stack(_jitter(gt[done:].T, scales[done:], u.T), axis=1)
        rejected = (cand[:, 2] - cand[:, 0] < 1e-3) | (cand[:, 3] - cand[:, 1] < 1e-3)
        judged = np.flatnonzero(min_iou[done:] > 0.0)
        ious = iou_matrix(cand[judged], gt[done:][judged]).diagonal()  # each entry is `iou`'s, bit for bit
        rejected[judged] |= ious < min_iou[done:][judged]
        r = int(rejected.argmax()) if rejected.any() else len(cand)
        out[done : done + r] = cand[:r]
        done += r
        if done == count:
            break
        tried = tried + 1 if r == 0 else 1
        if tried == tries:  # every try failed: the ground-truth copy
            out[done] = gt[done]
            done, tried = done + 1, 0
        u = u[r + 1 :]
    return out


def _restore(bitgen, state: dict, read: int, held: int, word: int):
    """Set `bitgen` (PCG64) to `state` moved on by `read` raw outputs, holding the 32-bit half `word` if `held`."""
    state["has_uint32"], state["uinteger"] = held, word
    bitgen.state = state
    bitgen.random_raw(read)  # steps the LCG only: the held half stays


def _context_boxes(rng: np.random.Generator, gt: np.ndarray, count: int, tries: int = 30) -> np.ndarray:
    """`count` oversized boxes around rows of `gt` (K, 4), read from blocks of raw outputs (see the module docstring).

    Box by box, the stream is that of `rng.integers(K)`, which picks the
    row, then up to `tries` tries of `rng.random(3)`: a try is kept if it is
    not degenerate and its IoU with the row is below 0.5. A box whose tries
    all fail is a `_cluster_boxes` box around its row at scale 0.8.

    A block holds four outputs for each box left (three for a try, at most
    one for its integer) and `slack` more. The try from every offset in it
    around every row is made and judged at once; a walk then reads each
    box's integer from the outputs and looks up its tries, three outputs
    apart. The generator is then set (`_restore`) where the box-by-box
    loop would be: after the last box, at a box whose reads run past the
    block, which begins the next one, or after a box's last failed try,
    for its fallback.
    """
    k, out = len(gt), np.empty((count, 4))
    bitgen = rng.bit_generator
    size, center = gt[:, 2:] - gt[:, :2], (gt[:, :2] + gt[:, 2:]) / 2
    # IoU <= (smaller area) / (larger area), also as `iou` rounds it: a try over 2.001 times its row's area passes.
    near_area = 2.001 * (size[:, 0] * size[:, 1])
    gt_rows, redraw_below = gt.tolist(), (2**32 - k) % k  # numpy's Lemire method draws again below it
    done, slack = 0, 3 * tries
    while done < count:
        state = bitgen.state
        held, word = state["has_uint32"], state["uinteger"]  # PCG64's buffered 32-bit half
        raw = bitgen.random_raw(4 * (count - done) + slack)
        # The try from each offset around each row: (T, K, 2) arrays, then (T*K, 4) rows, the row index fastest.
        u = (raw >> np.uint64(11)) * 2.0**-53  # rng.random's double from each output
        s = _uniform(-0.15, 0.15, u)
        wh = _uniform(1.5, 2.4, u[:-2])[:, None, None] * size
        c = center + np.concatenate((s[1:-1, None], s[2:, None]), axis=1)[:, None] * wh
        wh /= 2  # half the width and height
        lo, hi = np.maximum(0.0, c - wh), np.minimum(1.0, c + wh)
        span = hi - lo
        cand = np.concatenate((lo, hi), axis=2).reshape(-1, 4)
        # Per try: 0 kept, 1 degenerate, 2 judged by its IoU (3, both: degenerate).
        verdict = (np.minimum(span[..., 0], span[..., 1]) < 1e-3) + 2 * (span[..., 0] * span[..., 1] <= near_area)
        verdict, words = verdict.ravel().tolist(), raw.tolist()
        pos, kept, fallback = 0, [], -1  # the next output to read; the kept tries; the row of a box to fall back
        for box in range(done, count):
            begin = pos, held, word
            try:  # a read past the block is an IndexError
                row = 0
                while k > 1:  # rng.integers(k): the high word of a 32-bit half times k, unless the low one is too low
                    if held:
                        half, held = word, 0
                    else:
                        half, held, word = words[pos] & 0xFFFFFFFF, 1, words[pos] >> 32
                        pos += 1
                    row, low = divmod(half * k, 2**32)
                    if low >= redraw_below:
                        break
                for at in range(pos * k + row, (pos + 3 * tries) * k + row, 3 * k):  # its tries' rows in `cand`
                    if not verdict[at] or verdict[at] == 2 and iou(cand[at].tolist(), gt_rows[row]) < 0.5:
                        pos = at // k + 3
                        break
                else:
                    pos, fallback = pos + 3 * tries, row
            except IndexError:  # the box begins the next block, a larger one if it began this one
                pos, held, word = begin
                slack *= 2 if box == done else 1
                break
            if fallback >= 0:
                break
            kept.append(at)
        out[done : done + len(kept)] = cand[kept]
        done += len(kept)
        _restore(bitgen, state, pos, held, word)
        if fallback >= 0:
            out[done] = _cluster_boxes(rng, gt[fallback][None], np.array([0.8]), np.zeros(1))[0]
            done += 1
    return out


def _background_boxes(rng: np.random.Generator, gt_boxes, count: int, tries: int = 20) -> np.ndarray:
    """`count` boxes, each with IoU below 0.3 with every ground-truth box, drawn in rounds (see the module docstring).

    Each box is rejection-sampled and keeps its last try if all `tries`
    fail. A try's verdict does not depend on its box, so a round hands out
    all its tries in stream order: each box takes them up to its first
    accepted one or its last one, and the next box starts after it.
    """
    gt = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    out = np.empty((count, 4))
    done = tried = 0  # boxes finished; rejected tries of box `done`
    while done < count:
        uw, uh, ux, uy = rng.random((count - done, 4)).T
        w = _uniform(0.05, 0.5, uw)
        h = _uniform(0.05, 0.5, uh)
        x1 = _uniform(0.0, 1.0 - w, ux)
        y1 = _uniform(0.0, 1.0 - h, uy)
        cand = np.stack((x1, y1, x1 + w, y1 + h), axis=1)
        ok = (iou_matrix(cand, gt) < 0.3).all(axis=1)
        pos, end = 0, len(cand)
        while pos < end:
            # Each box ends at an accepted try; the box left open at the round's end ends at `end` at the earliest.
            stops = np.append(pos + np.flatnonzero(ok[pos:]), end)
            starts = np.append(pos - tried, stops[:-1] + 1)
            over = np.flatnonzero(stops - starts >= tries)  # boxes whose tries run out first
            n_ok = int(over[0]) if over.size else len(stops) - 1
            out[done : done + n_ok] = cand[stops[:n_ok]]
            done += n_ok
            if not over.size:
                tried, pos = end - starts[-1], end
                break
            last = starts[n_ok] + tries - 1
            out[done] = cand[last]
            done, tried, pos = done + 1, 0, last + 1
    return out


def _sample_image(cfg: SynthConfig, i: int) -> tuple[ImageBag, tuple]:
    """Image `i` with its boxes, labels and ground truth, and what its features are drawn from.

    The bag's (V, N, D) float32 views are allocated and left unfilled. The
    second item is (rng, overlap, is_context, views): the image's generator,
    positioned at its noise, each region's best IoU with a ground-truth box
    of each class, (N, C), the (N,) context mask, and the views to fill.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1, i)))
    n = cfg.proposals_per_image
    n_context = round(cfg.context_fraction * n)
    k = int(rng.integers(cfg.objects_min, cfg.objects_max + 1))
    gt = [(int(rng.integers(cfg.num_classes)), _random_gt_box(rng)) for _ in range(k)]
    gt_boxes = [b for _, b in gt]

    # Per-object clusters spanning tight to loose overlap, object by object; the first
    # member is forced tight so a correct localization always exists.
    # Clusters and context boxes never hold more than n boxes (SynthConfig checks it).
    proposals = np.empty((n, 4))
    per_obj = max(k, (n - n_context) // 2) // k
    n_cluster = k * per_obj
    scales = np.tile(np.append(0.05, 0.08 + 0.62 * np.arange(1, per_obj) / per_obj), k)
    min_iou = np.tile(np.append(0.7, np.zeros(per_obj - 1)), k)
    gt_array = np.array(gt_boxes)
    proposals[:n_cluster] = _cluster_boxes(rng, np.repeat(gt_array, per_obj, axis=0), scales, min_iou)
    # From blocks of raw outputs: each context box's rng.integers(k) reads a 32-bit half
    # between the double draws of the tries, so both are rebuilt from the one stream.
    proposals[n_cluster : n_cluster + n_context] = _context_boxes(rng, gt_array, n_context)
    proposals[n_cluster + n_context :] = _background_boxes(rng, gt_array, n - n_cluster - n_context)
    is_context = np.zeros(n, dtype=bool)
    is_context[n_cluster : n_cluster + n_context] = True

    perm = rng.permutation(n)
    boxes = proposals[perm]
    is_context = is_context[perm]

    # Each region's best IoU with a ground-truth box of each class.
    ious = iou_matrix(boxes, gt_array)
    overlap = np.zeros((n, cfg.num_classes))
    for t, (class_id, _) in enumerate(gt):
        np.maximum(overlap[:, class_id], ious[:, t], out=overlap[:, class_id])
    views = np.empty((cfg.n_views, n, cfg.feat_dim), dtype=np.float32)
    labels = np.zeros(cfg.num_classes, dtype=np.int64)
    labels[[c for c, _ in gt]] = 1
    bag = ImageBag(id=f"im{i:05d}", boxes=boxes, views=views, labels=labels, ground_truth=gt)
    return bag, (rng, overlap, is_context, views)


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Deterministic synthetic dataset; a pure function of the config.

    Per-image RNG streams are derived from (seed, image index), so per-image
    content does not depend on generation order.
    """
    proto_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    prototypes = _unit_rows(proto_rng, (cfg.num_classes, cfg.feat_dim))
    context_dir = _unit_rows(proto_rng, (cfg.feat_dim,))
    class_names = [f"class{i:02d}" for i in range(cfg.num_classes)]

    n, d = cfg.proposals_per_image, cfg.feat_dim
    distractor = cfg.distractor_strength * context_dir
    worker = head._worker_for(n * d * cfg.n_views, FEATURE_SPLIT_MIN)
    split = worker is not None
    rows = max(1, NOISE_CHUNK // d)
    # One signal buffer and one noise chunk per thread: fresh (N, D) float64 temporaries per image
    # fragment the heap between the float32 views that stay, and raise peak RSS.
    buffers = [(np.empty((n, d)), np.empty((min(rows, n), d))) for _ in range(1 + split)]

    # A closure, not a module function, since it may run on the worker (see the module docstring).
    def features(rng, overlap, is_context, views, signal, noise):
        np.matmul(overlap, prototypes, out=signal)
        np.add(signal, distractor, out=signal, where=is_context[:, None])  # signal[is_context] += distractor
        # signal + sigma * rng.normal(size=(n, d)), chunk by chunk, cast to float32. normal() at loc 0, scale 1
        # is 0.0 + 1.0 * z, the same double as z except for z = -0.0 (odds 2**-53 a draw), and even that sum
        # only differs where the signal entry is -0.0 too.
        for view in views:
            for start in range(0, n, rows):
                chunk = noise[: min(rows, n - start)]
                rng.standard_normal(out=chunk)
                chunk *= cfg.noise_sigma
                np.add(signal[start : start + len(chunk)], chunk, out=chunk)
                np.copyto(view[start : start + len(chunk)], chunk)

    images = []
    for i in range(0, cfg.n_images, 1 + split):
        bag, draw = _sample_image(cfg, i)
        images.append(bag)
        if split and i + 1 < cfg.n_images:
            after, after_draw = _sample_image(cfg, i + 1)
            images.append(after)
            worker.beside(lambda: features(*draw, *buffers[1]), lambda: features(*after_draw, *buffers[0]))
        else:
            features(*draw, *buffers[0])

    ds = Dataset(num_classes=cfg.num_classes, feat_dim=cfg.feat_dim, class_names=class_names, images=images)
    ds.validate()
    return ds


def split_dataset(ds: Dataset, n_train: int) -> tuple[Dataset, Dataset]:
    """Split by image index into (first n_train, remainder)."""
    if not 0 < n_train < len(ds.images):
        raise ConfigError(f"n_train must be in (0, {len(ds.images)}), got {n_train}")
    first = Dataset(ds.num_classes, ds.feat_dim, list(ds.class_names), ds.images[:n_train])
    rest = Dataset(ds.num_classes, ds.feat_dim, list(ds.class_names), ds.images[n_train:])
    return first, rest


# The open `removed_on_failure` block of this thread: the paths it wrote, temporaries included, and the
# (temporary, target) renames of its `replaced` files. None outside one.
_block: contextvars.ContextVar[tuple[list, list] | None] = contextvars.ContextVar("block", default=None)


@contextlib.contextmanager
def removed_on_failure():
    """Commit what the block writes as one: every `replaced` file in it is renamed into place, or none is.

    A `replaced` file written in the block is recorded under its temporary
    name, with any directory made for it, and renamed onto its target only
    when the outermost block ends cleanly, in the order written; a block
    opened inside another joins it. A directory standing at any target
    fails the commit before the first rename. If the block fails, every
    recorded path is removed, last first (a directory, recorded before its
    files, with `rmdir`), and the error is re-raised: the target of every
    `replaced` file is as it was.
    """
    if _block.get() is not None:
        yield
        return
    written, renames = [], []
    token = _block.set((written, renames))
    try:
        yield
        for _, path in renames:  # before the first rename: no file moves if one of them cannot
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, "Is a directory", str(path))
        for tmp, path in renames:
            os.replace(tmp, path)
    except BaseException:
        for path in map(Path, reversed(written)):
            path.rmdir() if path.is_dir() else path.unlink(missing_ok=True)
        raise
    finally:
        _block.reset(token)


@contextlib.contextmanager
def replaced(path: str | Path, mode: str = "w", **open_kwargs):
    """Open a new temporary file beside `path`, text as UTF-8, and rename it onto `path` once its block commits.

    The temporary is `<name>.<8 random hex digits>.tmp`, created in
    exclusive mode (`mode` with "w" as "x"): an existing file is never
    opened in its place, and a name that is taken is a FileExistsError,
    with nothing written. The write is its own `removed_on_failure` block,
    or joins the one open: if the write or anything later in that block
    fails, the temporary file, and any parent directory made for it, is
    removed and `path` is left as it was. A path the filesystem encoding
    cannot encode (a name read as text under an ASCII locale) or that holds
    a NUL cannot be written: an OSError, before anything is made.
    """
    path = Path(path)
    try:
        os.fsencode(path)
    except UnicodeEncodeError as err:
        raise OSError(errno.EILSEQ, f"the filesystem encoding cannot encode the name ({err.reason})", str(path)) from err
    if "\0" in str(path):
        raise OSError(errno.EINVAL, "a file name cannot hold a NUL byte", str(path))
    if "b" not in mode:
        open_kwargs.setdefault("encoding", "utf-8")
    tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}.tmp")
    with removed_on_failure():
        written, renames = _block.get()
        for made in reversed(list(itertools.takewhile(lambda d: not d.exists(), path.parents))):
            made.mkdir()  # the missing parents, outermost first
            written.append(made)
        with open(tmp, mode.replace("w", "x"), **open_kwargs) as fh:
            written.append(tmp)
            renames.append((tmp, path))
            yield fh


def features_path(manifest: Path) -> Path:
    """Where `save_dataset` writes the features file of the dataset at `manifest`: `<stem>_features/features.wsdf`."""
    return manifest.parent / f"{manifest.stem}_features" / "features.wsdf"


def _read_block(fh, left: int, image_id: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Image `image_id`'s block from `fh`, which holds `left` more bytes: its boxes, its views, and the bytes then left.

    The boxes, (N, 4) float64, and the views, (V, N, D) float32, are read
    into one buffer of their own, and both are views of it: nothing is
    copied and nothing is zero-filled. The boxes sit at the start of the
    buffer, so they are as aligned as numpy's allocation. A block that
    would run past the end of the file is refused before anything is
    allocated for it.
    """
    header = fh.read(12)
    if len(header) < 12:
        raise DataError(
            f"image {image_id}: truncated features file, expected a 12-byte block header, got {len(header)} bytes"
        )
    v, n, d = struct.unpack("<III", header)
    size, left = 32 * n + 4 * v * n * d, left - 12
    got = min(size, left)
    if got == size:
        payload = np.empty(size, dtype=np.uint8)
        got = fh.readinto(payload)
    if got != size:
        raise DataError(
            f"image {image_id}: truncated features file, expected {size} bytes of boxes and floats, got {got}"
        )
    return payload[: 32 * n].view("<f8").reshape(n, 4), payload[32 * n :].view("<f4").reshape(v, n, d), left - size


def save_dataset(ds: Dataset, path: str | Path):
    """Write the manifest JSON at `path` and the dataset's features file (`features_path`), which holds the boxes too.

    The manifest's bytes are those of json.dump(indent=1) and a newline.

    An image id that repeats another (as text) is a DataError, raised
    before anything is written; so are views `_check_views` refuses (none,
    or not (V, N, `ds.feat_dim`) for N boxes: a block's header gives one N
    for boxes and views). Both files are written through `replaced` in one
    `removed_on_failure` block, which joins the caller's if one is open:
    they are renamed into place together, and if the save fails, their
    temporary files and the features directory (if this call made it) are
    removed.
    """
    seen = set()
    for position, bag in enumerate(ds.images):
        if str(bag.id) in seen:
            raise DataError(f"image {position} ({str(bag.id)!r}): id repeats an earlier image's")
        seen.add(str(bag.id))
        _check_views(bag, ds.feat_dim)
    path = Path(path)
    features = features_path(path)
    records = [
        {
            "id": bag.id,
            "labels": bag.labels.tolist(),
            "ground_truth": [
                {"class": c, "box": box} for c, box in zip(bag.gt_classes.tolist(), bag.gt_boxes.tolist())
            ],
            "views": len(bag.views),
        }
        for bag in ds.images
    ]
    manifest = {"c": ds.num_classes, "d": ds.feat_dim, "class_names": ds.class_names,
                "features": f"{features.parent.name}/{features.name}", "images": records}
    with removed_on_failure():
        with replaced(features, "wb") as fh:
            fh.write(FEATURE_MAGIC + struct.pack("<HI", FEATURE_VERSION, len(ds.images)))
            for bag in ds.images:
                views = np.ascontiguousarray(bag.views, dtype="<f4")  # a bag's own float32 views: no copy
                fh.write(struct.pack("<III", *views.shape))
                fh.write(np.ascontiguousarray(bag.boxes, dtype="<f8").data)
                fh.write(views.data)
        with replaced(path) as fh:
            fh.write(json.dumps(manifest, indent=1) + "\n")


def _positive_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise DataError(f"{what} must be a positive integer, got {value!r}")
    return value


def _boxes_from_json(rows, what: str) -> np.ndarray:
    """JSON [x1, y1, x2, y2] rows as an (N, 4) float64 array; anything but four numbers a row is a DataError.

    Only JSON numbers count: `np.array(rows, float)` alone would also take
    `true` as 1.0 and "0.5" as 0.5. Finite, ordered coordinates are checked
    by the caller.
    """
    try:
        four = set(map(len, rows)) <= {4}
    except TypeError:  # a row without a length
        four = False
    if not four:
        raise DataError(f"{what}: every row must be a list of four numbers")
    coords = list(itertools.chain.from_iterable(rows))
    kinds = set(map(type, coords))
    if not kinds <= {int, float}:
        raise DataError(f"{what}: coordinates must be numbers, found {sorted(k.__name__ for k in kinds)}")
    try:
        return np.array(coords, dtype=np.float64).reshape(-1, 4)
    except OverflowError as err:  # an integer beyond the float range
        raise DataError(f"{what}: {err}") from err


def load_dataset(path: str | Path) -> Dataset:
    """Load and fully validate a dataset; errors name the offending image, or the file.

    Every image's id must differ from every other's as text (`str(id)`),
    the rule `save_dataset` writes by. The manifest is read with one
    json.load; the features file it names is opened once, its header
    checked against the manifest's image count, and each image's proposal
    boxes and views read from its block (`_read_block`). The file must end
    exactly after the last block. The returned dataset's `features_file` is
    the features file's identity.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError, RecursionError) as err:  # not JSON or not UTF-8; nested deeper than json goes
        raise DataError(f"cannot load dataset manifest {path}: {err}") from err

    if not isinstance(manifest, dict):
        raise DataError(f"dataset manifest {path} must be a JSON object, got {type(manifest).__name__}")
    for key in ("c", "d", "class_names", "features", "images"):
        if key not in manifest:
            raise DataError(f"dataset manifest {path} missing key '{key}'")
    num_classes = _positive_int(manifest["c"], "manifest key 'c'")
    feat_dim = _positive_int(manifest["d"], "manifest key 'd'")
    class_names = manifest["class_names"]
    if not isinstance(class_names, list) or not all(isinstance(name, str) for name in class_names):
        raise DataError(f"manifest key 'class_names' must be a list of strings, got {_SHOWN.repr(class_names)}")
    if not isinstance(manifest["images"], list):
        raise DataError(f"manifest key 'images' must be a list, got {type(manifest['images']).__name__}")
    if not isinstance(manifest["features"], str):
        raise DataError(f"manifest key 'features' must be a path string, got {_SHOWN.repr(manifest['features'])}")

    features = path.parent / manifest["features"]
    try:
        fh = open(features, "rb")
    except (OSError, ValueError) as err:  # ValueError: a NUL, or a name the filesystem encoding cannot hold
        raise DataError(f"cannot read features file {features}: {err}") from err
    with fh:
        try:
            stat = os.fstat(fh.fileno())
            images = _load_images(manifest["images"], fh, stat.st_size, features)
        except OSError as err:
            raise DataError(f"cannot read features file {features}: {err}") from err
    ds = Dataset(num_classes, feat_dim, class_names, images, (stat.st_dev, stat.st_ino))
    ds.validate()
    return ds


def _load_images(records: list, fh, size: int, features: Path) -> list[ImageBag]:
    """The bags of the manifest's image `records`, their arrays read from `fh`, the features file at `features`."""
    header = fh.read(10)
    if header[:4] != FEATURE_MAGIC:
        raise DataError(f"features file {features}: bad magic {header[:4]!r}")
    if len(header) < 10:
        raise DataError(f"features file {features}: truncated header, {len(header)} bytes")
    version, count = struct.unpack_from("<HI", header, 4)
    if version != FEATURE_VERSION:
        raise DataError(f"features file {features}: unsupported version {version}")
    if count != len(records):
        raise DataError(f"features file {features} holds {count} images, the manifest {len(records)}")
    images, left = [], size - len(header)
    positions: dict[str, int] = {}  # str(id) -> position of the first image with it
    for position, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise DataError(f"image record {position} must be an object, got {type(rec).__name__}")
        image_id = rec.get("id", "<missing id>")
        first = positions.setdefault(str(image_id), position)
        if first != position:
            raise DataError(f"image {position} ({str(image_id)!r}): id repeats image {first}'s")
        missing = [key for key in ("labels", "views") if key not in rec]
        if missing:
            raise DataError(f"image {image_id}: record missing {', '.join(missing)}")
        gt_records = rec.get("ground_truth", [])
        try:
            classes, gt_rows = [g["class"] for g in gt_records], [g["box"] for g in gt_records]
        except (TypeError, KeyError) as err:
            raise DataError(f"image {image_id}: bad ground-truth record: {err}") from err
        if any(type(c) is not int for c in classes):
            raise DataError(f"image {image_id}: ground-truth classes must be integers, got {_SHOWN.repr(classes)}")
        gt_boxes = _boxes_from_json(gt_rows, f"image {image_id}: ground-truth boxes").tolist()
        labels = rec["labels"]
        if not isinstance(labels, list) or any(type(x) is not int or x not in (0, 1) for x in labels):
            raise DataError(f"image {image_id}: labels must be a list of 0/1 integers, got {_SHOWN.repr(labels)}")
        n_views = _positive_int(rec["views"], f"image {image_id}: views")
        boxes, views, left = _read_block(fh, left, image_id)
        if len(views) != n_views:
            raise DataError(f"image {image_id}: manifest declares {n_views} views, features file has {len(views)}")
        try:
            bag = ImageBag(id=str(image_id), boxes=boxes, views=views, labels=np.asarray(labels, dtype=np.int64),
                           ground_truth=zip(classes, gt_boxes))
        except OverflowError as err:  # a class beyond the range of `gt_classes`
            raise DataError(f"image {image_id}: ground-truth class out of range: {err}") from err
        images.append(bag)
    if left:
        raise DataError(f"features file {features}: {left} bytes after the last image's block")
    return images
