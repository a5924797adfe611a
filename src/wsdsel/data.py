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
loop would, and nothing is put back. The candidates are handed to the boxes
in stream order, with each box's try count carried across rounds, so a box
gives up after exactly as many tries as it would alone: a cluster box then
becomes a copy of its ground truth (30 tries), a background box keeps its
last try (20 tries). The boxes, and the generator state left behind, are
the same bytes as one scalar loop per box.

The rounds run over a batch of images: consecutive images holding at most
SAMPLE_ROWS proposals, one image at least. `_sample_batch` draws each
image's object count and ground truth, then the cluster rounds of the whole
batch, each image's context boxes, the background rounds of the whole
batch, and each image's permutation. In a batch's round every open image
makes the `rng.random` call it would make alone, on its own generator; the
tries of all of them are concatenated and judged at once, each against its
own image's ground truth, with `iou_pairs`, whose entries are `iou`'s bit
for bit. A background try is judged against every ground-truth box of its
image, the images' boxes padded to the batch's largest object count with
OFF_CANVAS boxes, whose IoU with any try is 0. A cluster round hands each
image its tries at once. So does a background round, except to an image
one of whose boxes reaches its 20-try cap in the round: that image walks
its round try by try.

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
The images leave the batches one by one (`_sampled`), each with its (N, C)
overlap computed as it leaves, so a batch's temporaries are all that the
sampling holds beyond the images. Where the head's gate,
`head._worker_for(N*D*views, FEATURE_SPLIT_MIN)`, gives its worker (N*D*views
of at least 2^16 on at least two usable CPUs), `generate_synthetic` takes
images i and i+1 (sampling the next batch first where i+1 begins one), then
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
from wsdsel.geometry import BBox, box_array, iou, iou_matrix, iou_pairs

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
# The generator samples boxes over batches of consecutive images holding at most this many proposals (one
# image at least), so its round temporaries stay bounded however many images a dataset has.
SAMPLE_ROWS = 1 << 14
# What each image's ground truth is padded with in a batch's background rounds: IoU 0 with any box on the canvas.
OFF_CANVAS = (2.0, 2.0, 3.0, 3.0)
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
    """A jittered copy of each row of `gt` (M, 4): `_cluster_rounds` on a batch of one image.

    Box i is rejection-sampled at relative magnitude `scales[i]` until a try
    is not degenerate and has IoU >= `min_iou[i]` with `gt[i]` (at a
    `min_iou` of 0 or less, any box that is not degenerate passes); after
    `tries` failed tries it is a copy of `gt[i]`.
    """
    return _cluster_rounds([rng], gt, scales, min_iou, [len(gt)], tries)


def _cluster_rounds(rngs, gt, scales, min_iou, counts, tries: int = 30) -> np.ndarray:
    """The cluster boxes of a batch of images, drawn in rounds, each image's from its own generator in `rngs`.

    `gt` (M, 4), `scales` and `min_iou` hold one row per box, image after
    image, `counts[i]` of them for image i; each box is drawn as
    `_cluster_boxes` says (see the module docstring). A try is judged at its
    own box, so an image's round takes its tries up to the first rejected
    one and carries the rest into its next round, shifted onto the boxes
    they then belong to.
    """
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 4)
    out = np.empty((len(gt), 4))
    end = np.cumsum(counts, dtype=np.intp)
    done = end - counts  # each image's next box, as a row
    tried = np.zeros(len(end), dtype=np.intp)  # that box's rejected tries
    u, carried = np.empty((0, 4)), np.zeros(len(end), dtype=np.intp)  # tries carried over, image after image; how many
    live = np.flatnonzero(done < end)
    while live.size:
        need = end[live] - done[live]
        pieces, at = [], 0  # each open image's carried tries, then its new ones
        for i, have, want in zip(live.tolist(), carried[live].tolist(), need.tolist()):
            pieces.append(u[at : at + have])
            if have < want:
                pieces.append(rngs[i].random((want - have, 4)))
            at += have
        t = np.concatenate(pieces)
        start = np.cumsum(need) - need  # each open image's first try in `t`
        local = np.arange(len(t)) - np.repeat(start, need)
        rows = local + np.repeat(done[live], need)  # each try's box, as a row of `gt`
        box = gt[rows]
        cand = np.stack(_jitter(box.T, scales[rows], t.T), axis=1)
        rejected = (cand[:, 2] - cand[:, 0] < 1e-3) | (cand[:, 3] - cand[:, 1] < 1e-3)
        rejected |= iou_pairs(cand, box) < min_iou[rows]  # never at a floor of 0 or less: an IoU is 0 or more
        stop = np.append(np.flatnonzero(rejected), len(t))
        r = np.minimum(stop[np.searchsorted(stop, start)] - start, need)  # tries taken: up to the first rejected one
        cut = np.repeat(r, need)
        taken = local < cut
        out[rows[taken]] = cand[taken]
        u, carried[live] = t[local > cut], np.maximum(need - r - 1, 0)
        done[live] += r
        tried[live] = np.where(r == 0, tried[live] + 1, 1)
        copied = live[(tried[live] == tries) & (done[live] < end[live])]  # every try failed: the ground-truth copy
        out[done[copied]] = gt[done[copied]]
        done[copied] += 1
        tried[copied] = 0
        live = live[done[live] < end[live]]
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
    """`count` boxes, each with IoU below 0.3 with every ground-truth box: `_background_rounds` on a batch of one image.

    Each box is rejection-sampled and keeps its last try if all `tries` fail.
    """
    return _background_rounds([rng], np.asarray(gt_boxes, dtype=np.float64).reshape(1, -1, 4), [count], tries)


def _background_rounds(rngs, gt: np.ndarray, counts, tries: int = 20) -> np.ndarray:
    """The background boxes of a batch of images, drawn in rounds, each image's from its own generator in `rngs`.

    Image i takes `counts[i]` boxes, drawn as `_background_boxes` says
    against its ground truth `gt[i]`, where `gt` (B, K, 4) pads each image's
    boxes with OFF_CANVAS ones (see the module docstring). A try's verdict
    does not depend on its box, so an image's round hands out all its tries
    in stream order: each box takes them up to its first accepted one or its
    last one, and the next box starts after it.
    """
    out = np.empty((sum(counts), 4))
    end = np.cumsum(counts, dtype=np.intp)
    done = end - counts  # each image's next box, as a row
    tried = np.zeros(len(end), dtype=np.intp)  # that box's rejected tries
    live = np.flatnonzero(done < end)
    while live.size:
        need = end[live] - done[live]
        uw, uh, ux, uy = np.concatenate([rngs[i].random((m, 4)) for i, m in zip(live.tolist(), need.tolist())]).T
        w = _uniform(0.05, 0.5, uw)
        h = _uniform(0.05, 0.5, uh)
        x1 = _uniform(0.0, 1.0 - w, ux)
        y1 = _uniform(0.0, 1.0 - h, uy)
        cand = np.stack((x1, y1, x1 + w, y1 + h), axis=1)
        ok = (iou_pairs(cand[:, None], gt[np.repeat(live, need)]) < 0.3).all(axis=1)
        start = np.cumsum(need) - need  # each open image's first try in `cand`
        # Each box ends at an accepted try and begins after the one before it, or, at its image's first
        # accepted try, with the tries the image carries over: an earlier image's accepted try is no bound.
        stops = np.flatnonzero(ok)
        image = np.searchsorted(start, stops, side="right") - 1  # each accepted try's open image
        begins = np.roll(stops, 1) + 1
        first = np.diff(image, prepend=-1) != 0
        begins[first] = start[image[first]] - tried[live[image[first]]]
        last = np.append(-1, stops)[np.searchsorted(stops, start + need)]  # each image's last accepted try, if any
        tail = start + need - np.where(last >= start, last + 1, start - tried[live])  # the tries of its box left open
        capped = tail >= tries
        capped[image[stops - begins >= tries]] = True  # a box whose tries ran out before its accepted one
        # The common case, all at once: each accepted try is its image's next box.
        fine = ~capped[image]
        rank = np.arange(len(stops)) - np.searchsorted(stops, start)[image]
        out[(done[live][image] + rank)[fine]] = cand[stops[fine]]
        done[live[~capped]] += np.bincount(image, minlength=len(live))[~capped]
        tried[live[~capped]] = tail[~capped]
        # An image with a box that reaches its cap walks its round try by try, as the box-by-box loop would.
        for s in np.flatnonzero(capped).tolist():
            i = live[s]
            at, run = int(done[i]), int(tried[i])
            for j in range(start[s], start[s] + need[s]):
                run += 1
                if ok[j] or run == tries:  # the box ends at its accepted try, or keeps its last one
                    out[at] = cand[j]
                    at, run = at + 1, 0
            done[i], tried[i] = at, run
        live = live[done[live] < end[live]]
    return out


def _cluster_layout(k: int, n: int, n_context: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The clusters of an image with `k` objects: boxes per object, and each box's scale and IoU floor.

    Per object, tight to loose overlap; the first member is forced tight so
    a correct localization always exists.
    """
    per_obj = max(k, (n - n_context) // 2) // k
    scales = np.tile(np.append(0.05, 0.08 + 0.62 * np.arange(1, per_obj) / per_obj), k)
    min_iou = np.tile(np.append(0.7, np.zeros(per_obj - 1)), k)
    return per_obj, scales, min_iou


def _sample_batch(cfg: SynthConfig, ids: range, layouts: dict) -> list[tuple]:
    """The boxes of images `ids`, sampled as one batch (see the module docstring).

    Per image: (rng, ground truth as (class, box) pairs, its (K, 4) boxes,
    the (N, 4) proposals, the (N,) context mask), its generator positioned
    at its noise. `layouts` keeps `_cluster_layout` by object count.
    """
    n = cfg.proposals_per_image
    n_context = round(cfg.context_fraction * n)
    rngs, gts = [], []
    for i in ids:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1, i)))
        k = int(rng.integers(cfg.objects_min, cfg.objects_max + 1))
        rngs.append(rng)
        gts.append([(int(rng.integers(cfg.num_classes)), _random_gt_box(rng)) for _ in range(k)])
    ks = np.array([len(gt) for gt in gts])
    gt_boxes = np.array([box for gt in gts for _, box in gt])  # image after image
    for k in set(ks.tolist()) - layouts.keys():
        layouts[k] = _cluster_layout(k, n, n_context)
    per_obj, scales, min_iou = zip(*(layouts[k] for k in ks.tolist()))
    n_cluster = ks * per_obj
    # Clusters and context boxes never hold more than n boxes (SynthConfig checks it).
    clusters = np.split(_cluster_rounds(rngs, np.repeat(gt_boxes, np.repeat(per_obj, ks), axis=0),
                                        np.concatenate(scales), np.concatenate(min_iou), n_cluster),
                        np.cumsum(n_cluster)[:-1])
    gt_arrays = np.split(gt_boxes, np.cumsum(ks)[:-1])
    # From blocks of raw outputs: each context box's rng.integers(k) reads a 32-bit half
    # between the double draws of the tries, so both are rebuilt from the one stream.
    contexts = [_context_boxes(rng, gt, n_context) for rng, gt in zip(rngs, gt_arrays)]
    padded = np.full((len(ids), ks.max(), 4), OFF_CANVAS)
    for rows, gt in zip(padded, gt_arrays):
        rows[: len(gt)] = gt
    n_background = n - n_cluster - n_context
    backgrounds = np.split(_background_rounds(rngs, padded, n_background), np.cumsum(n_background)[:-1])
    proposals = map(np.concatenate, zip(clusters, contexts, backgrounds))
    out = []
    for rng, gt, gt_array, boxes, m in zip(rngs, gts, gt_arrays, proposals, n_cluster.tolist()):
        perm = rng.permutation(n)
        out.append((rng, gt, gt_array, boxes[perm], (perm >= m) & (perm < m + n_context)))
    return out


def _sampled(cfg: SynthConfig):
    """Each image `i` in order, as (bag, (rng, overlap, is_context, views)): what its features are drawn from.

    The boxes are sampled a batch of images at a time, each batch holding at
    most SAMPLE_ROWS proposals (one image at least). The bag's (V, N, D)
    float32 views are allocated and left unfilled; `rng` is the image's
    generator, positioned at its noise, and `overlap` each region's best IoU
    with a ground-truth box of each class, (N, C), computed as the image is
    handed out.
    """
    layouts = {}
    step = max(1, SAMPLE_ROWS // cfg.proposals_per_image)
    for first in range(0, cfg.n_images, step):
        ids = range(first, min(first + step, cfg.n_images))
        for i, (rng, gt, gt_array, boxes, is_context) in zip(ids, _sample_batch(cfg, ids, layouts)):
            ious = iou_matrix(boxes, gt_array)
            overlap = np.zeros((len(boxes), cfg.num_classes))
            for t, (class_id, _) in enumerate(gt):
                np.maximum(overlap[:, class_id], ious[:, t], out=overlap[:, class_id])
            views = np.empty((cfg.n_views, len(boxes), cfg.feat_dim), dtype=np.float32)
            labels = np.zeros(cfg.num_classes, dtype=np.int64)
            labels[[c for c, _ in gt]] = 1
            bag = ImageBag(id=f"im{i:05d}", boxes=boxes, views=views, labels=labels, ground_truth=gt)
            yield bag, (rng, overlap, is_context, views)


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

    images, sampled = [], _sampled(cfg)
    for bag, draw in sampled:
        images.append(bag)
        after = next(sampled, None) if split else None
        if after:
            images.append(after[0])
            worker.beside(lambda: features(*draw, *buffers[1]), lambda: features(*after[1], *buffers[0]))
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


def _json_list(items: list[str], indent: str) -> str:
    """A list of encoded JSON `items` as json.dumps(indent=1) lays it out, each item at `indent`."""
    return f"[\n{indent}" + f",\n{indent}".join(items) + f"\n{indent[1:]}]" if items else "[]"


def _manifest_text(ds: Dataset, features: str) -> str:
    """The text of `ds`'s manifest, naming the features file `features`: json.dumps(manifest, indent=1) and a newline.

    json lays out an indented manifest with its pure-Python encoder, so a
    manifest of the usual types (int `c` and `d`, str class names and ids,
    integer labels, finite ground-truth boxes) is laid out here instead:
    each string by json's own escape, each number by its `repr`, as json
    writes them. Any other is handed to json.
    """
    gt_boxes = [bag.gt_boxes for bag in ds.images]
    if not (
        type(ds.num_classes) is int and type(ds.feat_dim) is int
        and all(type(name) is str for name in ds.class_names)
        and all(type(bag.id) is str and bag.labels.dtype.kind in "iu" for bag in ds.images)
        and np.isfinite(np.concatenate([np.empty((0, 4)), *gt_boxes])).all()
    ):
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
        manifest = {"c": ds.num_classes, "d": ds.feat_dim, "class_names": ds.class_names, "features": features,
                    "images": records}
        return json.dumps(manifest, indent=1) + "\n"
    string = json.encoder.encode_basestring_ascii
    # "%d" and "%r" write an int and a float by int.__repr__ and float.__repr__, as json does.
    gt_record = '{\n     "class": %d,\n     "box": [\n      %r,\n      %r,\n      %r,\n      %r\n     ]\n    }'
    records = []
    for bag, boxes in zip(ds.images, gt_boxes):
        labels = _json_list(list(map(str, bag.labels.tolist())), "    ")
        gt = _json_list([gt_record % (c, *box) for c, box in zip(bag.gt_classes.tolist(), boxes.tolist())], "    ")
        records.append(f'{{\n   "id": {string(bag.id)},\n   "labels": {labels},\n   "ground_truth": {gt},\n'
                       f'   "views": {len(bag.views)}\n  }}')
    return (f'{{\n "c": {ds.num_classes},\n "d": {ds.feat_dim},\n'
            f' "class_names": {_json_list(list(map(string, ds.class_names)), "  ")},\n'
            f' "features": {string(features)},\n "images": {_json_list(records, "  ")}\n}}\n')


def save_dataset(ds: Dataset, path: str | Path):
    """Write the manifest JSON at `path` and the dataset's features file (`features_path`), which holds the boxes too.

    The manifest's bytes are those of json.dump(indent=1) and a newline
    (`_manifest_text`).

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
    text = _manifest_text(ds, f"{features.parent.name}/{features.name}")
    with removed_on_failure():
        with replaced(features, "wb") as fh:
            fh.write(FEATURE_MAGIC + struct.pack("<HI", FEATURE_VERSION, len(ds.images)))
            for bag in ds.images:
                views = np.ascontiguousarray(bag.views, dtype="<f4")  # a bag's own float32 views: no copy
                fh.write(struct.pack("<III", *views.shape))
                fh.write(np.ascontiguousarray(bag.boxes, dtype="<f8").data)
                fh.write(views.data)
        with replaced(path) as fh:
            fh.write(text)


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
