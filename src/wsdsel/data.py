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
arrays alike, the writer formats them row by row and evaluation reads them
as they are. `ImageBag.proposals` and `ImageBag.ground_truth` build `BBox`
objects from them only when asked.

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
state left behind, are the same bytes as one scalar loop per box. Only the
context boxes stay scalar: each one first calls `rng.integers(k)`, which
reads the half of a 64-bit output that PCG64 keeps buffered between the
double draws, so drawing them in any other order would move the stream.

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
Dataset manifest (JSON): top level {c, d, class_names, images: [{id,
labels, proposals, ground_truth, feature_file, views}]}, with proposals as
[x1, y1, x2, y2] rows and ground_truth as {class, box} records.

Feature sidecar (binary, one per image): magic "WSDF", version as u16 LE,
then V, N, D as u32 LE, then V*N*D row-major float32 LE.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wsdsel import head
from wsdsel.errors import ConfigError, DataError
from wsdsel.geometry import BBox, box_array, iou, iou_matrix

FEATURE_MAGIC = b"WSDF"
FEATURE_VERSION = 1
# The smallest per-image N*D*views at which generation draws features on two threads (see the module docstring).
FEATURE_SPLIT_MIN = 1 << 16
# Noise entries drawn per chunk: 256 KB of float64 per thread, a buffer that stays in cache.
NOISE_CHUNK = 1 << 15


class ImageBag:
    """One image: proposal boxes, per-region features (one or more views), labels, ground truth.

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
        views: list[np.ndarray],  # V arrays, each (N, D) float32
        labels: np.ndarray,  # (C,) ints in {0, 1}
        ground_truth: Iterable[tuple[int, BBox | Box]] | None = None,
        boxes: np.ndarray | None = None,
        proposals: list[BBox] | None = None,
    ):
        if (boxes is None) == (proposals is None):
            raise ValueError("an ImageBag takes its proposals as either `boxes` or `proposals`")
        self.id = id
        self.boxes = box_array(proposals) if boxes is None else np.asarray(boxes, dtype=np.float64)
        self.views = views
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

    def validate(self):
        """Raise a DataError that names the image at the first fault found.

        Shapes and views are checked image by image. The box coordinates,
        the 0/1 labels and the ground-truth classes of all images are
        checked at once, over their concatenated arrays, and only if that
        fails image by image, for the message. So where several images
        fail, a shape or view fault is named before a value fault.
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
            if not bag.views:
                raise DataError(f"image {bag.id}: no feature views")
            for view in bag.views:
                if view.shape != (n, self.feat_dim):
                    raise DataError(
                        f"image {bag.id}: view shape {view.shape} != ({n}, {self.feat_dim})"
                    )
                if not np.isfinite(view).all():
                    raise DataError(f"image {bag.id}: non-finite feature values")
        boxes = np.concatenate([bag.boxes for bag in self.images] + [bag.gt_boxes for bag in self.images])
        classes = np.concatenate([bag.gt_classes for bag in self.images])
        if not (
            np.isfinite(boxes).all()
            and (boxes[:, :2] < boxes[:, 2:]).all()  # x1 < x2, y1 < y2
            and np.isin(np.concatenate([bag.labels for bag in self.images]), (0, 1)).all()
            and ((classes >= 0) & (classes < self.num_classes)).all()
        ):
            for bag in self.images:  # the first image that fails names the fault
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


def _context_box(rng: np.random.Generator, gt: Box, tries: int = 30) -> Box:
    """An oversized box around `gt`: contains most of it, IoU below 0.5."""
    gx1, gy1, gx2, gy2 = gt
    for _ in range(tries):
        uf, ux, uy = rng.random(3).tolist()
        f = _uniform(1.5, 2.4, uf)
        w, h = (gx2 - gx1) * f, (gy2 - gy1) * f
        cx = (gx1 + gx2) / 2 + _uniform(-0.15, 0.15, ux) * w
        cy = (gy1 + gy2) / 2 + _uniform(-0.15, 0.15, uy) * h
        x1, x2 = max(0.0, cx - w / 2), min(1.0, cx + w / 2)
        y1, y2 = max(0.0, cy - h / 2), min(1.0, cy + h / 2)
        if x2 - x1 < 1e-3 or y2 - y1 < 1e-3:
            continue
        cand = (x1, y1, x2, y2)
        if iou(cand, gt) < 0.5:
            return cand
    return tuple(_cluster_boxes(rng, np.array([gt]), np.array([0.8]), np.zeros(1))[0].tolist())


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

    The bag's views are allocated and left unfilled. The second item is
    (rng, overlap, is_context, views): the image's generator, positioned at
    its noise, each region's best IoU with a ground-truth box of each
    class, (N, C), the (N,) context mask, and the views to fill.
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
    # One at a time: each context box's rng.integers call reads a buffered half of the
    # generator's 64-bit output between the double draws, so batching would move the stream.
    for row in range(n_cluster, n_cluster + n_context):
        proposals[row] = _context_box(rng, gt_boxes[int(rng.integers(k))])
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
    views = [np.empty((n, cfg.feat_dim), dtype=np.float32) for _ in range(cfg.n_views)]
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


def _write_sidecar(path: Path, views: list[np.ndarray]):
    v = len(views)
    n, d = views[0].shape
    stacked = np.stack(views, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC + struct.pack("<HIII", FEATURE_VERSION, v, n, d))
        fh.write(stacked.data)


def _read_sidecar(path: Path, image_id: str) -> list[np.ndarray]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read(18)
            # The floats are read straight into the one array the views share: no copy, no zero fill.
            payload = np.empty(max(0, os.fstat(fh.fileno()).st_size - len(raw)), dtype=np.uint8)
            payload = payload[: fh.readinto(payload)]
    except OSError as err:
        raise DataError(f"image {image_id}: cannot read feature sidecar {path}: {err}") from err
    if raw[:4] != FEATURE_MAGIC:
        raise DataError(f"image {image_id}: bad sidecar magic {raw[:4]!r}")
    if len(raw) < 18:
        raise DataError(f"image {image_id}: truncated feature sidecar header, {len(raw)} bytes")
    (version,) = struct.unpack_from("<H", raw, 4)
    if version != FEATURE_VERSION:
        raise DataError(f"image {image_id}: unsupported sidecar version {version}")
    v, n, d = struct.unpack_from("<III", raw, 6)
    expected = 4 * v * n * d
    if len(payload) != expected:
        raise DataError(
            f"image {image_id}: truncated feature sidecar, expected {expected} bytes of floats, got {len(payload)}"
        )
    return list(payload.view("<f4").reshape(v, n, d))


# Where an image's proposal rows go in its record's text. In json's output a quote not preceded by
# a backslash always opens or closes a string, so this can only be the record's key "proposals"
# holding the string "\0", the placeholder the writer puts there.
_PROPOSALS_SLOT = '"proposals": "\\u0000"'
# One proposal row as json.dump(indent=1) lays it out at its depth in the manifest.
_ROW = "    [\n     %r,\n     %r,\n     %r,\n     %r\n    ]"


def _proposals_json(boxes: np.ndarray) -> str:
    """The manifest text of an image's proposal rows, byte for byte what json.dump(indent=1) writes for them.

    Finite coordinates are written with `%r`, which is the `float.__repr__`
    json uses; rows with a non-finite coordinate (json's NaN, Infinity), no
    rows or rows of another shape are left to json itself.
    """
    if boxes.shape[1:] != (4,) or not len(boxes) or not np.isfinite(boxes).all():
        return json.dumps(boxes.tolist(), indent=1).replace("\n", "\n   ")
    return "[\n" + ",\n".join([_ROW] * len(boxes)) % tuple(boxes.ravel().tolist()) + "\n   ]"


def save_dataset(ds: Dataset, path: str | Path):
    """Write the manifest JSON at `path` plus one feature sidecar per image.

    The manifest's bytes are those of json.dump(indent=1). Its list of image
    records comes last; each record is encoded on its own, with a
    placeholder for its proposals whose rows are then formatted into it,
    and written as it is made, so that one image's text exists at a time.

    An image id names its sidecar file, so an id that is empty, `.` or `..`,
    holds `/`, `\\` or NUL, or repeats another is a DataError, raised before
    anything is written. The manifest file is opened before any sidecar is
    written, so a manifest path that cannot be opened leaves no sidecar. If
    a sidecar cannot be written, the manifest, every sidecar path this call
    wrote or was writing and the features directory, if this call made it,
    are removed again.
    """
    seen = set()
    for position, bag in enumerate(ds.images):
        name = str(bag.id)
        if name in ("", ".", "..") or any(ch in name for ch in "/\\\0"):
            raise DataError(f"image {position} ({name!r}): id cannot name a feature file")
        if name in seen:
            raise DataError(f"image {position} ({name!r}): id repeats an earlier image's")
        seen.add(name)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    feat_dir_name = path.stem + "_features"
    feat_dir = path.parent / feat_dir_name
    head = json.dumps({"c": ds.num_classes, "d": ds.feat_dim, "class_names": ds.class_names, "images": []}, indent=1)
    with open(path, "w") as fh:
        made_dir = not feat_dir.exists()
        written = []
        try:
            feat_dir.mkdir(exist_ok=True)
            for bag in ds.images:
                written.append(feat_dir / f"{bag.id}.wsdf")
                _write_sidecar(written[-1], bag.views)
        except BaseException:
            for sidecar in written:
                if sidecar.is_file():  # not a directory that stood where the sidecar goes
                    sidecar.unlink()
            if made_dir and feat_dir.is_dir():
                feat_dir.rmdir()
            path.unlink(missing_ok=True)
            raise
        fh.write(head.removesuffix("[]\n}"))
        separator = "[\n  "
        for bag in ds.images:
            record = {
                "id": bag.id,
                "labels": bag.labels.tolist(),
                "proposals": "\0",
                "ground_truth": [
                    {"class": c, "box": box} for c, box in zip(bag.gt_classes.tolist(), bag.gt_boxes.tolist())
                ],
                "feature_file": f"{feat_dir_name}/{bag.id}.wsdf",
                "views": len(bag.views),
            }
            # Indented two levels deeper: the record sits in the manifest's "images" list.
            before, after = json.dumps(record, indent=1).replace("\n", "\n  ").split(_PROPOSALS_SLOT)
            fh.write(f'{separator}{before}"proposals": {_proposals_json(bag.boxes)}{after}')
            separator = ",\n  "
        fh.write("\n ]\n}\n" if ds.images else "[]\n}\n")


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
    if not isinstance(rows, list):
        raise DataError(f"{what} must be a list of [x1, y1, x2, y2] rows, got {type(rows).__name__}")
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
    """Load and fully validate a dataset; errors name the offending image.

    Every image's id must differ from every other's as text (`str(id)`),
    the rule `save_dataset` writes by.
    """
    path = Path(path)
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as err:  # ValueError: not JSON, or not UTF-8
        raise DataError(f"cannot load dataset manifest {path}: {err}") from err

    if not isinstance(manifest, dict):
        raise DataError(f"dataset manifest {path} must be a JSON object, got {type(manifest).__name__}")
    for key in ("c", "d", "class_names", "images"):
        if key not in manifest:
            raise DataError(f"dataset manifest missing key '{key}'")
    num_classes = _positive_int(manifest["c"], "manifest key 'c'")
    feat_dim = _positive_int(manifest["d"], "manifest key 'd'")
    class_names = manifest["class_names"]
    if not isinstance(class_names, list) or not all(isinstance(name, str) for name in class_names):
        raise DataError(f"manifest key 'class_names' must be a list of strings, got {class_names!r}")

    if not isinstance(manifest["images"], list):
        raise DataError(f"manifest key 'images' must be a list, got {type(manifest['images']).__name__}")
    images = []
    positions: dict[str, int] = {}  # str(id) -> position of the first image with it
    for position, rec in enumerate(manifest["images"]):
        if not isinstance(rec, dict):
            raise DataError(f"image record {position} must be an object, got {type(rec).__name__}")
        image_id = rec.get("id", "<missing id>")
        first = positions.setdefault(str(image_id), position)
        if first != position:
            raise DataError(f"image {position} ({str(image_id)!r}): id repeats image {first}'s")
        missing = [key for key in ("proposals", "labels", "feature_file", "views") if key not in rec]
        if missing:
            raise DataError(f"image {image_id}: record missing {', '.join(missing)}")
        boxes = _boxes_from_json(rec["proposals"], f"image {image_id}: proposals")
        records = rec.get("ground_truth", [])
        try:
            classes, gt_rows = [g["class"] for g in records], [g["box"] for g in records]
        except (TypeError, KeyError) as err:
            raise DataError(f"image {image_id}: bad ground-truth record: {err}") from err
        if any(type(c) is not int for c in classes):
            raise DataError(f"image {image_id}: ground-truth classes must be integers, got {classes!r}")
        gt_boxes = _boxes_from_json(gt_rows, f"image {image_id}: ground-truth boxes").tolist()
        labels = rec["labels"]
        if not isinstance(labels, list) or any(type(x) is not int or x not in (0, 1) for x in labels):
            raise DataError(f"image {image_id}: labels must be a list of 0/1 integers, got {labels!r}")
        n_views = _positive_int(rec["views"], f"image {image_id}: views")
        if not isinstance(rec["feature_file"], str):
            raise DataError(f"image {image_id}: feature_file must be a path string, got {rec['feature_file']!r}")
        views = _read_sidecar(path.parent / rec["feature_file"], image_id)
        if len(views) != n_views:
            raise DataError(
                f"image {image_id}: manifest declares {rec['views']} views, sidecar has {len(views)}"
            )
        try:
            bag = ImageBag(id=str(image_id), boxes=boxes, views=views, labels=np.asarray(labels, dtype=np.int64),
                           ground_truth=zip(classes, gt_boxes))
        except OverflowError as err:  # a class beyond the range of `gt_classes`
            raise DataError(f"image {image_id}: ground-truth class out of range: {err}") from err
        images.append(bag)
    ds = Dataset(num_classes=num_classes, feat_dim=feat_dim, class_names=class_names, images=images)
    ds.validate()
    return ds
