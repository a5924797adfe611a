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
each by rejection sampling: the tight first box of each cluster, then the
cluster's loose boxes, then the context boxes, then the background boxes.
Each try of a loose or background box reads four consecutive doubles, so
the tries of a run of such boxes form one stream of candidates, and the
samplers draw that stream in rounds rather than four doubles at a time. A
round holds one candidate for every box still needed, drawn with one
`rng.random` call; since every such box takes at least one more try, no
round reads past what the box-by-box loop would, and nothing is put back.
The candidates are judged at once and handed to the boxes in stream
order, with each box's try count carried across rounds, so a box gives up
after exactly as many tries as it would alone: a loose box then becomes a
copy of its ground truth (30 tries), a background box keeps its last try
(20 tries). The boxes, and the generator state left behind, are the same
bytes as one scalar loop per box. The tight boxes (k per image) stay
scalar, and so do the context boxes: each one first calls
`rng.integers(k)`, which reads the half of a 64-bit output that PCG64
keeps buffered between the double draws, so drawing them in any other
order would move the stream.

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
import os
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wsdsel.errors import ConfigError, DataError
from wsdsel.geometry import BBox, box_array, iou, iou_matrix

FEATURE_MAGIC = b"WSDF"
FEATURE_VERSION = 1


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
        if self.objects_max < self.objects_min:
            raise ConfigError("objects_max must be >= objects_min")
        if self.noise_sigma <= 0:
            raise ConfigError(f"noise_sigma must be > 0, got {self.noise_sigma}")
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


def _jitter(box: Box, scale, u):
    """`box` moved and resized at relative magnitude `scale` by uniforms u = (ux, uy, uw, uh), clipped to the canvas.

    Works alike on floats (one try) and on arrays (one try per element).
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


def _jittered(rng: np.random.Generator, box: Box, scale: float) -> Box | None:
    """Random translation and resize of `box` at relative magnitude `scale`; None if it comes out degenerate."""
    x1, y1, x2, y2 = map(float, _jitter(box, scale, rng.random(4).tolist()))
    if x2 - x1 < 1e-3 or y2 - y1 < 1e-3:
        return None
    return (x1, y1, x2, y2)


def _cluster_box(rng: np.random.Generator, gt: Box, scale: float, min_iou: float = 0.0, tries: int = 30) -> Box:
    """A jittered copy of `gt`, rejection-sampled until iou >= min_iou (at min_iou <= 0, any box passes)."""
    for _ in range(tries):
        cand = _jittered(rng, gt, scale)
        if cand is not None and (min_iou <= 0.0 or iou(cand, gt) >= min_iou):
            return cand
    return gt


def _loose_boxes(rng: np.random.Generator, gt: Box, scales: np.ndarray, tries: int = 30) -> np.ndarray:
    """`_cluster_box(rng, gt, scale)` for each of `scales` in turn, drawn in rounds (see the module docstring).

    A try is judged at its own box's scale, so a round takes its tries up to
    the first degenerate one and carries the rest into the next round,
    shifted onto the boxes they then belong to.
    """
    count = len(scales)
    out = np.empty((count, 4))
    done = tried = 0  # boxes finished; rejected tries of box `done`
    u = np.empty((0, 4))  # tries drawn for the boxes from `done` on
    while done < count:
        if len(u) < count - done:
            u = np.concatenate((u, rng.random((count - done - len(u), 4))))
        cand = np.stack(_jitter(gt, scales[done:], u.T), axis=1)
        degenerate = (cand[:, 2] - cand[:, 0] < 1e-3) | (cand[:, 3] - cand[:, 1] < 1e-3)
        r = int(degenerate.argmax()) if degenerate.any() else len(cand)
        out[done : done + r] = cand[:r]
        done += r
        if done == count:
            break
        tried = tried + 1 if r == 0 else 1
        if tried == tries:  # every try failed: the ground-truth copy
            out[done] = gt
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
    return _cluster_box(rng, gt, scale=0.8)


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


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Deterministic synthetic dataset; a pure function of the config.

    Per-image RNG streams are derived from (seed, image index), so per-image
    content does not depend on generation order.
    """
    proto_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    prototypes = _unit_rows(proto_rng, (cfg.num_classes, cfg.feat_dim))
    context_dir = _unit_rows(proto_rng, (cfg.feat_dim,))
    class_names = [f"class{i:02d}" for i in range(cfg.num_classes)]

    n = cfg.proposals_per_image
    n_context = round(cfg.context_fraction * n)
    # Each image's signal and each view's noise go into these two buffers: fresh (N, D) float64
    # temporaries per image fragment the heap between the float32 views that stay, and raise peak RSS.
    signal, noise = np.empty((n, cfg.feat_dim)), np.empty((n, cfg.feat_dim))
    images = []
    for i in range(cfg.n_images):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1, i)))
        k = int(rng.integers(cfg.objects_min, cfg.objects_max + 1))
        gt = [(int(rng.integers(cfg.num_classes)), _random_gt_box(rng)) for _ in range(k)]
        gt_boxes = [b for _, b in gt]

        # Per-object clusters spanning tight to loose overlap; the first
        # member is forced tight so a correct localization always exists.
        # Clusters and context boxes never hold more than n boxes (SynthConfig checks it).
        proposals = np.empty((n, 4))
        cluster_total = max(k, (n - n_context) // 2)
        per_obj = cluster_total // k
        loose_scales = 0.08 + 0.62 * np.arange(1, per_obj) / per_obj
        row = 0
        for gt_box in gt_boxes:
            proposals[row] = _cluster_box(rng, gt_box, scale=0.05, min_iou=0.7)
            proposals[row + 1 : row + per_obj] = _loose_boxes(rng, gt_box, loose_scales)
            row += per_obj
        n_cluster = row
        # One at a time: each context box's rng.integers call reads a buffered half of the
        # generator's 64-bit output between the double draws, so batching would move the stream.
        for row in range(n_cluster, n_cluster + n_context):
            proposals[row] = _context_box(rng, gt_boxes[int(rng.integers(k))])
        proposals[n_cluster + n_context :] = _background_boxes(rng, gt_boxes, n - n_cluster - n_context)
        is_context = np.zeros(n, dtype=bool)
        is_context[n_cluster : n_cluster + n_context] = True

        perm = rng.permutation(n)
        boxes = proposals[perm]
        is_context = is_context[perm]

        # Each region's best IoU with a ground-truth box of each class.
        ious = iou_matrix(boxes, np.array(gt_boxes))
        overlap = np.zeros((n, cfg.num_classes))
        for t, (class_id, _) in enumerate(gt):
            np.maximum(overlap[:, class_id], ious[:, t], out=overlap[:, class_id])
        np.matmul(overlap, prototypes, out=signal)
        signal[is_context] += cfg.distractor_strength * context_dir

        # signal + sigma * rng.normal(size=(n, d)), in place. normal() at loc 0, scale 1 is 0.0 + 1.0 * z,
        # the same double as z except for z = -0.0 (odds 2**-53 a draw), and even that sum only
        # differs where the signal entry is -0.0 too.
        views = []
        for _ in range(cfg.n_views):
            rng.standard_normal(out=noise)
            noise *= cfg.noise_sigma
            np.add(signal, noise, out=noise)
            views.append(noise.astype(np.float32))
        labels = np.zeros(cfg.num_classes, dtype=np.int64)
        labels[[c for c, _ in gt]] = 1
        images.append(ImageBag(id=f"im{i:05d}", boxes=boxes, views=views, labels=labels, ground_truth=gt))

    ds = Dataset(num_classes=cfg.num_classes, feat_dim=cfg.feat_dim, class_names=class_names, images=images)
    ds.validate()
    return ds


def split_dataset(ds: Dataset, n_train: int) -> tuple[Dataset, Dataset]:
    """Split by image index into (first n_train, remainder)."""
    if not 0 < n_train < len(ds.images):
        raise ConfigError(f"n_train must be in (0, {len(ds.images)}), got {n_train}")
    head = Dataset(ds.num_classes, ds.feat_dim, list(ds.class_names), ds.images[:n_train])
    tail = Dataset(ds.num_classes, ds.feat_dim, list(ds.class_names), ds.images[n_train:])
    return head, tail


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
    written, so a manifest path that cannot be opened leaves no sidecar,
    and removed again if a sidecar cannot be written.
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
        try:
            feat_dir.mkdir(exist_ok=True)
            for bag in ds.images:
                _write_sidecar(feat_dir / f"{bag.id}.wsdf", bag.views)
        except BaseException:
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
