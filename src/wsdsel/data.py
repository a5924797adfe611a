"""Dataset model, file formats, and the synthetic MIL benchmark generator.

The generator builds images on a unit canvas where each ground-truth object
is surrounded by a cluster of proposals spanning tight to loose overlap,
plus oversized "context" boxes that carry a shared scene direction scaled
by `distractor_strength`. Region features encode partial class evidence in
proportion to their best overlap with a ground-truth box, so loose boxes
score deceptively well: the object/background ambiguity that region
selection is meant to resolve.

File formats
------------
Dataset manifest (JSON): top level {c, d, class_names, images: [{id,
labels, proposals, ground_truth, feature_file, views}]}, with proposals as
[x1, y1, x2, y2] rows and ground_truth as {class, box} records.

Feature sidecar (binary, one per image): magic "WSDF", version as u16 LE,
then V, N, D as u32 LE, then V*N*D row-major float32 LE.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wsdsel.errors import ConfigError, DataError
from wsdsel.geometry import BBox, iou

FEATURE_MAGIC = b"WSDF"
FEATURE_VERSION = 1


@dataclass
class ImageBag:
    """One image: proposals, per-region features (one or more views), labels.

    Ground-truth annotations are carried for evaluation only; the trainer
    never reads them.
    """

    id: str
    proposals: list[BBox]
    views: list[np.ndarray]  # V arrays, each (N, D) float32
    labels: np.ndarray  # (C,) ints in {0, 1}
    ground_truth: list[tuple[int, BBox]] = field(default_factory=list)

    @property
    def n_regions(self) -> int:
        return len(self.proposals)


@dataclass
class Dataset:
    num_classes: int
    feat_dim: int
    class_names: list[str]
    images: list[ImageBag]

    def validate(self):
        if not self.images:
            raise DataError("dataset has no images")
        if len(self.class_names) != self.num_classes:
            raise DataError(f"expected {self.num_classes} class names, got {len(self.class_names)}")
        for bag in self.images:
            n = bag.n_regions
            if n < 1:
                raise DataError(f"image {bag.id}: no proposals")
            if bag.labels.shape != (self.num_classes,):
                raise DataError(f"image {bag.id}: label vector has shape {bag.labels.shape}")
            if not np.isin(bag.labels, (0, 1)).all():
                raise DataError(f"image {bag.id}: labels must be 0/1")
            if not bag.views:
                raise DataError(f"image {bag.id}: no feature views")
            for view in bag.views:
                if view.shape != (n, self.feat_dim):
                    raise DataError(
                        f"image {bag.id}: view shape {view.shape} != ({n}, {self.feat_dim})"
                    )
                if not np.isfinite(view).all():
                    raise DataError(f"image {bag.id}: non-finite feature values")
            for class_id, _ in bag.ground_truth:
                if not 0 <= class_id < self.num_classes:
                    raise DataError(f"image {bag.id}: ground-truth class {class_id} out of range")


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


def _random_gt_box(rng: np.random.Generator) -> BBox:
    w = rng.uniform(0.12, 0.35)
    h = rng.uniform(0.12, 0.35)
    cx = rng.uniform(w / 2, 1.0 - w / 2)
    cy = rng.uniform(h / 2, 1.0 - h / 2)
    return BBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def _jittered(rng: np.random.Generator, box: BBox, scale: float) -> BBox | None:
    """Random translation and resize of `box` at relative magnitude `scale`."""
    w, h = box.x2 - box.x1, box.y2 - box.y1
    cx, cy = (box.x1 + box.x2) / 2, (box.y1 + box.y2) / 2
    cx += rng.uniform(-scale, scale) * w
    cy += rng.uniform(-scale, scale) * h
    w *= np.exp(rng.uniform(-scale, scale))
    h *= np.exp(rng.uniform(-scale, scale))
    x1, x2 = max(0.0, cx - w / 2), min(1.0, cx + w / 2)
    y1, y2 = max(0.0, cy - h / 2), min(1.0, cy + h / 2)
    if x2 - x1 < 1e-3 or y2 - y1 < 1e-3:
        return None
    return BBox(x1, y1, x2, y2)


def _cluster_box(rng: np.random.Generator, gt: BBox, scale: float, min_iou: float = 0.0, tries: int = 30) -> BBox:
    """A jittered copy of `gt`, rejection-sampled until iou >= min_iou."""
    for _ in range(tries):
        cand = _jittered(rng, gt, scale)
        if cand is not None and iou(cand, gt) >= min_iou:
            return cand
    return BBox(gt.x1, gt.y1, gt.x2, gt.y2)


def _context_box(rng: np.random.Generator, gt: BBox, tries: int = 30) -> BBox:
    """An oversized box around `gt`: contains most of it, IoU below 0.5."""
    for _ in range(tries):
        f = rng.uniform(1.5, 2.4)
        w, h = (gt.x2 - gt.x1) * f, (gt.y2 - gt.y1) * f
        cx = (gt.x1 + gt.x2) / 2 + rng.uniform(-0.15, 0.15) * w
        cy = (gt.y1 + gt.y2) / 2 + rng.uniform(-0.15, 0.15) * h
        x1, x2 = max(0.0, cx - w / 2), min(1.0, cx + w / 2)
        y1, y2 = max(0.0, cy - h / 2), min(1.0, cy + h / 2)
        if x2 - x1 < 1e-3 or y2 - y1 < 1e-3:
            continue
        cand = BBox(x1, y1, x2, y2)
        if iou(cand, gt) < 0.5:
            return cand
    return _cluster_box(rng, gt, scale=0.8)


def _background_box(rng: np.random.Generator, gt_boxes: list[BBox], tries: int = 20) -> BBox:
    cand = None
    for _ in range(tries):
        w = rng.uniform(0.05, 0.5)
        h = rng.uniform(0.05, 0.5)
        x1 = rng.uniform(0.0, 1.0 - w)
        y1 = rng.uniform(0.0, 1.0 - h)
        cand = BBox(x1, y1, x1 + w, y1 + h)
        if all(iou(cand, g) < 0.3 for g in gt_boxes):
            return cand
    return cand


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
    images = []
    for i in range(cfg.n_images):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1, i)))
        k = int(rng.integers(cfg.objects_min, cfg.objects_max + 1))
        gt = [(int(rng.integers(cfg.num_classes)), _random_gt_box(rng)) for _ in range(k)]
        gt_boxes = [b for _, b in gt]

        proposals: list[BBox] = []
        is_context = []
        # Per-object clusters spanning tight to loose overlap; the first
        # member is forced tight so a correct localization always exists.
        cluster_total = max(k, (n - n_context) // 2)
        per_obj = cluster_total // k
        for _, gt_box in gt:
            proposals.append(_cluster_box(rng, gt_box, scale=0.05, min_iou=0.7))
            is_context.append(False)
            for j in range(per_obj - 1):
                scale = 0.08 + 0.62 * (j + 1) / per_obj
                proposals.append(_cluster_box(rng, gt_box, scale=scale))
                is_context.append(False)
        for _ in range(n_context):
            anchor = gt_boxes[int(rng.integers(k))]
            proposals.append(_context_box(rng, anchor))
            is_context.append(True)
        while len(proposals) < n:
            proposals.append(_background_box(rng, gt_boxes))
            is_context.append(False)
        proposals = proposals[:n]
        is_context = is_context[:n]

        perm = rng.permutation(n)
        proposals = [proposals[j] for j in perm]
        is_context = [is_context[j] for j in perm]

        overlap = np.zeros((n, cfg.num_classes))
        for j, box in enumerate(proposals):
            for class_id, gt_box in gt:
                overlap[j, class_id] = max(overlap[j, class_id], iou(box, gt_box))
        signal = overlap @ prototypes
        signal[np.asarray(is_context)] += cfg.distractor_strength * context_dir

        views = [
            (signal + cfg.noise_sigma * rng.normal(size=(n, cfg.feat_dim))).astype(np.float32)
            for _ in range(cfg.n_views)
        ]
        labels = np.zeros(cfg.num_classes, dtype=np.int64)
        labels[[c for c, _ in gt]] = 1
        images.append(ImageBag(id=f"im{i:05d}", proposals=proposals, views=views, labels=labels, ground_truth=gt))

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
    stacked = np.stack([view.astype("<f4") for view in views])
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<H", FEATURE_VERSION))
        fh.write(struct.pack("<III", v, n, d))
        fh.write(stacked.tobytes())


def _read_sidecar(path: Path, image_id: str) -> list[np.ndarray]:
    try:
        raw = path.read_bytes()
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
    payload = raw[18:]
    if len(payload) != expected:
        raise DataError(
            f"image {image_id}: truncated feature sidecar, expected {expected} bytes of floats, got {len(payload)}"
        )
    arr = np.frombuffer(payload, dtype="<f4").reshape(v, n, d)
    return [arr[j].copy() for j in range(v)]


def save_dataset(ds: Dataset, path: str | Path):
    """Write the manifest JSON at `path` plus one feature sidecar per image."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    feat_dir_name = path.stem + "_features"
    feat_dir = path.parent / feat_dir_name
    feat_dir.mkdir(exist_ok=True)

    records = []
    for bag in ds.images:
        sidecar = feat_dir / f"{bag.id}.wsdf"
        _write_sidecar(sidecar, bag.views)
        records.append(
            {
                "id": bag.id,
                "labels": bag.labels.tolist(),
                "proposals": [list(b.as_tuple()) for b in bag.proposals],
                "ground_truth": [{"class": c, "box": list(b.as_tuple())} for c, b in bag.ground_truth],
                "feature_file": f"{feat_dir_name}/{bag.id}.wsdf",
                "views": len(bag.views),
            }
        )
    manifest = {
        "c": ds.num_classes,
        "d": ds.feat_dim,
        "class_names": ds.class_names,
        "images": records,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def _positive_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise DataError(f"{what} must be a positive integer, got {value!r}")
    return value


def load_dataset(path: str | Path) -> Dataset:
    """Load and fully validate a dataset; errors name the offending image."""
    path = Path(path)
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise DataError(f"cannot load dataset manifest {path}: {err}") from err

    for key in ("c", "d", "class_names", "images"):
        if key not in manifest:
            raise DataError(f"dataset manifest missing key '{key}'")
    num_classes = _positive_int(manifest["c"], "manifest key 'c'")
    feat_dim = _positive_int(manifest["d"], "manifest key 'd'")

    images = []
    for rec in manifest["images"]:
        image_id = rec.get("id", "<missing id>")
        missing = [key for key in ("proposals", "labels", "feature_file", "views") if key not in rec]
        if missing:
            raise DataError(f"image {image_id}: record missing {', '.join(missing)}")
        try:
            proposals = [BBox(*coords) for coords in rec["proposals"]]
        except (TypeError, ValueError) as err:
            raise DataError(f"image {image_id}: bad proposal box: {err}") from err
        try:
            gt = [(int(g["class"]), BBox(*g["box"])) for g in rec.get("ground_truth", [])]
        except (TypeError, KeyError, ValueError) as err:
            raise DataError(f"image {image_id}: bad ground-truth record: {err}") from err
        n_views = _positive_int(rec["views"], f"image {image_id}: views")
        views = _read_sidecar(path.parent / rec["feature_file"], image_id)
        if len(views) != n_views:
            raise DataError(
                f"image {image_id}: manifest declares {rec['views']} views, sidecar has {len(views)}"
            )
        images.append(
            ImageBag(
                id=str(image_id),
                proposals=proposals,
                views=views,
                labels=np.asarray(rec["labels"], dtype=np.int64),
                ground_truth=gt,
            )
        )
    ds = Dataset(num_classes=num_classes, feat_dim=feat_dim, class_names=list(manifest["class_names"]), images=images)
    ds.validate()
    return ds
