"""The synthetic generator and dataset writer as they were written over `BBox` objects, used as oracles by the tests.

Every box is a `BBox`, every random number comes from its own scalar
`rng.uniform` call, each proposal's overlap with the ground truth is a
loop of scalar `iou` calls, and the manifest lists each proposal's
`as_tuple()`. `wsdsel.data` draws the same numbers in the same order on
plain floats and arrays; the tests hold the two to equal bytes, not to a
tolerance.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from wsdsel.data import FEATURE_MAGIC, FEATURE_VERSION, Dataset, ImageBag, SynthConfig
from wsdsel.geometry import BBox, iou


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


def _write_sidecar(path: Path, views: list[np.ndarray]):
    v = len(views)
    n, d = views[0].shape
    stacked = np.stack([view.astype("<f4") for view in views])
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<H", FEATURE_VERSION))
        fh.write(struct.pack("<III", v, n, d))
        fh.write(stacked.tobytes())


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

