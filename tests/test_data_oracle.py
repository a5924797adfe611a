"""The generator and writer on plain floats and arrays against the `BBox` versions in `reference_data.py`.

Both sides run from equal seeds; boxes are compared as float64 bytes,
views and labels as bytes, ground truth by repr (values and types), and a
helper's random stream by the generator state it leaves behind.
"""

import numpy as np
import pytest

import reference_data as ref
from wsdsel import data
from wsdsel.data import SynthConfig, generate_synthetic, save_dataset
from wsdsel.geometry import BBox

CONFIGS = {
    "walkthrough": dict(n_images=24),
    "two_views": dict(n_images=12, n_views=2, feat_dim=16),
    "paper_shape": dict(n_images=2, num_classes=20, feat_dim=16, proposals_per_image=2048),
    # one object and no context: every proposal but the tight one is background
    "tiny": dict(n_images=40, num_classes=2, feat_dim=4, proposals_per_image=2, objects_max=1, context_fraction=0.0),
    "tiny_context": dict(n_images=40, num_classes=2, feat_dim=4, proposals_per_image=3, objects_max=1, context_fraction=0.34),
    # many objects per image: clusters of one box each, background boxes tested against 12 objects
    "crowded": dict(n_images=20, num_classes=3, feat_dim=4, proposals_per_image=40, objects_min=12, objects_max=12,
                    context_fraction=0.25),
}


def assert_same_dataset(got, want):
    assert (got.num_classes, got.feat_dim, got.class_names) == (want.num_classes, want.feat_dim, want.class_names)
    assert len(got.images) == len(want.images)
    for a, b in zip(got.images, want.images):
        assert a.id == b.id
        assert a.boxes.dtype == np.float64
        assert a.boxes.tobytes() == np.array([p.as_tuple() for p in b.proposals], dtype=np.float64).tobytes()
        assert [v.tobytes() for v in a.views] == [v.tobytes() for v in b.views]
        assert a.labels.dtype == b.labels.dtype and a.labels.tobytes() == b.labels.tobytes()
        assert repr(a.ground_truth) == repr(b.ground_truth)


@pytest.mark.parametrize("seed", [0, 1, 3])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_generator_equals_reference(name, seed):
    cfg = SynthConfig(seed=seed, **CONFIGS[name])
    assert_same_dataset(generate_synthetic(cfg), ref.generate_synthetic(cfg))


@pytest.mark.parametrize("name", ["walkthrough", "two_views", "crowded"])
def test_saved_manifest_and_sidecars_equal_reference(name, tmp_path):
    cfg = SynthConfig(seed=5, **CONFIGS[name])
    save_dataset(generate_synthetic(cfg), tmp_path / "got" / "ds.json")
    ref.save_dataset(ref.generate_synthetic(cfg), tmp_path / "want" / "ds.json")
    got, want = tmp_path / "got", tmp_path / "want"
    assert (got / "ds.json").read_bytes() == (want / "ds.json").read_bytes()
    names = sorted(p.name for p in (want / "ds_features").iterdir())
    assert sorted(p.name for p in (got / "ds_features").iterdir()) == names
    for sidecar in names:
        assert (got / "ds_features" / sidecar).read_bytes() == (want / "ds_features" / sidecar).read_bytes()


def run_both(seed, production, reference):
    """Each helper on its own generator of the same seed: (production result, reference result), equal streams."""
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = production(rng_got), reference(rng_want)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    return got, want


def as_tuple(box):
    return None if box is None else tuple(box)


@pytest.mark.parametrize("seed", range(4))
def test_cluster_box_falls_back_to_the_ground_truth_copy(seed):
    gt = (0.2, 0.3, 0.45, 0.5)
    # No jittered box is identical to the ground truth, so all 30 tries fail.
    got, want = run_both(
        seed,
        lambda rng: data._cluster_box(rng, gt, scale=0.3, min_iou=1.0),
        lambda rng: ref._cluster_box(rng, BBox(*gt), scale=0.3, min_iou=1.0),
    )
    assert got == gt == want.as_tuple()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("gt", [(0.0, 0.0, 1.0, 1.0), (0.5, 0.5, 0.5001, 0.5001)])
def test_context_box_falls_back_to_a_cluster_box(seed, gt, monkeypatch):
    # Around the whole canvas every context box clips to IoU 1; around a 1e-4 box every
    # context box is degenerate, and so is every loose jitter, down to the ground-truth copy.
    fallbacks = []
    cluster_box = data._cluster_box
    monkeypatch.setattr(data, "_cluster_box", lambda *a, **kw: fallbacks.append(kw) or cluster_box(*a, **kw))
    got, want = run_both(
        seed, lambda rng: data._context_box(rng, gt), lambda rng: ref._context_box(rng, BBox(*gt))
    )
    assert fallbacks == [{"scale": 0.8}]
    assert got == want.as_tuple()
    assert (got == gt) == (gt[2] - gt[0] < 1e-3)


@pytest.mark.parametrize("seed", range(4))
def test_background_box_returns_its_last_try(seed):
    # The 20 tries of this seed, drawn ahead: each one overlaps itself, so every try is rejected.
    ahead = np.random.default_rng(seed)
    tries = [data._background_box(ahead, [], tries=1) for _ in range(20)]
    got, want = run_both(
        seed,
        lambda rng: data._background_box(rng, tries),
        lambda rng: ref._background_box(rng, [BBox(*t) for t in tries]),
    )
    assert got == tries[-1] == want.as_tuple()


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("scale", [0.05, 0.4, 0.8])
def test_jitter_and_rejection_helpers_equal_reference(seed, scale):
    gt = (0.02, 0.6, 0.3, 0.95)
    got, want = run_both(
        seed, lambda rng: data._jittered(rng, gt, scale), lambda rng: ref._jittered(rng, BBox(*gt), scale)
    )
    assert as_tuple(got) == as_tuple(want)
    got, want = run_both(
        seed,
        lambda rng: data._cluster_box(rng, gt, scale, min_iou=0.7),
        lambda rng: ref._cluster_box(rng, BBox(*gt), scale, min_iou=0.7),
    )
    assert got == want.as_tuple()
    got, want = run_both(
        seed, lambda rng: data._random_gt_box(rng), lambda rng: ref._random_gt_box(rng)
    )
    assert got == want.as_tuple()
