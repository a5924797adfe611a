"""The generator's round-based samplers and the template manifest writer, held to the scalar code byte for byte.

`data._loose_boxes` and `data._background_boxes` draw the tries of many
boxes per `rng.random` call. These tests reach the paths the default
configs never take (degenerate tries inside a round, the 30-try and 20-try
fallbacks, a box whose tries span two rounds) with hand-made ground truth,
and compare each sampler with one `reference_data` loop per box: the boxes
as float64 bytes and the generator state left behind.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_data as ref
from test_data_oracle import assert_same_dataset
from wsdsel import data
from wsdsel.data import Dataset, ImageBag, SynthConfig, generate_synthetic, save_dataset
from wsdsel.geometry import BBox


class Recorder:
    """A generator that counts the doubles each call draws, so a test can see the sampler's rounds."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def random(self, size):
        out = self.rng.random(size)
        self.draws.append(out.size)
        return out

    def uniform(self, low, high):
        self.draws.append(1)
        return self.rng.uniform(low, high)


def reference_loop(seed, sample_one, count):
    """`count` boxes from the reference helper, one call per box: (boxes, tries per box, generator state)."""
    rec = Recorder(seed)
    boxes, tries = [], []
    for i in range(count):
        before = len(rec.draws)
        boxes.append(sample_one(rec, i).as_tuple())
        tries.append((len(rec.draws) - before) // 4)  # four uniforms a try
    return np.array(boxes, dtype=np.float64).reshape(-1, 4), tries, rec.rng.bit_generator.state


def production(seed, sample):
    """The production sampler on its own generator: (boxes, doubles drawn by each round, generator state)."""
    rec = Recorder(seed)
    boxes = sample(rec)
    return boxes, rec.draws, rec.rng.bit_generator.state


def loose_both(seed, gt, scales):
    got, rounds, got_state = production(seed, lambda rng: data._loose_boxes(rng, gt, np.array(scales)))
    want, tries, want_state = reference_loop(seed, lambda rng, i: ref._cluster_box(rng, BBox(*gt), scales[i]),
                                             len(scales))
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert got_state == want_state
    return rounds, tries


@pytest.mark.parametrize("seed", range(6))
def test_degenerate_tries_inside_a_round_shift_the_scales(seed):
    # 0.9e-3 wide: a try at scale 0.01 is always too narrow, one at 0.7 only sometimes.
    gt = (0.4, 0.5, 0.4009, 0.5009)
    scales = [0.7, 0.01, 0.7, 0.7, 0.01, 0.7, 0.7, 0.7]
    rounds, tries = loose_both(seed, gt, scales)
    assert tries[1] == tries[4] == 30  # the ground-truth copy
    assert any(1 < t < 30 for t in tries)  # a box accepted after rejected tries
    assert len(rounds) > 2


@pytest.mark.parametrize("seed", range(3))
def test_every_loose_box_falls_back_to_the_ground_truth_copy(seed):
    gt = (0.5, 0.5, 0.5001, 0.5001)  # 1e-4 wide: every try is degenerate
    rounds, tries = loose_both(seed, gt, [0.08, 0.3, 0.5, 0.7])
    assert tries == [30, 30, 30, 30]
    assert sum(rounds) == 4 * 30 * 4


@pytest.mark.parametrize("scales", [[], [0.3], [0.08, 0.2, 0.45, 0.7]])
def test_loose_boxes_of_an_ordinary_box(scales):
    rounds, tries = loose_both(7, (0.1, 0.2, 0.35, 0.5), scales)
    assert tries == [1] * len(scales)
    assert rounds == ([4 * len(scales)] if scales else [])


def crowded_gt():
    """729 ground-truth boxes on grids of four sizes: about 97% of background tries overlap one of them."""
    sizes = (0.07, 0.14, 0.25, 0.4)
    return [(x, y, x + s, y + t) for s in sizes for t in sizes
            for x in np.arange(0, 1 - s + 1e-9, s) for y in np.arange(0, 1 - t + 1e-9, t)]


@pytest.mark.parametrize("seed", range(3))
def test_background_cap_reached_across_a_round_boundary(seed):
    gt, count = crowded_gt(), 40
    got, rounds, got_state = production(seed, lambda rng: data._background_boxes(rng, gt, count))
    gt_boxes = [BBox(*g) for g in gt]
    want, tries, want_state = reference_loop(seed, lambda rng, i: ref._background_box(rng, gt_boxes), count)
    assert got.tobytes() == want.tobytes()
    assert got_state == want_state
    # Some box keeps its last try after 20, and its tries began in one round and ended in a later one.
    boundaries = set(np.cumsum(rounds) // 4)
    starts = np.cumsum([0] + tries[:-1])
    assert any(t == 20 and any(s < b < s + 20 for b in boundaries) for s, t in zip(starts, tries))
    assert any(t < 20 for t in tries)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("gt", [[], [(0.0, 0.0, 1.0, 1.0)], [(0.3, 0.3, 0.6, 0.7), (0.05, 0.1, 0.2, 0.3)]])
def test_background_boxes_equal_reference(seed, gt):
    got, _, got_state = production(seed, lambda rng: data._background_boxes(rng, gt, 25))
    gt_boxes = [BBox(*g) for g in gt]
    want, _, want_state = reference_loop(seed, lambda rng, i: ref._background_box(rng, gt_boxes), 25)
    assert got.tobytes() == want.tobytes()
    assert got_state == want_state


@st.composite
def synth_configs(draw):
    n = draw(st.integers(2, 80))
    context_fraction = draw(st.floats(0.0, 0.4))
    objects_max = draw(st.integers(1, min(12, n - round(context_fraction * n))))  # at least 1 at n >= 2
    return SynthConfig(
        n_images=draw(st.integers(1, 3)),
        num_classes=draw(st.integers(1, 4)),
        feat_dim=draw(st.integers(1, 6)),
        proposals_per_image=n,
        objects_min=draw(st.integers(1, objects_max)),
        objects_max=objects_max,
        context_fraction=context_fraction,
        n_views=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@given(synth_configs())
@settings(max_examples=60, deadline=None)
def test_generator_equals_reference_on_random_configs(cfg):
    assert_same_dataset(generate_synthetic(cfg), ref.generate_synthetic(cfg))


def json_manifest(ds, stem):
    """What json.dump(indent=1) writes for the manifest of `ds`, proposals listed as JSON numbers."""
    records = [
        {
            "id": bag.id,
            "labels": bag.labels.tolist(),
            "proposals": bag.boxes.tolist(),
            "ground_truth": [{"class": c, "box": list(b.as_tuple())} for c, b in bag.ground_truth],
            "feature_file": f"{stem}_features/{bag.id}.wsdf",
            "views": len(bag.views),
        }
        for bag in ds.images
    ]
    manifest = {"c": ds.num_classes, "d": ds.feat_dim, "class_names": ds.class_names, "images": records}
    return json.dumps(manifest, indent=1) + "\n"


def awkward_dataset():
    rng = np.random.default_rng(11)
    boxes = [
        np.array([[0.1, 0.2, 0.3, 0.4], [-0.0, 5e-324, 1e16, 1.0 / 3.0], [1e-300, 0.5, 2.0, 123456789.125]]),
        np.array([[0.1, 0.2, 0.3, 0.4], [np.nan, 0.1, np.inf, -np.inf]]),  # left to json: NaN, Infinity
        np.empty((0, 4)),
        rng.random((5, 4)),
    ]
    # Ids name the sidecar files too, so they hold no NUL, `/` or backslash; class names do.
    ids = ["plain", 'quo"ted \x1f "proposals": "\x01"', '"proposals": "\x7f"', "ünï ☃"]
    images = [
        ImageBag(
            id=image_id,
            boxes=b,
            views=[rng.normal(size=(len(b), 3)).astype(np.float32)],
            labels=np.array([True, False, True]) if i % 2 else np.array([1, 0, 0]),
            ground_truth=[(0, BBox(0.1, 0.2, 0.3, 0.4))] if i != 2 else [],
        )
        for i, (image_id, b) in enumerate(zip(ids, boxes))
    ]
    names = ["naïve ☃", 'say "hi" \\ "proposals": "\\u0000"', '"proposals": "\x00"']
    return Dataset(num_classes=3, feat_dim=3, class_names=names, images=images)


@pytest.mark.parametrize("images", ["all", "one", "none"])
def test_manifest_bytes_equal_json_dump(tmp_path, images):
    ds = awkward_dataset()
    ds.images = {"all": ds.images, "one": ds.images[1:2], "none": []}[images]
    save_dataset(ds, tmp_path / "odd.json")
    assert (tmp_path / "odd.json").read_bytes() == json_manifest(ds, "odd").encode()


def test_generated_manifest_bytes_equal_json_dump(tmp_path):
    ds = generate_synthetic(SynthConfig(n_images=6, proposals_per_image=40, objects_max=12, seed=9))
    save_dataset(ds, tmp_path / "ds.json")
    assert (tmp_path / "ds.json").read_bytes() == json_manifest(ds, "ds").encode()


@pytest.mark.parametrize("dtypes", [["<f4"], [">f4", "<f8"]])
def test_sidecar_bytes_equal_reference(tmp_path, dtypes):
    rng = np.random.default_rng(3)
    views = [rng.normal(size=(7, 5)).astype(t) for t in dtypes]
    data._write_sidecar(tmp_path / "got.wsdf", views)
    ref._write_sidecar(tmp_path / "want.wsdf", views)
    assert (tmp_path / "got.wsdf").read_bytes() == (tmp_path / "want.wsdf").read_bytes()
