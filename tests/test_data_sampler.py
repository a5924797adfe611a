"""The generator's batched samplers and the dataset writer, held to the scalar code byte for byte.

`data._cluster_boxes` and `data._background_boxes` draw the tries of many
boxes per `rng.random` call, and `data._context_boxes` reads its boxes'
integers and tries from blocks of raw outputs. These tests reach the paths
the default configs never take (degenerate tries inside a round, tight
boxes rejected inside a round, the 30-try and 20-try fallbacks, a box whose
tries span two rounds or two blocks, a held 32-bit half, an integer drawn
again) with hand-made ground truth and generator states, and compare each
sampler with one `reference_data` loop per box: the boxes as float64 bytes
and the generator state left behind.
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


def rounds_of(tries, copied):
    """The doubles each round of the cluster sampler draws, given each box's tries and whether it became its copy.

    A round judges one try for each box still needed, in stream order, up to
    its first rejected try; it draws four doubles for each of those tries
    that no earlier round drew.
    """
    stream = []  # (accepted, ends its box) for each try, in stream order
    for t, is_copy in zip(tries, copied):
        stream += [(False, False)] * (t - 1) + [(not is_copy, True)]
    rounds, pos, drawn, done = [], 0, 0, 0
    while done < len(tries):
        need = len(tries) - done
        if drawn - pos < need:
            rounds.append(4 * (need - (drawn - pos)))
            drawn = pos + need
        for accepted, ends in stream[pos : pos + need]:
            pos, done = pos + 1, done + ends
            if not accepted:
                break
    return rounds


def cluster_both(seed, gts, scales, min_ious):
    """`data._cluster_boxes` against one `reference_data._cluster_box` per box: (doubles per round, tries per box)."""
    got, rounds, got_state = production(
        seed, lambda rng: data._cluster_boxes(rng, np.array(gts).reshape(-1, 4), np.array(scales), np.array(min_ious))
    )
    want, tries, want_state = reference_loop(
        seed, lambda rng, i: ref._cluster_box(rng, BBox(*gts[i]), scales[i], min_ious[i]), len(scales)
    )
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert got_state == want_state
    copied = [t == 30 and tuple(box) == tuple(gt) for t, box, gt in zip(tries, got.tolist(), gts)]
    assert rounds == rounds_of(tries, copied)
    return rounds, tries


def loose_both(seed, gt, scales):
    return cluster_both(seed, [gt] * len(scales), scales, [0.0] * len(scales))


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


@pytest.mark.parametrize("seed", range(6))
def test_several_objects_in_one_call(seed):
    # Three clusters of four, tight box first, as the generator lays them out. The second
    # object's tight box is jittered wide enough that tries fall under IoU 0.7; the third's
    # must match its ground truth exactly, which no try does, so it becomes its copy.
    gts = [(0.1, 0.2, 0.35, 0.5), (0.5, 0.55, 0.8, 0.9), (0.6, 0.1, 0.85, 0.3)]
    loose = [0.08 + 0.62 * j / 4 for j in range(1, 4)]
    scales = [0.05, *loose, 0.3, *loose, 0.3, *loose]
    min_ious = [0.7, 0, 0, 0, 0.7, 0, 0, 0, 1.0, 0, 0, 0]
    rows = [g for g in gts for _ in range(4)]
    rounds, tries = cluster_both(seed, rows, scales, min_ious)
    assert tries[8] == 30  # the ground-truth copy
    assert tries[4] > 1  # rejected on its first try, judged after the first cluster's boxes in round one
    assert [t for i, t in enumerate(tries) if i not in (4, 8)] == [1] * 10  # a loose or small tight jitter is never rejected here


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


def held_over(seed, held, word):
    """A generator of `seed` that holds the 32-bit half `word` if `held`, as PCG64 does between `integers` calls."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = held, word
    rng.bit_generator.state = state
    return rng


def context_both(seed, gts, count, held=0, word=0):
    """`data._context_boxes` against the box-by-box loop of `reference_data` from equal generator states."""
    rng_got, rng_want = held_over(seed, held, word), held_over(seed, held, word)
    got = data._context_boxes(rng_got, np.array(gts, dtype=np.float64).reshape(-1, 4), count)
    boxes = ref._context_boxes(rng_want, [BBox(*g) for g in gts], count)
    want = np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


ORDINARY = [(0.1, 0.2, 0.35, 0.5), (0.5, 0.55, 0.8, 0.9), (0.6, 0.1, 0.85, 0.3)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("held", [0, 1])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_context_boxes_from_either_held_half(seed, held, k):
    # Where the generator holds a half, the first box's integer reads it and the second box's a new output.
    context_both(seed, ORDINARY[:k], 25, held, word=2**31 + 12345 * seed)


@pytest.mark.parametrize("seed", range(4))
def test_context_box_integer_drawn_again(seed):
    # numpy's Lemire method draws again where (x * k) mod 2**32 < (2**32 - k) % k: at k = 3 that is x = 0 alone.
    assert (0 * 3) % 2**32 < (2**32 - 3) % 3 == 1
    rng = held_over(seed, 1, 0)
    before = rng.bit_generator.state["state"]["state"]
    rng.integers(3)
    after = rng.bit_generator.state
    assert after["has_uint32"] == 1 and after["state"]["state"] != before  # the held 0, then a new output
    context_both(seed, ORDINARY, 10, held=1, word=0)


@pytest.mark.parametrize("seed", range(4))
def test_one_object_draws_no_integer(seed):
    rng = held_over(seed, 1, 777)
    state = rng.bit_generator.state
    assert rng.integers(1) == 0 and rng.bit_generator.state == state
    context_both(seed, ORDINARY[:1], 25, held=1, word=777)  # the held half is still there after the boxes


@pytest.mark.parametrize("seed", range(4))
def test_context_box_that_exhausts_its_tries(seed, monkeypatch):
    # Around the whole canvas every try clips to IoU 1: each box picking it falls back after 30 tries.
    fallbacks = []
    cluster_boxes = data._cluster_boxes

    def recorded(rng, rows, *rest):
        fallbacks.append(rows.tolist())
        return cluster_boxes(rng, rows, *rest)

    monkeypatch.setattr(data, "_cluster_boxes", recorded)
    context_both(seed, [(0.0, 0.0, 1.0, 1.0), ORDINARY[0]], 12, held=seed % 2, word=99)
    assert fallbacks and all(rows == [[0.0, 0.0, 1.0, 1.0]] for rows in fallbacks)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [1, 2])
def test_context_tries_past_a_block(seed, k, monkeypatch):
    # Half the tries around a box in the canvas corner fail: 150 boxes take ~150 extra tries, more than a
    # block holds beyond one try a box, so the boxes span several blocks.
    blocks = []
    restore = data._restore

    def recorded(bitgen, state, read, *rest):
        blocks.append(read)
        restore(bitgen, state, read, *rest)

    monkeypatch.setattr(data, "_restore", recorded)
    context_both(seed, [(0.0, 0.0, 0.6, 0.7), (0.0, 0.3, 0.6, 1.0)][:k], 150, held=1, word=2**32 - 1)
    assert len(blocks) > 1


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
    """What json.dump(indent=1) writes for the manifest of `ds`; its proposals are in the features file, not here."""
    records = [
        {
            "id": bag.id,
            "labels": bag.labels.tolist(),
            "ground_truth": [{"class": c, "box": list(b.as_tuple())} for c, b in bag.ground_truth],
            "views": len(bag.views),
        }
        for bag in ds.images
    ]
    manifest = {"c": ds.num_classes, "d": ds.feat_dim, "class_names": ds.class_names,
                "features": f"{stem}_features/features.wsdf", "images": records}
    return json.dumps(manifest, indent=1) + "\n"


def awkward_dataset():
    rng = np.random.default_rng(11)
    boxes = [
        np.array([[0.1, 0.2, 0.3, 0.4], [-0.0, 5e-324, 1e16, 1.0 / 3.0], [1e-300, 0.5, 2.0, 123456789.125]]),
        np.array([[0.1, 0.2, 0.3, 0.4], [np.nan, 0.1, np.inf, -np.inf]]),
        np.empty((0, 4)),
        rng.random((5, 4)),
    ]
    # Ids name no file, so they may hold a NUL, `/` or backslash, as class names do.
    ids = ["plain", 'quo"ted \x1f "proposals": "\x01"', '"proposals": "\x7f" / \\ \x00', "ünï ☃"]
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
@pytest.mark.parametrize("box_dtype", ["<f8", ">f8", "<f4"])
def test_sidecar_bytes_equal_reference(tmp_path, dtypes, box_dtype):
    # One image's block in the features file, from boxes and views of other float dtypes, and its manifest.
    rng = np.random.default_rng(3)
    corners = rng.random((7, 4))
    boxes = np.concatenate((corners[:, :2], corners[:, :2] + corners[:, 2:] + 0.01), axis=1).astype(box_dtype)
    views = [rng.normal(size=(7, 5)).astype(t) for t in dtypes]
    bag = ImageBag("x", boxes=boxes, views=views, labels=np.array([1, 0]), ground_truth=[(0, BBox(0.1, 0.2, 0.3, 0.4))])
    ds = Dataset(num_classes=2, feat_dim=5, class_names=["a", "b"], images=[bag])
    save_dataset(ds, tmp_path / "got" / "ds.json")
    ref.save_dataset(ds, tmp_path / "want" / "ds.json")
    for name in ("ds.json", "ds_features/features.wsdf"):
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
    (got,) = data.load_dataset(tmp_path / "got" / "ds.json").images
    assert got.boxes.tobytes() == boxes.astype("<f8").tobytes()
    assert [v.tobytes() for v in got.views] == [v.astype("<f4").tobytes() for v in views]
