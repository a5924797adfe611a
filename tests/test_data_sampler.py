"""The generator's batched samplers and the dataset writer, held to the scalar code byte for byte.

`data._cluster_boxes` and `data._background_boxes` draw the tries of many
boxes per `rng.random` call, and `data._context_boxes` reads its boxes'
integers and tries from blocks of raw outputs. These tests reach the paths
the default configs never take (degenerate tries inside a round, tight
boxes rejected inside a round, the 30-try and 20-try fallbacks, a box whose
tries span two rounds or two blocks, a held 32-bit half, an integer drawn
again) with hand-made ground truth and generator states, and compare each
sampler with one `reference_data` loop per box: the boxes as float64 bytes
and the generator state left behind. `data._cluster_rounds` and
`data._background_rounds` run the rounds over a batch of images, each on its
own generator; the batch tests hold every image of a batch to the same loop,
and each of its rounds' draws to those of the image sampled alone.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_data as ref
from test_data_oracle import CONFIGS, assert_same_dataset
from wsdsel import data, head
from wsdsel.data import Dataset, ImageBag, SynthConfig, generate_synthetic, save_dataset, split_dataset
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


def padded_gt(gts):
    """The ground-truth rows of each image, padded to the batch's largest count with off-canvas boxes, as generated."""
    padded = np.full((len(gts), max(map(len, gts)), 4), data.OFF_CANVAS)
    for row, gt in zip(padded, gts):
        row[: len(gt)] = np.array(gt).reshape(-1, 4)
    return padded


def batch_both(seeds, clusters, backgrounds):
    """One batch through `data._cluster_rounds`, then `data._background_rounds`, against the per-image reference.

    Image i has its own generator of `seeds[i]`, the cluster boxes `clusters[i]`, a list of (gt row, scale,
    IoU floor), and `backgrounds[i]`, (ground-truth rows, box count). Its cluster and background boxes, its
    generator state and each of its rounds' draws must equal those of the box-by-box loop, and of the image
    sampled alone. Returns each image's (tries per cluster box, tries per background box, draws per background round).
    """
    recs = [Recorder(seed) for seed in seeds]
    rows = [box for boxes in clusters for box in boxes]
    got_clusters = data._cluster_rounds(recs, np.array([r[0] for r in rows]).reshape(-1, 4),
                                        np.array([r[1] for r in rows]), np.array([r[2] for r in rows]),
                                        [len(boxes) for boxes in clusters])
    after_clusters = [len(rec.draws) for rec in recs]
    got_backgrounds = data._background_rounds(recs, padded_gt([gt for gt, _ in backgrounds]),
                                              [count for _, count in backgrounds])
    found, c_at, b_at = [], 0, 0
    for rec, seed, boxes, (gt, count), cut in zip(recs, seeds, clusters, backgrounds, after_clusters):
        want = Recorder(seed)
        tries = []
        for sample, n in ((lambda r, i: ref._cluster_box(r, BBox(*boxes[i][0]), boxes[i][1], boxes[i][2]), len(boxes)),
                          (lambda r, i: ref._background_box(r, [BBox(*g) for g in gt]), count)):
            out, per_box = [], []
            for i in range(n):
                before = len(want.draws)
                out.append(sample(want, i).as_tuple())
                per_box.append((len(want.draws) - before) // 4)
            tries.append((np.array(out, dtype=np.float64).reshape(-1, 4), per_box))
        (want_c, c_tries), (want_b, b_tries) = tries
        assert got_clusters[c_at : c_at + len(boxes)].tobytes() == want_c.tobytes()
        assert got_backgrounds[b_at : b_at + count].tobytes() == want_b.tobytes()
        assert rec.rng.bit_generator.state == want.rng.bit_generator.state
        alone = Recorder(seed)
        data._cluster_boxes(alone, np.array([b[0] for b in boxes]).reshape(-1, 4), np.array([b[1] for b in boxes]),
                            np.array([b[2] for b in boxes]))
        data._background_boxes(alone, gt, count)
        assert rec.draws == alone.draws  # each round's rng.random call, as the image makes it alone
        found.append((c_tries, b_tries, rec.draws[cut:]))
        c_at, b_at = c_at + len(boxes), b_at + count
    return found


def generator_clusters(gts):
    """The cluster boxes of an image with ground-truth rows `gts`, laid out as the walkthrough generator lays them."""
    per_obj, scales, min_iou = data._cluster_layout(len(gts), 64, 13)
    return [(gts[j // per_obj], s, m) for j, (s, m) in enumerate(zip(scales.tolist(), min_iou.tolist()))]


@pytest.mark.parametrize("seed", range(4))
def test_batch_of_one_two_and_three_objects(seed):
    # A thin second object: its loose boxes' tries are degenerate at times, so its image takes several rounds
    # while the others have finished.
    images = [ORDINARY[:1], [ORDINARY[1], (0.4, 0.5, 0.4009, 0.5009)], ORDINARY, ORDINARY[1:2]]
    found = batch_both([seed, seed + 10, seed + 20, seed + 30], [generator_clusters(gts) for gts in images],
                       [(gts, 64 - 13 - 25 // len(gts) * len(gts)) for gts in images])
    assert [len(c) for c, _, _ in found] == [25, 24, 24, 25]
    assert max(c for c in found[1][0]) > 1  # a try rejected in a round the other images took whole


@pytest.mark.parametrize("seed", range(6))
def test_batch_with_a_ground_truth_copy_beside_a_background_cap(seed):
    # Image 0's tight box must match its ground truth exactly, which no try does: its copy after 30 tries. Its
    # background boxes are mostly accepted at once. Image 1's background boxes sit among 729 ground-truth boxes,
    # so they reach their 20-try cap, and their runs of rejected tries carry across rounds. In a round, the
    # first accepted try of image 1 ends a box that began in an earlier round of its own: not after image 0's
    # last accepted try, which lies just before it in the batch.
    tight = ORDINARY[0]
    found = batch_both([seed, seed + 100],
                       [[(tight, 0.05, 0.7), (tight, 0.3, 1.0), (tight, 0.4, 0.0)], generator_clusters(ORDINARY[1:3])],
                       [([tight], 40), (crowded_gt(), 40)])
    (copy_tries, open_background, _), (_, crowded_tries, rounds) = found
    assert copy_tries[1] == 30
    assert any(t < 20 for t in open_background)
    boundaries = set(np.cumsum(rounds) // 4)
    starts = np.cumsum([0] + crowded_tries[:-1])
    assert any(t == 20 and any(s < b < s + 20 for b in boundaries) for s, t in zip(starts, crowded_tries))
    assert any(1 < t < 20 and any(s < b < s + t for b in boundaries) for s, t in zip(starts, crowded_tries))


class Scripted:
    """A generator that hands out given doubles in order, through `random` as the samplers draw and `uniform` as
    the reference does."""

    def __init__(self, doubles):
        self.doubles, self.pos = list(doubles), 0

    def random(self, size):
        count = int(np.prod(size))
        self.pos += count
        assert self.pos <= len(self.doubles), "read past the script"
        return np.array(self.doubles[self.pos - count : self.pos]).reshape(size)

    def uniform(self, low, high):
        return low + (high - low) * self.random(1)[0]


# Background tries against the ground truth (0, 0, 0.5, 0.5) read as (uw, uh, ux, uy): the box (0, 0, 0.5, 0.5)
# itself, rejected, or (0.5, 0.5, 1, 1), which only touches it, accepted.
REJECT, ACCEPT = (1.0, 1.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0)


def test_first_accepted_try_of_an_image_ends_its_own_carried_run():
    # Round 1: image 0 closes a box and leaves one open; image 1 closes one and carries 15 rejected tries.
    # Round 2: image 0's last accepted try lies just before image 1's tries. Image 1's first accepted try, its
    # 7th of the round, would be its open box's 22nd try: that box keeps its 20th instead, and the accepted
    # try ends the next box. Round 3 accepts every try.
    gt = [(0.0, 0.0, 0.5, 0.5)]
    scripts = [[ACCEPT, REJECT, ACCEPT],
               [ACCEPT] + [REJECT] * 15 + [REJECT] * 6 + [ACCEPT] + [REJECT] * 8 + [ACCEPT] * 13]
    counts = [2, 16]
    streams = [Scripted(np.ravel(script)) for script in scripts]
    got = data._background_rounds(streams, padded_gt([gt, gt]), counts)
    at = 0
    for script, count, stream in zip(scripts, counts, streams):
        ref_stream = Scripted(np.ravel(script))
        want = [ref._background_box(ref_stream, [BBox(*gt[0])]).as_tuple() for _ in range(count)]
        assert got[at : at + count].tobytes() == np.array(want).tobytes()
        assert stream.pos == ref_stream.pos == len(ref_stream.doubles)
        at += count
    assert got[3].tolist() == [0.0, 0.0, 0.5, 0.5]  # image 1's second box: its 20th try, rejected


@pytest.mark.parametrize("split", [True, False], ids=["split", "serial"])
@pytest.mark.parametrize("config", ["walkthrough", "split_gate"])
@pytest.mark.parametrize("batch", [1, 3, None], ids=["one", "three", "all"])
def test_generator_bytes_at_any_batch_size(config, batch, split, monkeypatch):
    # The feature split forced on and off through the gate's inputs: on, a pair of images may straddle two batches.
    cfg = SynthConfig(seed=4, **dict(CONFIGS[config], n_images=7))
    monkeypatch.setattr(data, "SAMPLE_ROWS", cfg.proposals_per_image * (batch or cfg.n_images))
    monkeypatch.setattr(data, "FEATURE_SPLIT_MIN", 1)
    monkeypatch.setattr(head, "_usable_cpus", lambda: 2 if split else 1)
    assert cfg.proposals_per_image * cfg.feat_dim * cfg.n_views >= 1 << 16 or config == "walkthrough"
    assert_same_dataset(generate_synthetic(cfg), ref.generate_synthetic(cfg))


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


def refuse_json(*args, **kwargs):
    raise AssertionError("the manifest went through json.dumps")


@pytest.mark.parametrize("images", ["all", "one", "none"])
def test_manifest_laid_out_without_json_equals_json_dump(tmp_path, images, monkeypatch):
    # Ids with quotes, a backslash, `/`, NUL and non-ASCII text, escaped class names, an image without ground
    # truth; integer labels, so every value has the usual type and json is never called.
    ds = awkward_dataset()
    for bag in ds.images:
        bag.labels = bag.labels.astype(np.int64 if bag.id != "plain" else np.uint8)
    ds.images = {"all": ds.images, "one": ds.images[2:3], "none": []}[images]
    want = json_manifest(ds, "odd").encode()
    monkeypatch.setattr(json, "dumps", refuse_json)
    save_dataset(ds, tmp_path / "odd.json")
    assert (tmp_path / "odd.json").read_bytes() == want


def test_walkthrough_split_manifests_equal_json_dump(tmp_path):
    for part, ds in zip(("train", "test"), split_dataset(generate_synthetic(SynthConfig(seed=0)), 160)):
        save_dataset(ds, tmp_path / f"{part}.json")
        assert (tmp_path / f"{part}.json").read_bytes() == json_manifest(ds, part).encode()


@pytest.mark.parametrize("odd", ["bool labels", "float labels", "int id", "nan box", "inf box", "int class name"])
def test_manifest_of_other_types_equals_json_dump(tmp_path, odd):
    bag = ImageBag("x", boxes=np.array([[0.1, 0.2, 0.3, 0.4]]), views=np.zeros((1, 1, 2), dtype=np.float32),
                   labels=np.array([1, 0]), ground_truth=[(1, (0.1, 0.2, 0.3, 0.4))])
    ds = Dataset(num_classes=2, feat_dim=2, class_names=["a", "b"], images=[bag])
    if odd.endswith("labels"):
        bag.labels = bag.labels.astype(bool if odd == "bool labels" else float)
    elif odd == "int id":
        bag.id = 7
    elif odd == "int class name":
        ds.class_names = ["a", 2]
    else:
        bag.gt_boxes[0, 2] = np.nan if odd == "nan box" else -np.inf
    save_dataset(ds, tmp_path / "ds.json")
    record = {"id": bag.id, "labels": bag.labels.tolist(),
              "ground_truth": [{"class": 1, "box": bag.gt_boxes[0].tolist()}], "views": 1}
    want = {"c": 2, "d": 2, "class_names": ds.class_names, "features": "ds_features/features.wsdf", "images": [record]}
    assert (tmp_path / "ds.json").read_bytes() == (json.dumps(want, indent=1) + "\n").encode()


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
