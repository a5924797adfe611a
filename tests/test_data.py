import dataclasses
import json
import math
import re
import struct
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wsdsel import data, head
from wsdsel.data import (
    Dataset,
    ImageBag,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
)
from wsdsel.errors import ConfigError, DataError
from wsdsel.evaluation import evaluate_map
from wsdsel.geometry import BBox, iou
from wsdsel.trainer import init_params

SMALL = SynthConfig(n_images=12, num_classes=3, feat_dim=8, proposals_per_image=16, seed=7)


def _faults(message: str, *edits):
    """A manifest edit that makes every one of `edits` and returns the load's expected message."""
    def edit(manifest: dict) -> str:
        for one in edits:
            one(manifest)
        return message
    return edit


def _bad_box(image: int):
    return lambda m: m["images"][image]["ground_truth"][0]["box"].__setitem__(2, "0.9")


def _blocks(raw) -> list[tuple[int, int, int, int]]:
    """(offset, V, N, D) of each image's block in `raw`, the bytes of a features file."""
    (count,) = struct.unpack_from("<I", raw, 6)
    blocks, at = [], 10
    for _ in range(count):
        v, n, d = struct.unpack_from("<III", raw, at)
        blocks.append((at, v, n, d))
        at += 12 + 32 * n + 4 * v * n * d
    return blocks


def _edit_box_block(features, image, edit):
    """Call `edit` on the (N, 4) boxes of image `image` in `features`, a view of its bytes, then write them back."""
    raw = bytearray(features.read_bytes())
    at, _, n, _ = _blocks(raw)[image]
    edit(np.frombuffer(raw, "<f8", 4 * n, at + 12).reshape(n, 4))
    features.write_bytes(bytes(raw))


class TestSynthConfig:
    def test_rejects_zero_objects(self):
        with pytest.raises(ConfigError):
            SynthConfig(objects_max=0)

    def test_rejects_inverted_object_range(self):
        with pytest.raises(ConfigError):
            SynthConfig(objects_min=3, objects_max=1)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_noise(self, sigma):
        with pytest.raises(ConfigError, match="noise_sigma"):
            SynthConfig(noise_sigma=sigma)

    @pytest.mark.parametrize("strength", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_distractor_strength(self, strength):
        with pytest.raises(ConfigError, match="distractor_strength"):
            SynthConfig(distractor_strength=strength)

    def test_takes_any_finite_distractor_strength(self):
        assert SynthConfig(distractor_strength=-0.5).distractor_strength == -0.5

    def test_rejects_bad_context_fraction(self):
        with pytest.raises(ConfigError):
            SynthConfig(context_fraction=1.0)

    def test_rejects_infeasible_geometry(self):
        with pytest.raises(ConfigError):
            SynthConfig(proposals_per_image=4, objects_min=4, objects_max=4, context_fraction=0.3)


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(SMALL)
        b = generate_synthetic(SMALL)
        for bag_a, bag_b in zip(a.images, b.images):
            assert bag_a.id == bag_b.id
            assert bag_a.proposals == bag_b.proposals
            assert bag_a.views[0].tobytes() == bag_b.views[0].tobytes()
            np.testing.assert_array_equal(bag_a.labels, bag_b.labels)

    def test_labels_match_ground_truth(self):
        ds = generate_synthetic(SMALL)
        for bag in ds.images:
            present = {c for c, _ in bag.ground_truth}
            for j in range(ds.num_classes):
                assert bag.labels[j] == (1 if j in present else 0)

    def test_every_object_has_a_correct_proposal(self):
        # guarantees a perfect-selection CorLoc of 100% on generated data
        ds = generate_synthetic(SynthConfig())
        for bag in ds.images:
            for _, gt_box in bag.ground_truth:
                assert any(iou(p, gt_box) >= 0.5 for p in bag.proposals)

    def test_shapes_and_counts(self):
        ds = generate_synthetic(SMALL)
        assert len(ds.images) == SMALL.n_images
        assert len(ds.class_names) == SMALL.num_classes
        for bag in ds.images:
            assert bag.n_regions == SMALL.proposals_per_image
            assert bag.views[0].shape == (SMALL.proposals_per_image, SMALL.feat_dim)
            assert bag.views[0].dtype == np.float32

    def test_multi_view_shares_signal(self):
        cfg = SynthConfig(n_images=2, num_classes=2, feat_dim=16, proposals_per_image=8, n_views=3, seed=1)
        ds = generate_synthetic(cfg)
        bag = ds.images[0]
        assert len(bag.views) == 3
        # independent noise around the same signal: views differ but correlate
        assert not np.array_equal(bag.views[0], bag.views[1])
        corr = np.corrcoef(bag.views[0].ravel(), bag.views[1].ravel())[0, 1]
        assert corr > 0.1


class RecordingWorker:
    """Stands in for the head's branch worker: counts the tasks handed to it and runs them on the caller."""

    def __init__(self):
        self.tasks = 0

    def beside(self, task, own):
        self.tasks += 1
        own()
        task()


@pytest.fixture
def worker(monkeypatch):
    recording = RecordingWorker()
    monkeypatch.setattr(head, "_WORKER", recording)
    return recording


class TestFeatureSplit:
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("shape", [
        dict(),  # walkthrough: the generator defaults, N*D = 4096
        dict(num_classes=20, feat_dim=64, proposals_per_image=128, n_views=2),  # dense_eval: 8192 * 2 views
    ], ids=["walkthrough", "dense_eval"])
    def test_small_shapes_never_hand_a_task_to_the_worker(self, monkeypatch, worker, cpus, shape):
        monkeypatch.setattr(head, "_usable_cpus", lambda: cpus)
        generate_synthetic(SynthConfig(n_images=5, **shape))
        assert worker.tasks == 0

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_only_two_cpus_split_a_shape_over_the_gate(self, monkeypatch, worker, cpus):
        monkeypatch.setattr(head, "_usable_cpus", lambda: cpus)
        cfg = SynthConfig(n_images=5, num_classes=20, feat_dim=256, proposals_per_image=256)
        assert cfg.proposals_per_image * cfg.feat_dim >= data.FEATURE_SPLIT_MIN
        split = generate_synthetic(cfg)
        assert (worker.tasks > 0) == (cpus > 1)
        monkeypatch.setattr(head, "_usable_cpus", lambda: 1)
        for a, b in zip(split.images, generate_synthetic(cfg).images):
            assert [v.tobytes() for v in a.views] == [v.tobytes() for v in b.views]

    def test_forced_split_hands_tasks_at_any_shape(self, monkeypatch, worker):
        monkeypatch.setattr(head, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(data, "FEATURE_SPLIT_MIN", 1)
        generate_synthetic(SynthConfig(n_images=5))
        assert worker.tasks > 0


class TestSplit:
    def test_split_sizes(self):
        ds = generate_synthetic(SMALL)
        train, test = split_dataset(ds, 9)
        assert len(train.images) == 9
        assert len(test.images) == 3
        assert train.images[0].id == ds.images[0].id
        assert test.images[0].id == ds.images[9].id

    def test_rejects_bad_split(self):
        ds = generate_synthetic(SMALL)
        with pytest.raises(ConfigError):
            split_dataset(ds, 0)
        with pytest.raises(ConfigError):
            split_dataset(ds, len(ds.images))


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        ds = generate_synthetic(SMALL)
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.num_classes == ds.num_classes
        assert loaded.feat_dim == ds.feat_dim
        assert loaded.class_names == ds.class_names
        for a, b in zip(ds.images, loaded.images):
            assert a.id == b.id
            assert a.proposals == b.proposals
            assert a.ground_truth == b.ground_truth
            np.testing.assert_array_equal(a.labels, b.labels)
            assert len(a.views) == len(b.views)
            assert a.views[0].tobytes() == b.views[0].tobytes()

    def test_multi_view_round_trip(self, tmp_path):
        cfg = SynthConfig(n_images=3, num_classes=2, feat_dim=6, proposals_per_image=8, n_views=2, seed=3)
        ds = generate_synthetic(cfg)
        path = tmp_path / "mv.json"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        for a, b in zip(ds.images, loaded.images):
            assert len(b.views) == 2
            for va, vb in zip(a.views, b.views):
                assert va.tobytes() == vb.tobytes()

    def test_byte_identical_across_runs(self, tmp_path):
        for sub in ("one", "two"):
            save_dataset(generate_synthetic(SMALL), tmp_path / sub / "ds.json")
        a, b = tmp_path / "one", tmp_path / "two"
        for name in ("ds.json", "ds_features/features.wsdf"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_a_save_writes_two_files_and_a_load_opens_two(self, tmp_path, monkeypatch):
        ds = generate_synthetic(SMALL)
        save_dataset(ds, tmp_path / "ds.json")
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()) == [
            "ds.json", "ds_features/features.wsdf"]
        opened, real_open = [], open
        monkeypatch.setattr("builtins.open", lambda file, *args, **kwargs: opened.append(file) or real_open(
            file, *args, **kwargs))
        loaded = load_dataset(tmp_path / "ds.json")
        monkeypatch.undo()
        assert [str(Path(f).relative_to(tmp_path)) for f in opened] == ["ds.json", "ds_features/features.wsdf"]
        assert [bag.views.tobytes() for bag in loaded.images] == [bag.views.tobytes() for bag in ds.images]

    @pytest.mark.parametrize("odd", ["", ".", "..", "../escaped", "a/b", "a\\b", "nul\0here"])
    def test_an_id_names_no_file(self, tmp_path, odd):
        ds = generate_synthetic(SMALL)
        ds.images[1].id = odd
        save_dataset(ds, tmp_path / "out" / "ds.json")
        assert [bag.id for bag in load_dataset(tmp_path / "out" / "ds.json").images] == [bag.id for bag in ds.images]
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
            "out", "out/ds.json", "out/ds_features", "out/ds_features/features.wsdf"]

    def test_rejects_a_repeated_id(self, tmp_path):
        ds = generate_synthetic(SMALL)
        ds.images[3].id = ds.images[0].id
        with pytest.raises(DataError, match=r"image 3 \('im00000'\).*repeats"):
            save_dataset(ds, tmp_path / "out" / "ds.json")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("shape", [(2, 4), (3, 5)])  # fewer rows than the boxes; another feature dimension
    def test_rejects_a_view_not_shaped_as_its_boxes(self, tmp_path, shape):
        boxes = np.array([[0.1, 0.1, 0.5, 0.5], [0.2, 0.2, 0.6, 0.6], [0.0, 0.0, 1.0, 1.0]])
        bag = ImageBag("a", boxes=boxes, views=[np.zeros(shape, np.float32)], labels=np.array([1]))
        ds = Dataset(num_classes=1, feat_dim=4, class_names=["c"], images=[bag])
        with pytest.raises(DataError, match=re.escape(f"image a: view shape {shape} != (3, 4)")):
            save_dataset(ds, tmp_path / "ds.json")
        assert list(tmp_path.iterdir()) == []  # no manifest, features directory or features file

    def test_rejects_an_image_without_views(self, tmp_path):
        bag = ImageBag("a", boxes=np.array([[0.1, 0.1, 0.5, 0.5]]), views=[], labels=np.array([1]))
        ds = Dataset(num_classes=1, feat_dim=4, class_names=["c"], images=[bag])
        with pytest.raises(DataError, match="image a: no feature views"):
            save_dataset(ds, tmp_path / "ds.json")
        assert list(tmp_path.iterdir()) == []  # no manifest, features directory or features file

    @pytest.mark.parametrize("taken", ["ds.json", "ds_features", "ds_features/features.wsdf"])
    def test_a_path_that_cannot_be_written_leaves_nothing(self, tmp_path, taken):
        if taken == "ds_features":  # a file where the features directory goes
            (tmp_path / taken).touch()
        else:  # a directory where the manifest or the features file goes
            (tmp_path / taken).mkdir(parents=True)
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        with pytest.raises(OSError):
            save_dataset(generate_synthetic(SMALL), tmp_path / "ds.json")
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("failure", ["full disk", "directory"])
    def test_a_failed_save_keeps_the_files_it_would_have_replaced(self, tmp_path, full_disk, failure):
        # A saved dataset stands at the path; a save of another fails at the manifest, after the features file.
        save_dataset(generate_synthetic(SMALL), tmp_path / "ds.json")
        (tmp_path / "ds_features" / "other.wsdf").write_bytes(b"kept")
        if failure == "directory":
            (tmp_path / "ds.json").unlink()
            (tmp_path / "ds.json").mkdir()
        else:
            full_disk("ds.json")
        before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
        with pytest.raises(OSError):
            save_dataset(generate_synthetic(dataclasses.replace(SMALL, seed=8)), tmp_path / "ds.json")
        assert {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")} == before

    def test_a_save_inside_a_block_commits_with_it(self, tmp_path):
        # Both files are renamed into place when the outer block ends; a failure before then
        # removes their temporary files and the features directory.
        ds = generate_synthetic(SMALL)
        (tmp_path / "ds.json").write_text("previous\n")
        with pytest.raises(RuntimeError):
            with data.removed_on_failure():
                data.save_dataset(ds, tmp_path / "ds.json")
                assert (tmp_path / "ds.json").read_text() == "previous\n"
                raise RuntimeError("a later step fails")
        assert [p.name for p in tmp_path.iterdir()] == ["ds.json"]
        assert (tmp_path / "ds.json").read_text() == "previous\n"
        with data.removed_on_failure():
            data.save_dataset(ds, tmp_path / "ds.json")
            assert (tmp_path / "ds.json").read_text() == "previous\n"
        assert len(load_dataset(tmp_path / "ds.json").images) == len(ds.images)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_a_failed_write_removes_the_directories_it_made(self, tmp_path, full_disk):
        full_disk("ds.json")
        with pytest.raises(OSError, match="No space left on device"):
            save_dataset(generate_synthetic(SMALL), tmp_path / "new" / "dir" / "ds.json")
        assert list(tmp_path.iterdir()) == []

    def test_ids_are_names_not_paths(self, tmp_path):
        ds = generate_synthetic(SMALL)
        for bag, name in zip(ds.images, ["a.b", "...", " ", "caf\u00e9", "-x", "%s", "a:b"]):
            bag.id = name
        save_dataset(ds, tmp_path / "ds.json")
        assert [bag.id for bag in load_dataset(tmp_path / "ds.json").images] == [bag.id for bag in ds.images]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.json", "ds_features"]

    def test_load_peaks_at_the_manifest_text_and_the_arrays_it_returns(self, tmp_path):
        # Decoding holds the manifest's bytes and its str at once, so twice its size is the floor.
        # The boxes come from the features file, into the buffer their views share: proposals held as
        # Python floats would add a 24-byte float per coordinate, in 4-element lists.
        cfg = SynthConfig(n_images=8, num_classes=3, feat_dim=4, proposals_per_image=2048, seed=5)
        save_dataset(generate_synthetic(cfg), tmp_path / "ds.json")
        text = (tmp_path / "ds.json").stat().st_size
        tracemalloc.start()
        try:
            loaded = load_dataset(tmp_path / "ds.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = sum(bag.boxes.nbytes + sum(view.nbytes for view in bag.views) for bag in loaded.images)
        slack = 256 * 1024  # per-record lists, dicts, ids and the ground truth
        assert peak <= 2 * text + arrays + slack, (peak, text, arrays)

    def test_load_holds_one_record_text_at_a_time(self, tmp_path):
        # The same dataset as above. Its manifest holds no proposals, so its 8 records are a few
        # hundred bytes each, and the whole text decoded at once fits in the slack beside the arrays
        # the load returns, which hold every box and feature.
        cfg = SynthConfig(n_images=8, num_classes=3, feat_dim=4, proposals_per_image=2048, seed=5)
        save_dataset(generate_synthetic(cfg), tmp_path / "ds.json")
        records = json.loads((tmp_path / "ds.json").read_text())["images"]
        # The writer lays a record out as json.dumps(indent=1) does, two levels deeper.
        record = max(len(json.dumps(rec, indent=1).replace("\n", "\n  ")) for rec in records)
        tracemalloc.start()
        try:
            loaded = load_dataset(tmp_path / "ds.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = sum(bag.boxes.nbytes + sum(view.nbytes for view in bag.views) for bag in loaded.images)
        assert peak <= arrays + 3 * record + 256 * 1024, (peak, record, arrays)


class TestLoadValidation:
    def _saved(self, tmp_path):
        ds = generate_synthetic(SMALL)
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        return ds, path

    def test_truncated_features_file_reports_byte_counts(self, tmp_path):
        _, path = self._saved(tmp_path)
        features = tmp_path / "ds_features" / "features.wsdf"
        features.write_bytes(features.read_bytes()[:-8])
        with pytest.raises(DataError, match=r"^image im00011: truncated features file, expected 1024 bytes "
                                            r"of boxes and floats, got 1016$"):
            load_dataset(path)

    def test_bad_magic(self, tmp_path):
        _, path = self._saved(tmp_path)
        features = tmp_path / "ds_features" / "features.wsdf"
        raw = bytearray(features.read_bytes())
        raw[:4] = b"XXXX"
        features.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=f"^features file {re.escape(str(features))}: bad magic b'XXXX'$"):
            load_dataset(path)

    def test_non_finite_feature_rejected(self, tmp_path):
        _, path = self._saved(tmp_path)
        features = tmp_path / "ds_features" / "features.wsdf"
        raw = bytearray(features.read_bytes())
        at, _, n, _ = _blocks(raw)[1]
        at += 12 + 32 * n  # image 1's first float32, after its block header and its boxes
        raw[at : at + 4] = struct.pack("<f", float("nan"))
        features.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="im00001.*non-finite"):
            load_dataset(path)

    def test_wrong_label_length_rejected(self, tmp_path):
        _, path = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["images"][2]["labels"] = [0, 1]
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="im00002"):
            load_dataset(path)

    @pytest.mark.parametrize("first, second", [("dup", "dup"), ("7", 7)])
    def test_repeated_id_rejected(self, tmp_path, first, second):
        # ids compare as text (`str(id)`), so 7 repeats "7"
        _, path = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["images"][1]["id"], manifest["images"][3]["id"] = first, second
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=rf"image 3 \('{first}'\): id repeats image 1's"):
            load_dataset(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda b: b.__setitem__((3, 1), np.nan), "non-finite proposal box coordinates"),
        (lambda b: b.__setitem__((3, 2), np.inf), "non-finite proposal box coordinates"),
        (lambda b: b.__setitem__((3, 0), -np.inf), "non-finite proposal box coordinates"),
        (lambda b: b.__setitem__((3, 0), b[3, 2]), "degenerate proposal box 3"),  # x1 = x2
        (lambda b: b.__setitem__((3, 3), b[3, 1] - 0.25), "degenerate proposal box 3"),  # y2 < y1
    ], ids=["nan", "inf", "minus-inf", "x1-at-x2", "y2-below-y1"])
    def test_a_bad_box_in_the_features_file_names_its_image(self, tmp_path, edit, message):
        _, path = self._saved(tmp_path)
        _edit_box_block(tmp_path / "ds_features" / "features.wsdf", 2, edit)
        with pytest.raises(DataError, match=f"^image im00002: {message}"):
            load_dataset(path)

    @pytest.mark.parametrize("cut, message", [
        (5, "a 12-byte block header, got 5 bytes"),  # inside image 2's V, N, D
        (12, "1024 bytes of boxes and floats, got 0"),  # its block header alone
        (12 + 8, "1024 bytes of boxes and floats, got 8"),  # inside its first box
        (12 + 32 * 5 + 20, "1024 bytes of boxes and floats, got 180"),  # inside its sixth box
        (12 + 1023, "1024 bytes of boxes and floats, got 1023"),  # its last float cut short
    ], ids=["block-header", "header-only", "first-box", "sixth-box", "last-float"])
    def test_a_file_cut_inside_a_block_names_its_image(self, tmp_path, cut, message):
        _, path = self._saved(tmp_path)
        features = tmp_path / "ds_features" / "features.wsdf"
        raw = features.read_bytes()
        features.write_bytes(raw[: _blocks(raw)[2][0] + cut])
        with pytest.raises(DataError, match=f"^image im00002: truncated features file, expected {message}$"):
            load_dataset(path)

    def test_bytes_after_the_last_block_name_the_file(self, tmp_path):
        _, path = self._saved(tmp_path)
        features = tmp_path / "ds_features" / "features.wsdf"
        features.write_bytes(features.read_bytes() + b"\0" * 8)
        with pytest.raises(DataError, match=f"^features file {re.escape(str(features))}: 8 bytes after the last "
                                            "image's block$"):
            load_dataset(path)

    @pytest.mark.parametrize("count", [0, 11, 13])
    def test_an_image_count_other_than_the_manifests_names_the_file(self, tmp_path, count):
        _, path = self._saved(tmp_path)
        features = tmp_path / "ds_features" / "features.wsdf"
        raw = bytearray(features.read_bytes())
        raw[6:10] = struct.pack("<I", count)
        features.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=f"^features file {re.escape(str(features))} holds {count} images, "
                                            "the manifest 12$"):
            load_dataset(path)

    @pytest.mark.parametrize("version", [0, 1, 2, 4])
    def test_a_features_file_of_another_version_is_refused(self, tmp_path, version):
        _, path = self._saved(tmp_path)
        features = tmp_path / "ds_features" / "features.wsdf"
        raw = bytearray(features.read_bytes())
        raw[4:6] = struct.pack("<H", version)
        features.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=f"^features file {re.escape(str(features))}: unsupported version "
                                            f"{version}$"):
            load_dataset(path)

    def test_a_features_file_cut_inside_its_header_names_the_file(self, tmp_path):
        _, path = self._saved(tmp_path)
        features = tmp_path / "ds_features" / "features.wsdf"
        features.write_bytes(features.read_bytes()[:7])
        with pytest.raises(DataError, match=f"^features file {re.escape(str(features))}: truncated header, 7 bytes$"):
            load_dataset(path)

    def test_a_block_of_other_views_than_its_record_names_its_image(self, tmp_path):
        # V, N, D = 2, 16, 4 spans the bytes of 1, 16, 8: the block still ends where it did.
        _, path = self._saved(tmp_path)
        features = tmp_path / "ds_features" / "features.wsdf"
        raw = bytearray(features.read_bytes())
        at = _blocks(raw)[3][0]
        raw[at : at + 12] = struct.pack("<III", 2, 16, 4)
        features.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="^image im00003: manifest declares 1 views, features file has 2$"):
            load_dataset(path)

    def test_a_block_without_rows_has_no_proposals(self, tmp_path):
        _, path = self._saved(tmp_path)
        features = tmp_path / "ds_features" / "features.wsdf"
        raw = features.read_bytes()
        (at, v, _, d), (end, *_) = _blocks(raw)[1:3]
        features.write_bytes(raw[:at] + struct.pack("<III", v, 0, d) + raw[end:])  # N = 0: no boxes and no floats
        with pytest.raises(DataError, match="^image im00001: no proposals$"):
            load_dataset(path)

    def test_a_block_of_another_feature_dimension_names_its_image(self, tmp_path):
        _, path = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["d"] = SMALL.feat_dim + 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=r"^image im00000: view shape \(16, 8\) != \(16, 9\)$"):
            load_dataset(path)

    def test_the_load_records_the_features_file(self, tmp_path):
        _, path = self._saved(tmp_path)
        loaded = load_dataset(path)
        st = (tmp_path / "ds_features" / "features.wsdf").stat()
        assert loaded.features_file == (st.st_dev, st.st_ino)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m["images"][0]["ground_truth"][0]["box"].__setitem__(2, True),
            lambda m: m["images"][0]["ground_truth"][0]["box"].__setitem__(3, "1"),
            lambda m: m["images"][0]["ground_truth"][0]["box"].__setitem__(0, None),
            lambda m: m["images"][0]["ground_truth"][0]["box"].__setitem__(1, [0.1]),
            lambda m: m["images"][0]["ground_truth"][0]["box"].pop(),
            lambda m: m["images"][0]["ground_truth"][0]["box"].append(0.5),
            lambda m: m["images"][0]["ground_truth"][0].__setitem__("box", {"x1": 0.1}),
            lambda m: m["images"][0]["ground_truth"][0].__setitem__("box", 0.5),
            lambda m: m["images"][0]["ground_truth"][0]["box"].__setitem__(2, 10**400),
            lambda m: m["images"][0]["ground_truth"][0].__setitem__("class", 1.7),
            lambda m: m["images"][0]["ground_truth"][0].__setitem__("class", True),
            lambda m: m["images"][0]["ground_truth"][0].__setitem__("class", "1"),
            lambda m: m["images"][0]["ground_truth"][0].__setitem__("class", None),
            lambda m: m["images"][0]["ground_truth"][0].pop("box"),
            lambda m: m["images"][0].__setitem__("ground_truth", [[0, [0.1, 0.1, 0.2, 0.2]]]),
            # More than one fault: the checks run record by record in their order, so the first
            # fault in that order is reported, whatever was decoded first.
            pytest.param(_faults("image im00000: record missing views", _bad_box(0),
                                 lambda m: m["images"][0].pop("views")), id="bad-box-no-views"),
            pytest.param(_faults("image im00000: ground-truth boxes", _bad_box(0), _bad_box(1)),
                         id="two-bad-boxes"),
            pytest.param(_faults("image im00000: ground-truth classes", _bad_box(1),
                                 lambda m: m["images"][0]["ground_truth"][0].update({"class": 1.5})),
                         id="bad-class-then-bad-box"),
            pytest.param(_faults(r"image 1 \('im00000'\): id repeats image 0's", _bad_box(1),
                                 lambda m: m["images"][1].update(id="im00000")), id="repeated-id-bad-box"),
            pytest.param(_faults("manifest key 'c' must be a positive integer", _bad_box(0),
                                 lambda m: m.update(c=0)), id="bad-c-bad-box"),
        ],
    )
    def test_non_number_or_misshapen_coordinates_and_classes_rejected(self, tmp_path, edit):
        _, path = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        message = edit(manifest)  # an edit made by `_faults` returns the message it expects
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=message if isinstance(message, str) else "im00000"):
            load_dataset(path)

    def test_overflowing_coordinate_rejected(self, tmp_path):
        _, path = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["images"][0]["ground_truth"][0]["box"][3] = 12345.5
        path.write_text(json.dumps(manifest).replace("12345.5", "1e999"))  # parses as infinity
        with pytest.raises(DataError, match="im00000.*(non-finite|must be finite)"):
            load_dataset(path)

    def test_loaded_boxes_are_one_float64_array(self, tmp_path):
        ds, path = self._saved(tmp_path)
        for a, b in zip(ds.images, load_dataset(path).images):
            assert b.boxes.dtype == np.float64 and b.boxes.shape == (SMALL.proposals_per_image, 4)
            assert b.boxes.tobytes() == a.boxes.tobytes()

    def test_loaded_ground_truth_keeps_its_arrays(self, tmp_path):
        ds, path = self._saved(tmp_path)
        for a, b in zip(ds.images, load_dataset(path).images):
            assert b.gt_classes.dtype == a.gt_classes.dtype == np.intp
            assert b.gt_boxes.dtype == a.gt_boxes.dtype == np.float64
            assert b.gt_classes.tobytes() == a.gt_classes.tobytes() and b.gt_boxes.tobytes() == a.gt_boxes.tobytes()

    def test_no_bbox_is_built_from_generator_to_report(self, tmp_path, monkeypatch):
        built = []
        real = BBox.__post_init__
        monkeypatch.setattr(BBox, "__post_init__", lambda box: built.append(box) or real(box))
        ds = generate_synthetic(SMALL)
        save_dataset(ds, tmp_path / "ds.json")
        loaded = load_dataset(tmp_path / "ds.json")
        evaluate_map(loaded, init_params(SMALL.feat_dim, SMALL.num_classes, seed=0))
        assert built == []

    def test_hand_written_integer_coordinates_are_written_back_as_floats(self, tmp_path):
        _, path = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["images"][0]["ground_truth"][0]["box"] = [0, 0, 1, 1]
        path.write_text(json.dumps(manifest))
        save_dataset(load_dataset(path), tmp_path / "again" / "ds.json")
        box = json.loads((tmp_path / "again" / "ds.json").read_text())["images"][0]["ground_truth"][0]["box"]
        assert box == [0.0, 0.0, 1.0, 1.0] and {type(v) for v in box} == {float}  # written as 0.0, not 0

    def test_deeply_nested_labels_are_shown_bounded(self, tmp_path):
        # 980 levels decode (below json's limit) from a shallow stack, as under `wsdsel train`, so the
        # load runs on a thread of its own; the message shows six of them.
        _, path = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["images"][0]["labels"] = "NESTED"
        path.write_text(json.dumps(manifest).replace('"NESTED"', "[" * 980 + "]" * 980))
        caught = []
        loader = threading.Thread(target=lambda: caught.append(pytest.raises(DataError, load_dataset, path).value))
        loader.start()
        loader.join()
        assert str(caught[0]) == "image im00000: labels must be a list of 0/1 integers, got [[[[[[[...]]]]]]]"

    def test_long_class_names_are_shown_bounded(self, tmp_path):
        _, path = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["class_names"] = [f"class{i:03d}" for i in range(499)] + [7]
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError) as caught:
            load_dataset(path)
        shown = ", ".join(f"'class{i:03d}'" for i in range(20))
        assert str(caught.value) == f"manifest key 'class_names' must be a list of strings, got [{shown}, ...]"

    @pytest.mark.parametrize("key, value", [
        ("labels", [0, 2, 1]),
        ("labels", list(range(20))),  # a 20-class label vector shows whole
        ("features", ["a", 1.5, None, True]),
        ("class", "1"),  # shown as the image's list of classes
        ("class_names", ["a", 1, "c"]),
    ])
    def test_short_bad_values_are_shown_whole(self, tmp_path, key, value):
        _, path = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        record = manifest["images"][0]
        if key in ("class_names", "features"):
            manifest[key] = value
        elif key == "class":
            record["ground_truth"][0][key] = value
        else:
            record[key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError) as caught:
            load_dataset(path)
        shown = repr([value, *(g["class"] for g in record["ground_truth"][1:])] if key == "class" else value)
        assert str(caught.value).endswith(f", got {shown}")

    def test_ground_truth_class_beyond_the_array_range_rejected(self, tmp_path):
        _, path = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["images"][0]["ground_truth"][0]["class"] = 10**30
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="im00000: ground-truth class out of range"):
            load_dataset(path)

    def test_view_count_mismatch_rejected(self, tmp_path):
        _, path = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["images"][0]["views"] = 2
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="im00000.*views"):
            load_dataset(path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path / "nope.json")

    @pytest.mark.parametrize("damage, says", [
        pytest.param(lambda raw: raw[: raw.index(b'"id": "im00003"') + 40], "Expecting", id="truncated-mid-record"),
        pytest.param(lambda raw: raw + b' {"c": 3}\n', "Extra data", id="trailing-data"),
        pytest.param(lambda raw: b"\xef\xbb\xbf" + raw, "Unexpected UTF-8 BOM", id="utf8-bom"),
        pytest.param(lambda raw: raw.replace(b"im00005", b"im\xff0005", 1), "can't decode byte 0xff in position",
                     id="invalid-utf8"),
        pytest.param(lambda raw: b"[" + raw + b"]", "must be a JSON object, got list", id="top-level-list"),
        pytest.param(lambda raw: raw.replace(b'"c":', b'3:', 1), "Expecting property name", id="key-not-a-string"),
    ])
    def test_text_that_is_not_one_json_object_fails_as_json_load_does(self, tmp_path, damage, says):
        # The message is json.load's: an invalid byte, for one, is named by its position in the whole file.
        _, path = self._saved(tmp_path)
        path.write_bytes(damage(path.read_bytes()))
        try:
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
            message = f"dataset manifest {path} must be a JSON object, got {type(manifest).__name__}"
        except ValueError as err:
            message = f"cannot load dataset manifest {path}: {err}"
        with pytest.raises(DataError) as caught:
            load_dataset(path)
        assert str(caught.value) == message and says in message


def _same_dataset(got: Dataset, want: Dataset):
    assert (got.num_classes, got.feat_dim, got.class_names) == (want.num_classes, want.feat_dim, want.class_names)
    assert len(got.images) == len(want.images)
    for a, b in zip(got.images, want.images):
        assert a.id == b.id
        for name in ("boxes", "labels", "gt_classes", "gt_boxes"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        assert [view.tobytes() for view in a.views] == [view.tobytes() for view in b.views]


@pytest.mark.parametrize("cfg", [
    SynthConfig(n_images=4, seed=3),  # the walkthrough shape: the generator defaults, N=64, C=6, D=64
    SynthConfig(n_images=3, num_classes=20, feat_dim=64, proposals_per_image=128, n_views=2, seed=201),  # dense_eval
    SynthConfig(n_images=2, num_classes=20, feat_dim=16, proposals_per_image=2048, n_views=2, seed=4),
], ids=["walkthrough", "dense-eval", "n2048"])
def test_a_saved_dataset_loads_bit_equal(tmp_path, cfg):
    ds = generate_synthetic(cfg)
    save_dataset(ds, tmp_path / "ds.json")
    assert all("proposals" not in rec for rec in json.loads((tmp_path / "ds.json").read_text())["images"])
    loaded = load_dataset(tmp_path / "ds.json")
    _same_dataset(loaded, ds)
    for bag in loaded.images:  # the boxes and the views are views of the one buffer each block is read into
        assert bag.boxes.base is bag.views[0].base and bag.boxes.flags.aligned


def test_views_are_one_array_generated_and_loaded(tmp_path):
    cfg = SynthConfig(n_images=3, num_classes=2, feat_dim=6, proposals_per_image=8, n_views=3, seed=3)
    ds = generate_synthetic(cfg)
    save_dataset(ds, tmp_path / "ds.json")
    for bags in (ds.images, load_dataset(tmp_path / "ds.json").images):
        for bag in bags:
            assert type(bag.views) is np.ndarray and bag.views.shape == (3, 8, 6) and bag.views.dtype == np.float32
            assert np.ascontiguousarray(bag.views, dtype="<f4") is bag.views  # the features writer copies nothing


def test_a_loaded_dataset_saves_to_the_same_bytes(tmp_path):
    save_dataset(generate_synthetic(SMALL), tmp_path / "one" / "ds.json")
    save_dataset(load_dataset(tmp_path / "one" / "ds.json"), tmp_path / "two" / "ds.json")
    files = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(tmp_path / "two") for p in (tmp_path / "two").rglob("*") if p.is_file())
    for name in files:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


class TestImageBag:
    def test_proposals_are_the_box_rows_as_bboxes(self):
        boxes = [BBox(0, 0, 1, 2), BBox(0.5, 0.25, 3, 4)]
        bag = ImageBag(id="x", proposals=boxes, views=[np.zeros((2, 1), np.float32)], labels=np.array([1]))
        assert bag.boxes.dtype == np.float64
        assert bag.boxes.tolist() == [[0, 0, 1, 2], [0.5, 0.25, 3, 4]]
        assert bag.proposals == boxes and bag.n_regions == 2
        same = ImageBag(id="x", boxes=bag.boxes, views=bag.views, labels=bag.labels)
        assert same.boxes is bag.boxes and same.proposals == boxes

    def test_views_are_one_array(self):
        views = np.arange(12, dtype=np.float32).reshape(2, 3, 2)
        assert ImageBag(id="x", boxes=np.zeros((3, 4)), views=views, labels=np.array([1])).views is views
        stacked = ImageBag(id="x", boxes=np.zeros((3, 4)), views=list(views), labels=np.array([1])).views
        assert stacked.shape == (2, 3, 2) and stacked.tobytes() == views.tobytes()

    def test_takes_boxes_or_proposals_not_both(self):
        views, labels = [np.zeros((1, 1), np.float32)], np.array([1])
        with pytest.raises(ValueError):
            ImageBag(id="x", views=views, labels=labels)
        with pytest.raises(ValueError):
            ImageBag(id="x", boxes=np.zeros((1, 4)), proposals=[BBox(0, 0, 1, 1)], views=views, labels=labels)

    @pytest.mark.parametrize("where", ["proposal", "ground-truth"])
    @pytest.mark.parametrize(
        "row, match",
        [([0.5, 0.0, 0.5, 1.0], "degenerate"), ([0.0, 0.7, 1.0, 0.2], "degenerate"), ([0.0, np.nan, 1.0, 1.0], "non-finite"),
         ([0.0, 0.0, np.inf, 1.0], "non-finite")],
    )
    def test_validate_checks_every_box(self, row, match, where):
        good = [0.0, 0.0, 1.0, 1.0]
        boxes, gt = ([good, row], [good]) if where == "proposal" else ([good, good], [good, row])
        bag = ImageBag(id="x", boxes=np.array(boxes), views=[np.zeros((2, 1), np.float32)], labels=np.array([1]),
                       ground_truth=[(0, box) for box in gt])
        ds = Dataset(num_classes=1, feat_dim=1, class_names=["a"], images=[bag])
        with pytest.raises(DataError, match=f"x: {match} {where} box"):
            ds.validate()

    @pytest.mark.parametrize("class_id", [-1, 2])
    def test_validate_checks_ground_truth_classes(self, class_id):
        bag = ImageBag(id="x", boxes=np.array([[0.0, 0.0, 1.0, 1.0]]), views=[np.zeros((1, 1), np.float32)],
                       labels=np.array([1, 0]), ground_truth=[(0, (0.1, 0.1, 0.2, 0.2)), (class_id, (0.1, 0.1, 0.2, 0.2))])
        ds = Dataset(num_classes=2, feat_dim=1, class_names=["a", "b"], images=[bag])
        with pytest.raises(DataError, match=f"x: ground-truth class {class_id} out of range"):
            ds.validate()

    def test_ground_truth_pairs_of_bboxes_or_tuples_give_equal_arrays(self):
        rows = [(0.1, 0.2, 0.3, 0.4), (0, 0, 1, 2)]
        views, labels = [np.zeros((1, 1), np.float32)], np.array([1, 1, 1])
        made = [ImageBag(id="x", boxes=np.zeros((1, 4)), views=views, labels=labels,
                         ground_truth=[(c, box) for c, box in zip([2, 0], boxes)])
                for boxes in (rows, [BBox(*row) for row in rows], iter(rows))]
        for bag in made:
            assert bag.gt_classes.dtype == np.intp and bag.gt_classes.tolist() == [2, 0]
            assert bag.gt_boxes.dtype == np.float64 and bag.gt_boxes.shape == (2, 4)
            assert bag.gt_boxes.tobytes() == made[0].gt_boxes.tobytes()
            assert bag.ground_truth == [(2, BBox(*rows[0])), (0, BBox(*rows[1]))]
        empty = ImageBag(id="x", boxes=np.zeros((1, 4)), views=views, labels=labels)
        assert empty.gt_classes.shape == (0,) and empty.gt_boxes.shape == (0, 4) and empty.ground_truth == []


def value_faults(test):
    """`test` run for a value fault of every kind in each of `_value_fault`'s four images."""
    test = pytest.mark.parametrize("fault, message", [
        ("proposal_nan", "non-finite proposal box coordinates"),
        ("proposal_flat", "degenerate proposal box 1 (non-positive area): [0.5, 0.0, 0.5, 1.0]"),
        ("truth_inf", "non-finite ground-truth box coordinates"),
        ("truth_flat", "degenerate ground-truth box 0 (non-positive area): [0.0, 0.5, 1.0, 0.5]"),
        ("label", "labels must be 0/1"),
        ("truth_class", "ground-truth class 3 out of range"),
    ])(test)
    return pytest.mark.parametrize("image", range(4))(test)


def _value_fault(image: int, fault: str) -> Dataset:
    """Four images, one of them (`image`) with the value fault `fault`."""
    # images of 3, 1, 4 and 2 regions, with 1, 0, 2 and 1 ground-truth boxes, so that the rows of
    # the concatenated arrays fall to their images unevenly
    good = [0.0, 0.0, 1.0, 1.0]
    bags = [ImageBag(id=f"im{i}", boxes=np.array([good] * n), views=[np.zeros((n, 2), np.float32)],
                     labels=np.array([1, 0, 1]), ground_truth=[(i % 3, good)] * g)
            for i, (n, g) in enumerate([(3, 1), (1, 0), (4, 2), (2, 1)])]
    bag = bags[image]
    if fault.startswith("truth") and not len(bag.gt_boxes):
        bag = ImageBag(id=bag.id, boxes=bag.boxes, views=bag.views, labels=bag.labels, ground_truth=[(0, good)])
        bags[image] = bag
    if fault == "proposal_nan":
        bag.boxes[-1, 2] = np.nan
    elif fault == "proposal_flat":
        bag.boxes = np.concatenate([bag.boxes[:1], [[0.5, 0.0, 0.5, 1.0]], bag.boxes[1:]])
        bag.views = np.zeros((1, len(bag.boxes), 2), np.float32)
    elif fault == "truth_inf":
        bag.gt_boxes[-1, 0] = -np.inf
    elif fault == "truth_flat":
        bag.gt_boxes[0] = [0.0, 0.5, 1.0, 0.5]
    elif fault == "label":
        bag.labels = np.array([1, 2, 0])
    else:
        bag.gt_classes[-1] = 3
    return Dataset(num_classes=3, feat_dim=2, class_names=["a", "b", "c"], images=bags)


class TestDatasetValidate:
    def test_catches_shape_drift(self):
        bag = ImageBag(
            id="x",
            proposals=[BBox(0, 0, 1, 1)],
            views=[np.zeros((1, 4), dtype=np.float32)],
            labels=np.array([1, 0]),
        )
        ds = Dataset(num_classes=2, feat_dim=5, class_names=["a", "b"], images=[bag])
        with pytest.raises(DataError, match="x.*view shape"):
            ds.validate()

    def test_catches_proposal_boxes_of_three_columns(self):
        bag = ImageBag(id="x", boxes=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]),
                       views=[np.zeros((2, 4), dtype=np.float32)], labels=np.array([1]))
        ds = Dataset(num_classes=1, feat_dim=4, class_names=["a"], images=[bag])
        with pytest.raises(DataError, match=re.escape("image x: proposal boxes have shape (2, 3), expected (2, 4)")):
            ds.validate()

    def test_catches_an_image_without_views(self):
        bag = ImageBag(id="x", proposals=[BBox(0, 0, 1, 1)], views=[], labels=np.array([1]))
        ds = Dataset(num_classes=1, feat_dim=4, class_names=["a"], images=[bag])
        with pytest.raises(DataError, match="^image x: no feature views$"):
            ds.validate()

    def test_catches_a_non_finite_value_in_any_view(self):
        views = np.zeros((2, 1, 4), np.float32)
        views[1, 0, 3] = np.inf
        bag = ImageBag(id="x", proposals=[BBox(0, 0, 1, 1)], views=views, labels=np.array([1]))
        ds = Dataset(num_classes=1, feat_dim=4, class_names=["a"], images=[bag])
        with pytest.raises(DataError, match="^image x: non-finite feature values$"):
            ds.validate()

    @value_faults
    def test_a_value_fault_names_its_image(self, image, fault, message):
        with pytest.raises(DataError) as err:
            _value_fault(image, fault).validate()
        assert str(err.value) == f"image im{image}: {message}"

    @pytest.mark.parametrize("rows", [1, 5, 9])
    @value_faults
    def test_a_value_fault_names_its_image_whatever_the_runs(self, monkeypatch, rows, image, fault, message):
        # Runs of at most 1, 5 or 9 box rows cut the images (4, 1, 6 and 3 rows, or one more with a
        # fault that adds a row) into runs of one image, of two, and of an image above the limit alone.
        monkeypatch.setattr(data, "VALIDATE_ROWS", rows)
        with pytest.raises(DataError) as err:
            _value_fault(image, fault).validate()
        assert str(err.value) == f"image im{image}: {message}"

    def test_value_check_copies_are_bounded(self, monkeypatch):
        # 40 images of 2048 proposals: a copy of every box would take 2.6 MB, a run's at most
        # VALIDATE_ROWS rows of four float64 coordinates.
        monkeypatch.setattr(data, "VALIDATE_ROWS", 4096)
        boxes, views = np.tile([0.0, 0.0, 1.0, 1.0], (2048, 1)), [np.zeros((2048, 1), np.float32)]
        bags = [ImageBag(id=f"im{i}", boxes=boxes, views=views, labels=np.array([1]), ground_truth=[(0, (0, 0, 1, 1))])
                for i in range(40)]
        ds = Dataset(num_classes=1, feat_dim=1, class_names=["a"], images=bags)
        tracemalloc.start()
        try:
            ds.validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 4096 * 4 * 8

