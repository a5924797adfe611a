import json
import struct

import numpy as np
import pytest

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


class TestSynthConfig:
    def test_rejects_zero_objects(self):
        with pytest.raises(ConfigError):
            SynthConfig(objects_max=0)

    def test_rejects_inverted_object_range(self):
        with pytest.raises(ConfigError):
            SynthConfig(objects_min=3, objects_max=1)

    def test_rejects_bad_noise(self):
        with pytest.raises(ConfigError):
            SynthConfig(noise_sigma=0.0)

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
        assert (a / "ds.json").read_bytes() == (b / "ds.json").read_bytes()
        sidecars = sorted(p.name for p in (a / "ds_features").iterdir())
        assert sidecars == sorted(p.name for p in (b / "ds_features").iterdir())
        for name in sidecars:
            assert (a / "ds_features" / name).read_bytes() == (b / "ds_features" / name).read_bytes()

    @pytest.mark.parametrize("bad", ["", ".", "..", "../escaped", "a/b", "a\\b", "nul\0here"])
    def test_rejects_an_id_that_cannot_name_a_sidecar(self, tmp_path, bad):
        ds = generate_synthetic(SMALL)
        ds.images[1].id = bad
        with pytest.raises(DataError, match=r"image 1 .*cannot name a feature file"):
            save_dataset(ds, tmp_path / "out" / "ds.json")
        assert not (tmp_path / "out").exists()

    def test_rejects_a_repeated_id(self, tmp_path):
        ds = generate_synthetic(SMALL)
        ds.images[3].id = ds.images[0].id
        with pytest.raises(DataError, match=r"image 3 \('im00000'\).*repeats"):
            save_dataset(ds, tmp_path / "out" / "ds.json")
        assert not (tmp_path / "out").exists()

    def test_ids_are_names_not_paths(self, tmp_path):
        ds = generate_synthetic(SMALL)
        for bag, name in zip(ds.images, ["a.b", "...", " ", "caf\u00e9", "-x", "%s", "a:b"]):
            bag.id = name
        save_dataset(ds, tmp_path / "ds.json")
        assert [bag.id for bag in load_dataset(tmp_path / "ds.json").images] == [bag.id for bag in ds.images]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.json", "ds_features"]


class TestLoadValidation:
    def _saved(self, tmp_path):
        ds = generate_synthetic(SMALL)
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        return ds, path

    def test_truncated_sidecar_reports_byte_counts(self, tmp_path):
        ds, path = self._saved(tmp_path)
        sidecar = tmp_path / "ds_features" / f"{ds.images[0].id}.wsdf"
        raw = sidecar.read_bytes()
        sidecar.write_bytes(raw[:-8])
        with pytest.raises(DataError, match=r"im00000.*expected \d+ bytes.*got \d+"):
            load_dataset(path)

    def test_bad_magic(self, tmp_path):
        ds, path = self._saved(tmp_path)
        sidecar = tmp_path / "ds_features" / f"{ds.images[0].id}.wsdf"
        raw = bytearray(sidecar.read_bytes())
        raw[:4] = b"XXXX"
        sidecar.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="magic"):
            load_dataset(path)

    def test_non_finite_feature_rejected(self, tmp_path):
        ds, path = self._saved(tmp_path)
        sidecar = tmp_path / "ds_features" / f"{ds.images[1].id}.wsdf"
        raw = bytearray(sidecar.read_bytes())
        raw[18:22] = struct.pack("<f", float("nan"))
        sidecar.write_bytes(bytes(raw))
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
        # ids compare as the text that names a sidecar, so 7 repeats "7"
        _, path = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["images"][1]["id"], manifest["images"][3]["id"] = first, second
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=rf"image 3 \('{first}'\): id repeats image 1's"):
            load_dataset(path)

    def test_degenerate_proposal_rejected(self, tmp_path):
        _, path = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["images"][0]["proposals"][0] = [0.5, 0.5, 0.5, 0.9]
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="im00000"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m["images"][0]["proposals"][0].__setitem__(2, True),
            lambda m: m["images"][0]["proposals"][0].__setitem__(2, "0.9"),
            lambda m: m["images"][0]["proposals"][0].__setitem__(0, None),
            lambda m: m["images"][0]["proposals"][0].__setitem__(1, [0.1]),
            lambda m: m["images"][0]["proposals"][0].pop(),
            lambda m: m["images"][0]["proposals"][0].append(0.5),
            lambda m: m["images"][0]["proposals"].__setitem__(3, {"x1": 0.1}),
            lambda m: m["images"][0]["proposals"].__setitem__(3, 0.5),
            lambda m: m["images"][0]["proposals"][0].__setitem__(2, 10**400),
            lambda m: m["images"][0]["ground_truth"][0]["box"].__setitem__(2, True),
            lambda m: m["images"][0]["ground_truth"][0]["box"].__setitem__(3, "1"),
            lambda m: m["images"][0]["ground_truth"][0]["box"].pop(),
            lambda m: m["images"][0]["ground_truth"][0].__setitem__("class", 1.7),
            lambda m: m["images"][0]["ground_truth"][0].__setitem__("class", True),
            lambda m: m["images"][0]["ground_truth"][0].__setitem__("class", "1"),
            lambda m: m["images"][0]["ground_truth"][0].__setitem__("class", None),
            lambda m: m["images"][0]["ground_truth"][0].pop("box"),
            lambda m: m["images"][0].__setitem__("ground_truth", [[0, [0.1, 0.1, 0.2, 0.2]]]),
        ],
    )
    def test_non_number_or_misshapen_coordinates_and_classes_rejected(self, tmp_path, edit):
        _, path = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="im00000"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "edit",
        [lambda m, v: m["images"][0]["proposals"][0].__setitem__(2, v),
         lambda m, v: m["images"][0]["ground_truth"][0]["box"].__setitem__(3, v)],
    )
    def test_overflowing_coordinate_rejected(self, tmp_path, edit):
        _, path = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        edit(manifest, 12345.5)
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


class TestImageBag:
    def test_proposals_are_the_box_rows_as_bboxes(self):
        boxes = [BBox(0, 0, 1, 2), BBox(0.5, 0.25, 3, 4)]
        bag = ImageBag(id="x", proposals=boxes, views=[np.zeros((2, 1), np.float32)], labels=np.array([1]))
        assert bag.boxes.dtype == np.float64
        assert bag.boxes.tolist() == [[0, 0, 1, 2], [0.5, 0.25, 3, 4]]
        assert bag.proposals == boxes and bag.n_regions == 2
        same = ImageBag(id="x", boxes=bag.boxes, views=bag.views, labels=bag.labels)
        assert same.boxes is bag.boxes and same.proposals == boxes

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
