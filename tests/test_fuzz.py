"""Corrupted inputs must end in a documented exit code: 2 config, 3 data, 4 numerical.

Each example copies a small valid dataset and checkpoint, applies one
corruption that no valid input could have (down to one coordinate of one
box, or one ground-truth class), and runs `wsdsel eval` (and
`wsdsel train` when the dataset is the corrupted file) in-process. A
traceback fails the test as an uncaught exception; exit 0 fails it as a
report computed from corrupt input.
"""

import json
import math
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from wsdsel.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main

C, D, N, IMAGES = 3, 4, 8, 3
DOCUMENTED = {EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**40) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def is_int(value, *allowed) -> bool:
    return type(value) is int and value in allowed


# For each manifest key, the values that no valid manifest of this dataset can hold there.
# (A JSON text key of at most 3 characters never names a record field, so a generated
# object is never a valid image or ground-truth record.)
INVALID = {
    "c": lambda v: not is_int(v, C),
    "d": lambda v: not is_int(v, D),
    "class_names": lambda v: not (isinstance(v, list) and len(v) == C and all(isinstance(x, str) for x in v)),
    "images": lambda v: True,
    "proposals": lambda v: not (isinstance(v, list) and len(v) == N),
    "labels": lambda v: not (isinstance(v, list) and len(v) == C and all(is_int(x, 0, 1) for x in v)),
    "feature_file": lambda v: not isinstance(v, str),
    "views": lambda v: not is_int(v, 2),
    "ground_truth": lambda v: not (isinstance(v, (list, dict, str)) and len(v) == 0),
}
TOP_KEYS = ("c", "d", "class_names", "images")
RECORD_KEYS = ("proposals", "labels", "feature_file", "views", "ground_truth")
REQUIRED_RECORD_KEYS = ("proposals", "labels", "feature_file", "views")


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine")
    assert main(["synth", "--out", str(root / "ds.json"), "--n-images", str(IMAGES), "--num-classes", str(C),
                 "--feat-dim", str(D), "--proposals-per-image", str(N), "--n-views", "2",
                 "--objects-max", "2"]) == EXIT_OK
    assert main(["train", "--dataset", str(root / "ds.json"), "--out", str(root / "ckpt.wsdc"),
                 "--epochs", "1", "--warmup-epochs", "1", "--m-start", "4", "--m-final", "2", "--m-neg", "2"]) == EXIT_OK
    (root / "ds.json.manifest.json").unlink()
    (root / "ckpt.wsdc.manifest.json").unlink()
    return root


def edit_manifest(root: Path, edit):
    path = root / "ds.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def ground_truth_record(manifest, image: int, g: int) -> dict:
    records = manifest["images"][image]["ground_truth"]
    return records[g % len(records)]  # every pristine image has one or two objects


def box_row(manifest, image: int, field: str, r: int) -> list:
    if field == "proposals":
        return manifest["images"][image]["proposals"][r % N]
    return ground_truth_record(manifest, image, r)["box"]


def coordinate_edit():
    """One coordinate made a non-number, infinite or out of order, or removed, or one number too many in the row."""
    non_number = st.one_of(
        st.none(), st.booleans(), st.text(max_size=4), st.sampled_from([math.inf, -math.inf, "0.5", "1"]),
        JSON_VALUES.filter(lambda v: type(v) not in (int, float)),
    )
    return st.one_of(
        non_number.map(lambda v: (f"={v!r}", lambda row, q: row.__setitem__(q, v))),
        # x1 >= x2 or y1 >= y2: q ^ 2 is the other coordinate of the same axis
        st.floats(0.0, 10.0).map(
            lambda d: (f"past its pair by {d!r}", lambda row, q: row.__setitem__(q, row[q ^ 2] + (d if q < 2 else -d)))
        ),
        st.just(("removed", lambda row, q: row.pop(q))),
        st.just(("plus one", lambda row, q: row.insert(q, 0.5))),
    )


def box_or_class_corruption():
    """One coordinate of one proposal or ground-truth box (see `coordinate_edit`), or one ground-truth class, made invalid."""
    image = st.integers(0, IMAGES - 1)
    return st.one_of(
        st.tuples(image, st.integers(0, 1), st.one_of(
            st.sampled_from([1.7, 1.0, True, False, "1", None]), JSON_VALUES.filter(lambda v: not is_int(v, *range(C)))
        )).map(
            lambda t: (
                f"set image {t[0]} ground truth {t[1]} class={t[2]!r}",
                lambda m: ground_truth_record(m, t[0], t[1]).__setitem__("class", t[2]),
            )
        ),
        st.tuples(image, st.sampled_from(["proposals", "ground_truth"]), st.integers(0, N - 1), st.integers(0, 3),
                  coordinate_edit()).map(
            lambda t: (
                f"image {t[0]} {t[1]} row {t[2]} coordinate {t[3]} {t[4][0]}",
                lambda m: t[4][1](box_row(m, t[0], t[1], t[2]), t[3]),
            )
        ),
    ).map(lambda named: ("manifest", named[0], lambda root: edit_manifest(root, named[1])))


def manifest_corruption():
    top_key = st.sampled_from(TOP_KEYS)
    record_key = st.sampled_from(RECORD_KEYS)
    image = st.integers(0, IMAGES - 1)
    return st.one_of(
        top_key.map(lambda k: (f"drop {k}", lambda m: m.pop(k))),
        st.tuples(image, st.sampled_from(REQUIRED_RECORD_KEYS)).map(
            lambda t: (f"drop image {t[0]} {t[1]}", lambda m: m["images"][t[0]].pop(t[1]))
        ),
        top_key.flatmap(
            lambda k: JSON_VALUES.filter(INVALID[k]).map(lambda v: (f"set {k}={v!r}", lambda m: m.update({k: v})))
        ),
        st.tuples(image, record_key).flatmap(
            lambda t: JSON_VALUES.filter(INVALID[t[1]]).map(
                lambda v: (f"set image {t[0]} {t[1]}={v!r}", lambda m: m["images"][t[0]].update({t[1]: v}))
            )
        ),
    ).map(lambda named: ("manifest", named[0], lambda root: edit_manifest(root, named[1])))


def truncate_manifest(cut_share):
    def corrupt(root: Path):
        path = root / "ds.json"
        text = path.read_text()
        path.write_text(text[: int(cut_share * text.rindex("}"))])  # the top-level object stays open

    return corrupt


def binary_corruption(target: str, header_fields: list[tuple[int, str]], payload_start: int, payload_end):
    """Truncation, appended bytes, a changed header field, or a non-finite float in the payload."""

    def truncate(share):
        def corrupt(path: Path):
            raw = path.read_bytes()
            path.write_bytes(raw[: int(share * (len(raw) - 1))])

        return corrupt

    def append(extra):
        return lambda path: path.write_bytes(path.read_bytes() + extra)

    def set_field(field, delta):
        offset, fmt = field

        def corrupt(path: Path):
            raw = bytearray(path.read_bytes())
            (old,) = struct.unpack_from(fmt, raw, offset)
            modulus = 1 << (8 * struct.calcsize(fmt))
            struct.pack_into(fmt, raw, offset, (old + 1 + (delta - 1) % (modulus - 1)) % modulus)  # never `old`
            path.write_bytes(bytes(raw))

        return corrupt

    def non_finite(position, value):
        def corrupt(path: Path):
            raw = bytearray(path.read_bytes())
            slots = (payload_end(len(raw)) - payload_start) // 4
            struct.pack_into("<f", raw, payload_start + 4 * int(position * (slots - 1)), value)
            path.write_bytes(bytes(raw))

        return corrupt

    return st.one_of(
        st.floats(0.0, 1.0, exclude_max=True).map(lambda s: (f"truncate at {s:.3f}", truncate(s))),
        st.binary(min_size=1, max_size=8).map(lambda b: (f"append {b!r}", append(b))),
        st.tuples(st.sampled_from(header_fields), st.integers(1, 2**16)).map(
            lambda t: (f"header field at {t[0][0]} += {t[1]}", set_field(*t))
        ),
        st.tuples(st.floats(0.0, 1.0), st.sampled_from([float("nan"), float("inf"), float("-inf")])).map(
            lambda t: (f"payload {t[1]} at {t[0]:.3f}", non_finite(*t))
        ),
    ).map(lambda named: (target, named[0], named[1]))


MAGIC_BYTES = [(i, "<B") for i in range(4)]
SIDECAR = binary_corruption("sidecar", MAGIC_BYTES + [(4, "<H"), (6, "<I"), (10, "<I"), (14, "<I")], 18, lambda n: n)
CHECKPOINT = binary_corruption("checkpoint", MAGIC_BYTES + [(4, "<I"), (8, "<I"), (12, "<I")], 16, lambda n: n - 4)


def id_copy(source: int, target: int):
    """Image `target`'s id replaced by image `source`'s."""
    def edit(m):
        m["images"][target]["id"] = m["images"][source]["id"]

    return "manifest", f"copy image {source} id onto image {target}", lambda root: edit_manifest(root, edit)


def corruption():
    return st.one_of(
        manifest_corruption(),
        st.permutations(range(IMAGES)).map(lambda order: id_copy(order[0], order[1])),
        st.floats(0.0, 1.0, exclude_max=True).map(lambda s: ("manifest", f"truncate at {s:.3f}", truncate_manifest(s))),
        st.tuples(SIDECAR, st.integers(0, IMAGES - 1)).map(
            lambda t: ("sidecar", f"image {t[1]}: {t[0][1]}", lambda root: t[0][2](sorted((root / "ds_features").iterdir())[t[1]]))
        ),
        CHECKPOINT.map(lambda t: ("checkpoint", t[1], lambda root: t[2](root / "ckpt.wsdc"))),
    )


def run_corrupted(pristine, case, exits=DOCUMENTED):
    target, description, corrupt = case
    note(f"{target}: {description}")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "run"
        shutil.copytree(pristine, root)
        corrupt(root)
        dataset, report = str(root / "ds.json"), root / "report.json"
        code = main(["eval", "--dataset", dataset, "--checkpoint", str(root / "ckpt.wsdc"), "--out", str(report)])
        assert code in exits, f"eval after {target} corruption ({description}) exited {code}"
        assert not report.exists()
        if target != "checkpoint":
            code = main(["train", "--dataset", dataset, "--out", str(root / "new.wsdc"), "--epochs", "1"])
            assert code in exits, f"train after {target} corruption ({description}) exited {code}"


@given(corruption())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_corrupt_input_ends_in_a_documented_exit_code(pristine, capsys, case):
    run_corrupted(pristine, case)
    capsys.readouterr()


@given(box_or_class_corruption())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_corrupt_box_coordinate_or_class_ends_in_a_documented_exit_code(pristine, capsys, case):
    run_corrupted(pristine, case)
    capsys.readouterr()


@given(st.permutations(range(IMAGES)))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_repeated_image_id_ends_in_exit_data(pristine, capsys, order):
    run_corrupted(pristine, id_copy(order[0], order[1]), exits={EXIT_DATA})
    assert "id repeats image" in capsys.readouterr().err
