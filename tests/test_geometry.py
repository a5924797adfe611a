import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsdsel.geometry import BBox, Detection, box_vote, iou, iou_matrix, nms

from reference_eval import greedy_nms_indices, grid_iou


def as_array(boxes):
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64)


def pairwise(boxes):
    arr = as_array(boxes)
    return iou_matrix(arr, arr)


def grid_boxes_strategy():
    """Boxes with small integer corners, so disjoint, touching and nested pairs are common."""
    corner, size = st.integers(0, 6), st.integers(1, 4)
    return st.tuples(corner, corner, size, size).map(
        lambda t: BBox(float(t[0]), float(t[1]), float(t[0] + t[2]), float(t[1] + t[3]))
    )


def boxes_strategy():
    coord = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, width=32)
    return st.tuples(coord, coord, coord, coord).filter(
        lambda t: abs(t[0] - t[2]) > 0.5 and abs(t[1] - t[3]) > 0.5
    ).map(lambda t: BBox(min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3])))


class TestBBox:
    def test_rejects_zero_area(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 0, 10)
        with pytest.raises(ValueError):
            BBox(5, 5, 5, 5)
        with pytest.raises(ValueError):
            BBox(0, 0, 10, float("nan"))

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            BBox(10, 0, 0, 10)

    def test_detection_score_validation(self):
        box = BBox(0, 0, 1, 1)
        with pytest.raises(ValueError):
            Detection(box, 0, -0.1)
        with pytest.raises(ValueError):
            Detection(box, 0, float("inf"))


class TestIoU:
    def test_identical(self):
        b = BBox(0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 1, 1), BBox(2, 2, 3, 3)) == 0.0

    def test_half_overlap(self):
        # inter = 50, union = 150 by area arithmetic
        got = iou(BBox(0, 0, 10, 10), BBox(5, 0, 15, 10))
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)

    @given(boxes_strategy(), boxes_strategy())
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        ab = iou(a, b)
        assert ab == iou(b, a)
        assert 0.0 <= ab <= 1.0

    @given(boxes_strategy())
    @settings(max_examples=50, deadline=None)
    def test_self_iou_is_one(self, a):
        assert iou(a, a) == 1.0

    @given(boxes_strategy(), boxes_strategy())
    @settings(max_examples=40, deadline=None)
    def test_matches_rasterized_oracle(self, a, b):
        assert iou(a, b) == pytest.approx(grid_iou(a, b), abs=2e-2)

    @given(
        st.lists(grid_boxes_strategy() | boxes_strategy(), min_size=1, max_size=6),
        st.lists(grid_boxes_strategy() | boxes_strategy(), min_size=1, max_size=6),
    )
    @example(a=[BBox(0, 0, 1, 1)], b=[BBox(1, 0, 2, 1), BBox(0, 1, 1, 2), BBox(2, 2, 3, 3), BBox(0, 0, 1, 1)])
    @settings(max_examples=200, deadline=None)
    def test_matrix_is_scalar_iou_bit_for_bit(self, a, b):
        got = iou_matrix(as_array(a), as_array(b))
        want = np.array([[iou(x, y) for y in b] for x in a], dtype=np.float64)
        assert got.shape == (len(a), len(b))
        assert got.tobytes() == want.tobytes()


class TestNMS:
    def test_single_detection(self):
        assert nms(pairwise([BBox(0, 0, 10, 10)]), np.array([0.9]), 0.6).tolist() == [0]

    def test_identical_boxes_suppressed(self):
        box = BBox(0, 0, 10, 10)
        assert nms(pairwise([box, box]), np.array([0.8, 0.9]), 0.6).tolist() == [1]

    def test_low_overlap_keeps_both(self):
        a, b = BBox(0, 0, 10, 10), BBox(5, 0, 15, 10)
        assert iou(a, b) == pytest.approx(1.0 / 3.0)
        assert nms(pairwise([a, b]), np.array([0.9, 0.8]), 0.6).tolist() == [0, 1]

    def test_tie_broken_by_input_order(self):
        boxes = [BBox(0, 0, 10, 10), BBox(1, 0, 11, 10)]
        assert nms(pairwise(boxes), np.array([0.5, 0.5]), 0.6).tolist() == [0]

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            nms(np.zeros((0, 0)), np.zeros(0), 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_greedy_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 11))
        boxes, scores = [], []
        for _ in range(n):
            x1, y1 = rng.uniform(0, 50, 2)
            w, h = rng.uniform(1, 30, 2)
            boxes.append(BBox(x1, y1, x1 + w, y1 + h))
            scores.append(float(rng.random()))
        threshold = float(rng.uniform(0.1, 0.9))
        kept = nms(pairwise(boxes), np.array(scores), threshold).tolist()
        assert kept == greedy_nms_indices(boxes, scores, threshold, iou)
        # no kept pair may overlap beyond the threshold
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                assert iou(boxes[a], boxes[b]) <= threshold


def vote(boxes, scores, vote_threshold=0.5):
    """The voted box of candidate 0 over the pool `boxes`."""
    arr = as_array(boxes)
    voted = box_vote(np.array([0]), iou_matrix(arr, arr), arr, np.array(scores, dtype=np.float64), vote_threshold)
    return BBox(*voted[0].tolist())


class TestBoxVote:
    def test_single_voter_unchanged(self):
        box = BBox(0, 0, 10, 10)
        assert vote([box], [1.0]) == box

    def test_equal_weight_mean(self):
        kept, other = BBox(0, 0, 10, 10), BBox(0, 0, 12, 10)
        assert iou(kept, other) == pytest.approx(100.0 / 120.0)
        assert vote([kept, other], [1.0, 1.0]) == BBox(0, 0, 11, 10)

    def test_below_threshold_excluded(self):
        kept, far = BBox(0, 0, 10, 10), BBox(7, 7, 17, 17)  # IoU = 9/191 < 0.5
        assert iou(kept, far) < 0.5
        assert vote([kept, far], [1.0, 5.0]) == kept

    def test_score_weighted(self):
        voted = vote([BBox(0, 0, 10, 10), BBox(0, 0, 12, 10)], [0.9, 0.8])
        assert voted.x2 == pytest.approx((0.9 * 10 + 0.8 * 12) / 1.7)
        assert voted.x1 == pytest.approx(0.0)

    def test_zero_weight_pool_returns_kept(self):
        box = BBox(0, 0, 10, 10)
        assert vote([box], [0.0]) == box

    @pytest.mark.parametrize("seed", range(5))
    def test_within_contributor_envelope(self, seed):
        rng = np.random.default_rng(100 + seed)
        base = BBox(10, 10, 20, 20)
        pool, scores = [base], [1.0]
        for _ in range(6):
            dx = rng.uniform(-3, 3, 4)
            pool.append(BBox(10 + dx[0], 10 + dx[1], 20 + dx[2], 20 + dx[3]))
            scores.append(float(rng.random()))
        contributors = [b for b in pool if iou(b, base) >= 0.5]
        voted = vote(pool, scores)
        assert min(b.x1 for b in contributors) <= voted.x1 <= max(b.x1 for b in contributors)
        assert min(b.y1 for b in contributors) <= voted.y1 <= max(b.y1 for b in contributors)
        assert min(b.x2 for b in contributors) <= voted.x2 <= max(b.x2 for b in contributors)
        assert min(b.y2 for b in contributors) <= voted.y2 <= max(b.y2 for b in contributors)
