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
    @settings(max_examples=100, deadline=None)
    def test_boxes_and_tuples_give_the_same_float(self, a, b):
        want = iou(a, b)
        assert iou(a.as_tuple(), b.as_tuple()) == want
        assert iou(a, tuple(b)) == want and iou(list(a), b) == want

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


def class_batch_strategy():
    """Boxes on a small grid and (N, C) scores from a few levels, so IoU and score ties are common.

    N reaches 70, so `nms`'s packed suppression rows span more than one
    64-bit word and are often padded to a whole byte.
    """
    return st.integers(1, 70).flatmap(
        lambda n: st.tuples(
            st.lists(grid_boxes_strategy(), min_size=n, max_size=n),
            st.integers(1, 4).flatmap(
                lambda c: st.lists(
                    st.lists(st.sampled_from([0.0, 1e-5, 0.25, 0.5, 0.75, 1.0]), min_size=c, max_size=c),
                    min_size=n,
                    max_size=n,
                )
            ),
        )
    )


class TestClassBatched:
    """(N, C) scores run every class at once; each class must match its own 1-D run over its candidate pool,
    and that run the greedy oracle."""

    @given(class_batch_strategy(), st.sampled_from([0.3, 0.6, 1.0]), st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_each_class_equals_its_own_pool(self, case, threshold, vote_threshold):
        boxes, scores = case
        arr, scores = as_array(boxes), np.array(scores)
        ious = iou_matrix(arr, arr)
        candidates = scores >= 1e-4
        regions, classes = nms(ious, scores, threshold, candidates)
        voted = box_vote((regions, classes), ious, arr, scores, vote_threshold, candidates)
        assert np.all(np.diff(classes) >= 0)
        for j in range(scores.shape[1]):
            pool = np.flatnonzero(candidates[:, j])
            pool_ious = ious[np.ix_(pool, pool)]
            kept = nms(pool_ious, scores[pool, j], threshold)
            assert kept.tolist() == greedy_nms_indices(range(len(pool)), scores[pool, j].tolist(), threshold,
                                                       lambda a, b: pool_ious[a, b])
            mine = classes == j
            assert regions[mine].tolist() == pool[kept].tolist()
            want = box_vote(kept, pool_ious, arr[pool], scores[pool, j], vote_threshold)
            assert voted[mine].tobytes() == want.tobytes()

    def test_one_column_equals_a_vector(self):
        boxes = [BBox(0, 0, 10, 10), BBox(1, 0, 11, 10), BBox(20, 20, 30, 30)]
        ious, scores = pairwise(boxes), np.array([0.5, 0.9, 0.2])
        regions, classes = nms(ious, scores[:, None], 0.6)
        assert regions.tolist() == nms(ious, scores, 0.6).tolist() == [1, 2]
        assert classes.tolist() == [0, 0]

    def test_non_candidates_never_kept_or_voting(self):
        a, b = BBox(0, 0, 10, 10), BBox(0, 0, 12, 10)
        ious, scores = pairwise([a, b]), np.array([[0.9, 0.8], [0.95, 0.7]])
        candidates = np.array([[True, True], [False, True]])
        regions, classes = nms(ious, scores, 0.6, candidates)
        assert list(zip(regions.tolist(), classes.tolist())) == [(0, 0), (0, 1)]
        voted = box_vote((regions, classes), ious, as_array([a, b]), scores, 0.5, candidates)
        assert BBox(*voted[0]) == a  # region 1 is no candidate of class 0: it neither wins nor votes
        assert voted[1, 2] == pytest.approx((0.8 * 10 + 0.7 * 12) / 1.5)

    def test_voting_memory_is_blocked(self, monkeypatch):
        import wsdsel.geometry as geometry

        rng = np.random.default_rng(7)
        xy = rng.uniform(0, 20, (40, 2))
        arr = np.hstack([xy, xy + rng.uniform(2, 8, (40, 2))])
        ious, scores = iou_matrix(arr, arr), rng.random((40, 3))
        kept = nms(ious, scores, 0.6)
        whole = box_vote(kept, ious, arr, scores, 0.0)
        monkeypatch.setattr(geometry, "VOTE_BLOCK", 41)  # one kept row per block
        assert box_vote(kept, ious, arr, scores, 0.0).tobytes() == whole.tobytes()
