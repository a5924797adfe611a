import contextlib
import functools
import gc
import inspect
import math
import os
import re
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import reference_head as ref
from wsdsel import head
from wsdsel.data import FEATURE_SPLIT_MIN, Dataset, ImageBag, SynthConfig, generate_synthetic
from wsdsel.head import (
    EPS,
    Budgets,
    HeadParams,
    ImageLabels,
    StepWork,
    _aggregate,
    _loss,
    backward_image,
    class_softmax,
    finite_diff_grads,
    forward_image,
    gradient_agreement,
    masked_softmax,
    run_gradcheck,
    select_regions,
)
from wsdsel.schedule import PruneSchedule
from wsdsel.trainer import TrainConfig, TrainState, _Run, init_params, train, train_epoch

from reference_eval import topm_indices
from test_data import RecordingWorker


def random_instance(rng, n=None, c=None, d=None):
    n = n or int(rng.integers(2, 13))
    c = c or int(rng.integers(1, 5))
    d = d or int(rng.integers(1, 9))
    feats = rng.normal(size=(n, d))
    params = HeadParams(
        w_cls=rng.normal(scale=0.1, size=(c, d)),
        b_cls=rng.normal(scale=0.1, size=c),
        w_imp=rng.normal(scale=0.1, size=(c, d)),
        b_imp=rng.normal(scale=0.1, size=c),
    )
    labels = (rng.random(c) < 0.5).astype(np.int64)
    return params, feats, labels


class TestClassSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(class_softmax(np.zeros((1, 4)))[0], [0.25] * 4)

    def test_closed_form(self):
        row = class_softmax(np.array([[0.0, math.log(2.0)]]))[0]
        np.testing.assert_allclose(row, [1 / 3, 2 / 3], atol=1e-14)

    def test_shift_invariance(self):
        rng = np.random.default_rng(42)
        z = rng.normal(size=(5, 7))
        np.testing.assert_allclose(class_softmax(z), class_softmax(z + 123.4), atol=1e-12)

    def test_large_logits_stable(self):
        out = class_softmax(np.array([[1000.0, 1000.0, 0.0]]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0][:2], [0.5, 0.5], atol=1e-12)


class TestSelectRegions:
    def test_argmax_single(self):
        p = np.array([[0.1], [0.5], [0.4]])
        h = select_regions(p, np.array([1]), m_pos=1, m_neg=3)
        np.testing.assert_array_equal(h[:, 0], [False, True, False])

    def test_budget_capped_at_n(self):
        p = np.array([[0.1], [0.5], [0.4]])
        h = select_regions(p, np.array([1]), m_pos=100, m_neg=100)
        assert h.all()

    def test_tie_lowest_index_wins(self):
        p = np.array([[0.5], [0.5], [0.0]])
        h = select_regions(p, np.array([1]), m_pos=1, m_neg=1)
        np.testing.assert_array_equal(h[:, 0], [True, False, False])

    def test_negative_class_uses_m_neg(self):
        rng = np.random.default_rng(0)
        p = rng.random((10, 2))
        h = select_regions(p, np.array([1, 0]), m_pos=3, m_neg=5)
        assert h[:, 0].sum() == 3
        assert h[:, 1].sum() == 5

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            select_regions(np.ones((3, 1)), np.array([1]), m_pos=0, m_neg=1)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 50))
        c = int(rng.integers(1, 6))
        p = rng.random((n, c))
        if rng.random() < 0.3:  # exercise ties
            p = np.round(p, 1)
        labels = (rng.random(c) < 0.5).astype(int)
        m_pos = int(rng.integers(1, n + 2))
        m_neg = int(rng.integers(1, n + 2))
        h = select_regions(p, labels, m_pos, m_neg)
        for j in range(c):
            budget = m_pos if labels[j] else m_neg
            expected = topm_indices(list(p[:, j]), budget)
            assert set(np.flatnonzero(h[:, j])) == expected


class TestMaskedSoftmax:
    def test_uniform_over_selected(self):
        v = masked_softmax(np.zeros(4), np.ones(4, dtype=bool))
        np.testing.assert_allclose(v, [0.25] * 4)

    def test_masked_entry_excluded(self):
        v = masked_softmax(np.array([0.0, math.log(2.0), 5.0]), np.array([1, 1, 0], dtype=bool))
        np.testing.assert_allclose(v, [1 / 3, 2 / 3, 0.0], atol=1e-14)
        assert v[2] == 0.0

    def test_single_selected_is_point_mass(self):
        v = masked_softmax(np.array([100.0, -3.0, 9.0]), np.array([0, 1, 0], dtype=bool))
        np.testing.assert_array_equal(v, [0.0, 1.0, 0.0])

    def test_all_zero_mask_rejected(self):
        with pytest.raises(ValueError):
            masked_softmax(np.zeros(3), np.zeros(3, dtype=bool))

    def test_extreme_logits_stable(self):
        v = masked_softmax(np.array([800.0, 799.0, -800.0]), np.ones(3, dtype=bool))
        assert np.isfinite(v).all()
        np.testing.assert_allclose(v.sum(), 1.0, atol=1e-12)


def column_score(v, p) -> float:
    """`_aggregate` of one (N,) column pair into a 0-d score."""
    return float(_aggregate(v, p, EPS, np.empty(())))


class TestAggregate:
    def test_point_mass(self):
        assert column_score(np.array([1.0, 0.0]), np.array([0.7, 0.2])) == pytest.approx(0.7)

    def test_dot_product(self):
        assert column_score(np.array([0.5, 0.5]), np.array([0.4, 0.8])) == pytest.approx(0.6)

    def test_clamped_into_open_interval(self):
        assert column_score(np.array([1.0]), np.array([1.0])) == 1.0 - EPS
        assert column_score(np.array([1.0]), np.array([0.0])) == EPS

    def test_convex_combination_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            v = rng.dirichlet(np.ones(n))
            p = rng.random(n)
            assert 0.0 <= column_score(v, p) <= 1.0


class TestImageLoss:
    def test_perfect_positive(self):
        assert _loss(ImageLabels(np.array([1])), np.array([1.0 - EPS])) == pytest.approx(0.0, abs=1e-9)

    def test_perfect_negative(self):
        assert _loss(ImageLabels(np.array([0])), np.array([EPS])) == pytest.approx(0.0, abs=1e-9)

    def test_coin_flip(self):
        assert _loss(ImageLabels(np.array([1])), np.array([0.5])) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_sums_over_classes(self):
        got = _loss(ImageLabels(np.array([1, 0])), np.array([0.5, 0.5]))
        assert got == pytest.approx(2 * math.log(2.0), rel=1e-12)


class TestForwardImage:
    def test_single_region_single_class(self):
        params = HeadParams(np.array([[0.3]]), np.array([0.1]), np.array([[-2.0]]), np.array([0.5]))
        trace = forward_image(params, np.array([[4.0]]), np.array([1]), 1, 1)
        np.testing.assert_array_equal(trace.p, [[1.0]])
        np.testing.assert_array_equal(trace.v, [[1.0]])
        assert trace.f[0] == 1.0 - EPS
        assert trace.loss == pytest.approx(0.0, abs=1e-9)

    def test_zero_init_uniform_case(self):
        params = HeadParams(np.zeros((2, 3)), np.zeros(2), np.zeros((2, 3)), np.zeros(2))
        feats = np.arange(12.0).reshape(4, 3)
        trace = forward_image(params, feats, np.array([1, 0]), 4, 4)
        np.testing.assert_allclose(trace.p, 0.5)
        np.testing.assert_allclose(trace.v, 0.25)
        np.testing.assert_allclose(trace.f, [0.5, 0.5])
        assert trace.loss == pytest.approx(2 * math.log(2.0), rel=1e-12)

    def test_shape_mismatch_rejected(self):
        params = HeadParams(np.zeros((2, 3)), np.zeros(2), np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            forward_image(params, np.zeros((4, 5)), np.array([1, 0]), 1, 1)
        with pytest.raises(ValueError):
            forward_image(params, np.zeros((4, 3)), np.array([1, 0, 1]), 1, 1)

    @pytest.mark.parametrize("seed", range(25))
    def test_trace_invariants(self, seed):
        rng = np.random.default_rng(seed)
        params, feats, labels = random_instance(rng)
        m_pos = int(rng.integers(1, feats.shape[0] + 1))
        m_neg = int(rng.integers(1, feats.shape[0] + 1))
        trace = forward_image(params, feats, labels, m_pos, m_neg)
        np.testing.assert_allclose(trace.p.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(trace.v.sum(axis=0), 1.0, atol=1e-9)
        assert (trace.v[~trace.h] == 0.0).all()
        assert ((trace.f >= EPS) & (trace.f <= 1.0 - EPS)).all()
        n = feats.shape[0]
        for j, y in enumerate(labels):
            assert trace.h[:, j].sum() == min(n, m_pos if y else m_neg)

    def test_loss_invariant_to_region_permutation(self):
        rng = np.random.default_rng(3)
        params, feats, labels = random_instance(rng, n=9)
        trace = forward_image(params, feats, labels, 4, 3)
        perm = rng.permutation(feats.shape[0])
        shuffled = forward_image(params, feats[perm], labels, 4, 3)
        assert shuffled.loss == pytest.approx(trace.loss, rel=1e-9)


class TestHeadParams:
    @pytest.mark.parametrize("block, shape", [("w_imp", (3, 2)), ("b_cls", (3,)), ("b_imp", (1,)), ("b_cls", (2, 1))])
    def test_blocks_of_inconsistent_shapes_are_refused(self, block, shape):
        # a transposed w_imp has the right number of entries, so only the shape check can catch it
        blocks = {"w_cls": np.zeros((2, 3)), "b_cls": np.zeros(2), "w_imp": np.zeros((2, 3)), "b_imp": np.zeros(2)}
        blocks[block] = np.zeros(shape)
        with pytest.raises(ValueError, match="^parameter block shapes are inconsistent$"):
            HeadParams(**blocks)

    @pytest.mark.parametrize("shape", [(15,), (17,), (2, 8), (16, 1)])
    def test_from_flat_refuses_a_buffer_of_another_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"flat buffer has shape {shape}, expected (16,)")):
            HeadParams.from_flat(np.zeros(shape), 2, 3)


class TestBackwardImage:
    @pytest.mark.parametrize("shape", [(4, 2), (5, 3), (3, 3)])
    def test_features_not_shaped_for_the_trace_are_refused(self, shape):
        params = HeadParams(np.zeros((2, 3)), np.zeros(2), np.zeros((2, 3)), np.zeros(2))
        labels = np.array([1, 0])
        trace = forward_image(params, np.ones((4, 3)), labels, 2, 2)
        with pytest.raises(ValueError, match="^features do not match the trace/params shapes$"):
            backward_image(trace, params, np.ones(shape), labels)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(30):
            params, feats, labels = random_instance(rng)
            n = feats.shape[0]
            m_pos = int(rng.integers(1, n + 1))
            m_neg = int(rng.integers(1, n + 1))
            trace = forward_image(params, feats, labels, m_pos, m_neg)
            analytic = backward_image(trace, params, feats, labels)
            numeric = finite_diff_grads(params, feats, labels, m_pos, m_neg)
            worst = max(worst, gradient_agreement(analytic, numeric))
        assert worst < 1e-4

    def test_uniform_case_bias_gradient_antisymmetric(self):
        # positive class pulled up (negative gradient), negative pushed down
        params = HeadParams(np.zeros((2, 3)), np.zeros(2), np.zeros((2, 3)), np.zeros(2))
        feats = np.arange(12.0).reshape(4, 3)
        labels = np.array([1, 0])
        trace = forward_image(params, feats, labels, 4, 4)
        grads = backward_image(trace, params, feats, labels)
        np.testing.assert_allclose(grads.b_cls, [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(grads.b_imp, 0.0, atol=1e-12)
        assert grads.b_cls[0] < 0 < grads.b_cls[1]

    def test_fully_unselected_region_is_inert(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            params, feats, labels = random_instance(rng, n=12, c=3)
            trace = forward_image(params, feats, labels, 2, 2)
            idle = np.flatnonzero(~trace.h.any(axis=1))
            assert idle.size > 0  # 12 regions, at most 6 selected
            grads = backward_image(trace, params, feats, labels)
            mutated = feats.copy()
            mutated[idle[0]] = 0.0
            grads2 = backward_image(trace, params, mutated, labels)
            for (_, a), (_, b) in zip(grads.blocks(), grads2.blocks()):
                assert a.tobytes() == b.tobytes()

    def test_descent_step_does_not_increase_masked_loss(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            params, feats, labels = random_instance(rng)
            n = feats.shape[0]
            trace = forward_image(params, feats, labels, max(1, n // 2), max(1, n // 2))
            grads = backward_image(trace, params, feats, labels)
            lr = 1e-6
            stepped = HeadParams(
                *(arr - lr * g for (_, arr), (_, g) in zip(params.blocks(), grads.blocks()))
            )
            new_loss = ref.loss_with_mask([a for _, a in stepped.blocks()], feats, labels, trace.h, EPS)
            assert new_loss <= trace.loss + 1e-12


class TestFiniteDifferences:
    def test_central_difference_exact_on_quadratic(self):
        # central differences are exact for quadratics up to roundoff
        f = lambda x: (x - 3.0) ** 2 + 2.0
        x0, h = 1.25, 1e-4
        estimate = (f(x0 + h) - f(x0 - h)) / (2 * h)
        assert estimate == pytest.approx(2 * (x0 - 3.0), abs=1e-8)

    def test_rejects_bad_step(self):
        params = HeadParams(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
        for step in (0.0, -1e-4, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="step"):
                finite_diff_grads(params, np.ones((1, 1)), np.array([1]), 1, 1, step=step)

    def test_agreement_rejects_bad_floor(self):
        zero = HeadParams(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
        assert gradient_agreement(zero, zero) == 0.0
        for floor in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="floor"):
                gradient_agreement(zero, zero, floor=floor)

    def test_error_shrinks_quadratically_with_step(self):
        rng = np.random.default_rng(23)
        params, feats, labels = random_instance(rng, n=6, c=3, d=4)
        trace = forward_image(params, feats, labels, 3, 3)
        analytic = backward_image(trace, params, feats, labels)

        def fd_error(step):
            numeric = finite_diff_grads(params, feats, labels, 3, 3, step=step)
            return max(
                float(np.abs(a - n).max()) for (_, a), (_, n) in zip(analytic.blocks(), numeric.blocks())
            )

        coarse = fd_error(4e-2)
        fine = fd_error(2e-2)
        assert fine < coarse / 2.5  # ~4x for a second-order scheme


class TestGradcheckSuite:
    def test_default_suite_passes(self):
        report = run_gradcheck(seed=0, instances=40)
        assert report["passed"]
        assert report["max_rel_error"] < 1e-4

    def test_degenerate_single_region_single_class(self):
        report = run_gradcheck(seed=1, instances=10, max_regions=1, max_classes=1, max_dim=1)
        assert report["passed"]
        assert report["max_rel_error"] < 1e-6


def split_step(monkeypatch, n, c, d, m_pos, m_neg):
    """image_step's arguments for one random image; from here on every pass splits its branches, also on one CPU."""
    monkeypatch.setattr(head, "SPLIT_MIN", 1)
    monkeypatch.setattr(head, "_usable_cpus", lambda: 2)
    rng = np.random.default_rng(n)
    params = HeadParams(*(rng.normal(scale=0.05, size=s).astype(np.float32) for s in ((c, d), (c,), (c, d), (c,))))
    feats = rng.normal(size=(n, d)).astype(np.float32).astype(np.float64)
    labels = ImageLabels((rng.random(c) < 0.3).astype(np.int64))
    work = StepWork(n, c, d)
    return params, feats, labels, Budgets(labels.pos, n, m_pos, m_neg), EPS, work


def generator_picks(n, worker):
    """Whether generating images of n regions, 64 features and one view hands the worker a task."""
    before = worker.tasks
    generate_synthetic(SynthConfig(n_images=2, num_classes=2, feat_dim=64, proposals_per_image=n))
    return worker.tasks > before


# Per caller of head._worker_for: whether it picked the worker at n regions, and the n at which
# its task size is exactly its minimum: N*D*C = SPLIT_MIN at C=16, D=256, N*D*views = FEATURE_SPLIT_MIN at D=64.
GATED_CALLERS = {
    "StepWork.at": (lambda n, worker: StepWork(n, 16, 256).at(n).worker is worker, head.SPLIT_MIN // (16 * 256)),
    "generate_synthetic": (generator_picks, FEATURE_SPLIT_MIN // 64),
}


class TestBranchSplit:
    def test_worker_runs_no_wsdsel_function(self, monkeypatch):
        # perfbench's tracer wraps wsdsel functions by name and keeps one span stack, so only the caller may run them
        threads = set()

        def recording(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                threads.add(threading.get_ident())
                return fn(*args, **kwargs)

            return wrapper

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "wsdsel":
                for attr, fn in list(vars(module).items()):
                    if inspect.isfunction(fn) and fn.__module__.startswith("wsdsel"):
                        monkeypatch.setattr(module, attr, recording(fn))
        args = split_step(monkeypatch, 2048, 20, 256, 512, 128)
        head.image_step(*args)
        assert args[-1].worker is not None
        # a paper-shape epoch, whose steps also hand the next image's feature copy to the worker
        monkeypatch.setattr(head, "_usable_cpus", lambda: 2)
        n, c, d = 2048, 20, 256
        rng = np.random.default_rng(7)
        dataset = Dataset(num_classes=c, feat_dim=d, class_names=[f"c{j}" for j in range(c)], images=[
            ImageBag(f"im{i}", boxes=np.tile([0.1, 0.1, 0.5, 0.5], (n, 1)),
                     views=[rng.normal(size=(n, d)).astype(np.float32)], labels=np.eye(c, dtype=np.int64)[i])
            for i in range(3)])
        config = TrainConfig(total_epochs=3, schedule=PruneSchedule(warmup_epochs=1, m_start=512, m_final=128,
                                                                    m_neg=128, total_epochs=3))
        state = TrainState(init_params(d, c, 0), init_params(d, c, 0).zeros_like())
        run = _Run(dataset, state.params)
        assert run.spare is not None
        train_epoch(state, dataset, config, run=run)
        # paper-shape generation, which hands image feature draws to the worker
        generate_synthetic(SynthConfig(n_images=3, num_classes=c, feat_dim=d, proposals_per_image=n))
        assert threads == {threading.get_ident()}

    def test_worker_error_reaches_caller(self, monkeypatch):
        params, feats, labels, budgets, _, work = args = split_step(monkeypatch, 300, 10, 32, 75, 20)
        caller, matmul, started = threading.get_ident(), np.matmul, threading.Event()

        def failing_off_caller(*args, **kwargs):
            if threading.get_ident() != caller:
                started.set()
                raise RuntimeError("worker half failed")
            assert started.wait(timeout=10)  # so that the worker, not the caller, runs the importance half
            return matmul(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "matmul", failing_off_caller)
            with pytest.raises(RuntimeError, match="worker half failed"):
                head.image_step(*args)
        # the same workspace and worker give the reference bytes on the next step
        loss = head.image_step(*args)
        p, _, v, f, want = ref.forward([a for _, a in params.blocks()], feats, labels.y, 75, 20, EPS)
        assert loss == want
        for (_, got), want in zip(work.grads.blocks(), ref.backward(p, v, f, feats, labels.y, EPS)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, c, d", [(64, 6, 64), (128, 20, 64)])  # walkthrough and dense_eval set-up shapes
    def test_small_shape_train_starts_no_thread(self, monkeypatch, n, c, d):
        # a fresh worker, since the shared one may already run after an earlier split pass in this process
        worker, at, splits = head._BranchWorker(), StepWork.at, []

        def recording_at(work, n):
            splits.append(at(work, n).worker)
            return work

        monkeypatch.setattr(head, "_WORKER", worker)
        monkeypatch.setattr(StepWork, "at", recording_at)
        dataset = generate_synthetic(SynthConfig(n_images=3, num_classes=c, feat_dim=d, proposals_per_image=n))
        schedule = PruneSchedule(warmup_epochs=1, m_start=n, m_final=8, m_neg=16, total_epochs=3)
        before = threading.active_count()
        counts = []
        train(dataset, TrainConfig(total_epochs=3, schedule=schedule), on_step=lambda *_: counts.append(
            threading.active_count()))
        assert len(counts) == 9 and set(counts) == {before}
        assert splits and set(splits) == {None}
        assert worker._thread is None

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_gate(self, monkeypatch, cpus):
        monkeypatch.setattr(head, "_usable_cpus", lambda: cpus)
        c, d = 20, 256
        n_min = -(-head.SPLIT_MIN // (c * d))
        work = StepWork(2048, c, d)
        assert work.at(n_min - 1).worker is None
        assert (work.at(n_min).worker is not None) == (cpus > 1)
        assert (work.at(2048).worker is not None) == (cpus > 1)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("caller", sorted(GATED_CALLERS))
    def test_each_caller_picks_the_worker_from_its_minimum(self, monkeypatch, caller, cpus):
        # both callers go through the one gate, each at its own minimum size
        worker = RecordingWorker()
        monkeypatch.setattr(head, "_WORKER", worker)
        monkeypatch.setattr(head, "_usable_cpus", lambda: cpus)
        picks, n_min = GATED_CALLERS[caller]
        assert not picks(n_min - 1, worker)
        assert picks(n_min, worker) == (cpus > 1)

    def test_caller_runs_a_task_the_worker_has_not_begun(self):
        worker, gate = head._BranchWorker(), threading.Event()
        assert worker._thread is None  # the thread starts at the first task, not when the worker is made

        def serve():  # as the worker serves, but ends at a task with no claim lock, so no thread outlives the test
            with contextlib.suppress(AttributeError):
                head._BranchWorker._serve(worker)

        worker._serve = serve
        blocked = threading.Lock()
        blocked.acquire()
        worker._tasks.put((lambda: gate.wait(timeout=10), threading.Lock(), blocked, []))  # keeps the worker busy
        ran = []
        worker.beside(lambda: ran.append(threading.get_ident()), lambda: None)
        assert ran == [threading.get_ident()]
        gate.set()
        assert blocked.acquire(timeout=10)
        worker.beside(lambda: ran.append("task"), lambda: ran.append("own"))
        assert sorted(ran[1:]) == ["own", "task"]
        worker._tasks.put((None, None, None, None))
        worker._thread.join(timeout=10)
        assert not worker._thread.is_alive()

    def test_paper_shape_entry_points_start_one_thread_at_most(self, monkeypatch):
        monkeypatch.setattr(head, "_usable_cpus", lambda: 2)
        n, c, d = 2048, 20, 256
        assert StepWork(n, c, d).at(n).worker is not None  # these calls split their branches
        rng = np.random.default_rng(5)
        params, feats, labels = random_instance(rng, n, c, d)
        dataset = Dataset(num_classes=c, feat_dim=d, class_names=[f"c{j}" for j in range(c)], images=[
            ImageBag("im0", boxes=np.tile([0.1, 0.1, 0.5, 0.5], (n, 1)), views=[feats.astype(np.float32)],
                     labels=labels)])
        config = TrainConfig(total_epochs=3, schedule=PruneSchedule(warmup_epochs=1, m_start=512, m_final=128,
                                                                    m_neg=128, total_epochs=3))
        state = TrainState(init_params(d, c, 0), init_params(d, c, 0).zeros_like())
        starts, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: (starts.append(thread.name), start(thread)))
        for _ in range(3):
            trace = forward_image(params, feats, labels, 512, 128)
            backward_image(trace, params, feats, labels)
            train_epoch(state, dataset, config)
            generate_synthetic(SynthConfig(n_images=2, num_classes=c, feat_dim=d, proposals_per_image=n))
        assert len(starts) <= 1
        assert head._WORKER._thread.is_alive()

    def test_worker_keeps_nothing_of_a_finished_step(self, monkeypatch):
        args = split_step(monkeypatch, 2048, 20, 256, 512, 128)
        head.image_step(*args)
        feats, work, thread = weakref.ref(args[1]), weakref.ref(args[-1]), head._WORKER._thread
        del args
        deadline = time.monotonic() + 10
        while (feats() is not None or work() is not None) and time.monotonic() < deadline:
            gc.collect()
            time.sleep(0.01)
        assert feats() is None and work() is None
        thread.join(timeout=0.2)
        assert thread.is_alive()  # the worker outlives the workspace it served

    def test_callers_on_several_threads_share_the_worker(self, monkeypatch):
        # more callers than two cores, switching threads often, each in its own workspace
        runs = [split_step(monkeypatch, n, 10, 64, 75, 20) for n in (1024, 768, 512)]
        assert runs[0][-1].at(1024).worker is runs[1][-1].at(768).worker is runs[2][-1].at(512).worker is not None
        barrier, losses = threading.Barrier(len(runs)), [None] * len(runs)

        def steps(i):
            barrier.wait(timeout=10)
            losses[i] = [head.image_step(*runs[i]) for _ in range(20)]

        callers = [threading.Thread(target=steps, args=(i,)) for i in range(len(runs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for (params, feats, labels, _, _, work), got in zip(runs, losses):
            p, _, v, f, want = ref.forward([a for _, a in params.blocks()], feats, labels.y, 75, 20, EPS)
            assert got == [want] * 20
            for (_, grad), want in zip(work.grads.blocks(), ref.backward(p, v, f, feats, labels.y, EPS)):
                assert grad.tobytes() == want.tobytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_forked_child_starts_its_own_worker(self, monkeypatch):
        args = split_step(monkeypatch, 300, 10, 32, 75, 20)
        head.image_step(*args)
        pid = os.fork()
        if pid == 0:  # the child: no test framework code runs here, only the exit code reports
            code = 1
            try:
                fresh = head._WORKER._thread is None and head._WORKER._tasks.empty()
                head.image_step(*args)
                code = 0 if fresh and head._WORKER._thread.is_alive() else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
