"""The whole-matrix training step equals the per-class reference byte for byte.

Selection, the masked softmax, the aggregation, the forward and backward
pass, gradcheck's finite differences, the SGD update and whole training
runs are compared with `reference_head` on random instances chosen to
hit the edges: tied class probabilities, budgets at or above N (every
region selected), a single region, a single class, and positive and
negative budgets that differ.
Every step of the training runs is also compared in float64, on both
paths of the head's branch split.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_head as ref
from wsdsel import head
from wsdsel.data import Dataset, ImageBag, SynthConfig, generate_synthetic
from wsdsel.head import (EPS, HeadParams, _aggregate, backward_image, finite_diff_grads, forward_image, image_step,
                         masked_softmax, select_regions)
from wsdsel.schedule import PruneSchedule
from wsdsel.trainer import TrainConfig, TrainState, _Run, init_params, sgd_step, train


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@st.composite
def instances(draw, max_n=24, max_c=6, max_d=6, cover=False):
    """(rng, n, c, d, labels, m_pos, m_neg) with budgets from 1 to past N.

    cover=True makes every class select all N regions: both budgets are at
    least N, or, with every label positive, m_pos is.
    """
    n = draw(st.integers(1, max_n))
    c = draw(st.integers(1, max_c))
    d = draw(st.integers(1, max_d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = (rng.random(c) < 0.5).astype(np.int64)
    m_pos = draw(st.integers(1, n + 3))
    m_neg = draw(st.integers(1, n + 3))
    if cover:
        if draw(st.booleans()):
            m_pos, m_neg = draw(st.integers(n, n + 3)), draw(st.integers(n, n + 3))
        else:
            labels[:] = 1
            m_pos = draw(st.integers(n, n + 3))
    return rng, n, c, d, labels, m_pos, m_neg


def tied_p(rng, n, c, levels):
    """(N, C) scores drawn from `levels` distinct values, so columns tie heavily when levels is small."""
    return rng.integers(0, levels, size=(n, c)) / levels


def random_params(rng, c, d, dtype=np.float64):
    return HeadParams(*(rng.normal(scale=0.5, size=s).astype(dtype) for s in ((c, d), (c,), (c, d), (c,))))


def feats_with_repeats(rng, n, d, distinct):
    """Features whose rows repeat, so class probabilities tie across regions."""
    base = rng.normal(size=(distinct, d))
    return base[rng.integers(0, distinct, size=n)]


class TestSelectRegions:
    @given(st.data(), st.integers(1, 6), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_tied_scores(self, data, levels, cover):
        rng, n, c, _, labels, m_pos, m_neg = data.draw(instances(max_n=40, max_c=8, cover=cover))
        p = tied_p(rng, n, c, levels)
        assert same(select_regions(p, labels, m_pos, m_neg), ref.select_regions(p, labels, m_pos, m_neg))

    @given(st.data(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_distinct_scores(self, data, cover):
        rng, n, c, _, labels, m_pos, m_neg = data.draw(instances(max_n=40, max_c=8, cover=cover))
        p = rng.random((n, c))
        assert same(select_regions(p, labels, m_pos, m_neg), ref.select_regions(p, labels, m_pos, m_neg))

    @given(instances(max_n=20, max_c=5), st.floats(0.05, 0.95))
    @settings(max_examples=200, deadline=None)
    def test_nan_ranks_last(self, inst, share):
        rng, n, c, _, labels, m_pos, m_neg = inst
        p = tied_p(rng, n, c, 3)
        p[rng.random((n, c)) < share] = np.nan
        assert same(select_regions(p, labels, m_pos, m_neg), ref.select_regions(p, labels, m_pos, m_neg))

    def test_signed_zeros_tie(self):
        p = np.array([[0.0], [-0.0], [0.0], [-0.0]])
        assert same(select_regions(p, [1], 3, 3), ref.select_regions(p, [1], 3, 3))


class TestMaskedSoftmax:
    @given(instances(max_n=30, max_c=8), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_any_mask(self, inst, all_selected):
        # arbitrary masks: every column has its own selected count
        rng, n, c, _, _, _, _ = inst
        logits = rng.normal(scale=3.0, size=(n, c))
        mask = rng.random((n, c)) < rng.random(c)
        mask[rng.integers(0, n, size=c), np.arange(c)] = True
        if all_selected:
            mask[:] = True
        assert same(masked_softmax(logits, mask), ref.masked_softmax(logits, mask))

    @given(instances(max_n=30, max_c=8), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_selection_mask(self, inst, levels):
        rng, n, c, _, labels, m_pos, m_neg = inst
        logits = tied_p(rng, n, c, levels) * 4.0
        mask = select_regions(rng.random((n, c)), labels, m_pos, m_neg)
        assert same(masked_softmax(logits, mask), ref.masked_softmax(logits, mask))

    @given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_one_column(self, n, seed, all_selected):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=n)
        mask = rng.random(n) < 0.5
        mask[rng.integers(n)] = True
        if all_selected:
            mask[:] = True
        assert same(masked_softmax(logits, mask), ref.masked_softmax_column(logits, mask))

    def test_empty_column_rejected(self):
        mask = np.array([[True, False], [True, False]])
        with pytest.raises(ValueError):
            masked_softmax(np.zeros((2, 2)), mask)


def check_step(params, feats, labels, m_pos, m_neg):
    """forward_image and backward_image against the reference; returns the gradients."""
    trace = forward_image(params, feats, labels, m_pos, m_neg)
    p, h, v, f, loss = ref.forward([a for _, a in params.blocks()], feats, labels, m_pos, m_neg, EPS)
    assert same(trace.p, p)
    assert same(trace.h, h)
    assert same(trace.v, v)
    assert same(trace.f, f)
    assert trace.loss == loss
    grads = backward_image(trace, params, feats, labels)
    for (_, got), want in zip(grads.blocks(), ref.backward(p, v, f, feats, labels, EPS)):
        assert same(got, want)
    return grads


def check_sgd(params, grads_seq, config):
    """Successive sgd_step updates against the per-block reference, starting from zero velocity."""
    state = TrainState(params=params.copy(), velocity=params.zeros_like())
    ref_params = [a.copy() for _, a in params.blocks()]
    ref_velocity = [np.zeros_like(a) for a in ref_params]
    for grads in grads_seq:
        sgd_step(state, grads, config)
        ref.sgd_step(ref_params, ref_velocity, [g for _, g in grads.blocks()],
                     config.lr_at(state.epoch), config.momentum, config.weight_decay)
        for (_, got), want in zip(state.params.blocks(), ref_params):
            assert same(got, want)
        for (_, got), want in zip(state.velocity.blocks(), ref_velocity):
            assert same(got, want)


class TestTrainingStep:
    @given(st.data(), st.integers(1, 4), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_forward_and_backward(self, data, distinct, cover):
        rng, n, c, d, labels, m_pos, m_neg = data.draw(instances(max_c=10, cover=cover))  # C >= 8: pairwise row sums
        params = random_params(rng, c, d, dtype=np.float32)
        check_step(params, feats_with_repeats(rng, n, d, distinct), labels, m_pos, m_neg)

    @pytest.mark.parametrize("n, c", [(1, 1), (1, 6), (64, 1), (64, 6), (2048, 1), (2048, 20)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_aggregate_is_per_column_dot(self, n, c, order):
        rng = np.random.default_rng(n * 100 + c)
        v = np.asarray(rng.dirichlet(np.ones(n), size=c).T, order=order)
        p = np.asarray(rng.dirichlet(np.ones(c), size=n), order=order)
        columns = [min(max(float(np.dot(v[:, j], p[:, j])), EPS), 1.0 - EPS) for j in range(c)]
        assert same(_aggregate(v, p, EPS, np.empty(c)), np.array(columns))
        assert [float(_aggregate(v[:, j], p[:, j], EPS, np.empty(()))) for j in range(c)] == columns

    @given(instances())
    @settings(max_examples=100, deadline=None)
    def test_two_sgd_steps(self, inst):
        rng, n, c, d, labels, m_pos, m_neg = inst
        params = random_params(rng, c, d, dtype=np.float32)
        grads_seq = [check_step(params, rng.normal(size=(n, d)), labels, m_pos, m_neg) for _ in range(2)]
        config = TrainConfig(learning_rate=float(rng.uniform(1e-3, 1.0)), momentum=float(rng.uniform(0.0, 0.99)),
                             weight_decay=float(rng.uniform(0.0, 0.1)), total_epochs=1)
        check_sgd(params, grads_seq, config)


def ref_central_differences(params, feats, labels, h, step):
    """Central differences of `ref.loss_with_mask` under the frozen mask h, one float64 flat entry at a time."""
    flat = params.flat.astype(np.float64)
    blocks = [a for _, a in HeadParams.from_flat(flat, params.num_classes, params.feat_dim).blocks()]
    grads = np.zeros_like(flat)
    for i, orig in enumerate(flat.tolist()):
        flat[i] = orig + step
        hi = ref.loss_with_mask(blocks, feats, labels, h, EPS)
        flat[i] = orig - step
        lo = ref.loss_with_mask(blocks, feats, labels, h, EPS)
        flat[i] = orig
        grads[i] = (hi - lo) / (2.0 * step)
    return grads


def check_finite_differences(params, feats, labels, m_pos, m_neg, step):
    h = ref.forward([a for _, a in params.blocks()], feats, labels, m_pos, m_neg, EPS)[1]
    got = finite_diff_grads(params, feats, labels, m_pos, m_neg, step)
    assert same(got.flat, ref_central_differences(params, feats, labels, h, step))


class TestFiniteDifferences:
    """gradcheck's finite differences equal a plain central-difference loop over the reference's frozen-mask loss."""

    @given(st.data(), st.booleans(), st.booleans(), st.sampled_from([1e-4, 1e-3, 3e-2]))
    @settings(max_examples=100, deadline=None)
    def test_random_instances(self, data, cover, float32_params, step):
        rng, n, c, d, labels, m_pos, m_neg = data.draw(instances(max_n=12, max_c=4, max_d=4, cover=cover))
        params = random_params(rng, c, d, dtype=np.float32 if float32_params else np.float64)
        feats = rng.normal(size=(n, d)).astype(np.float64 if float32_params else np.float32)
        check_finite_differences(params, feats, labels, m_pos, m_neg, step)

    @pytest.mark.parametrize("n, labels, m_pos, m_neg", [
        (1, [1], 1, 1), (1, [0], 1, 1), (1, [1, 0, 1], 2, 5),  # one region
        (7, [1], 3, 9), (7, [0], 9, 3), (7, [0], 7, 7),  # one class, budgets below, at and above N
        (9, [1, 0, 0, 1], 4, 2), (9, [1, 1, 1, 1], 9, 2), (9, [0, 0, 0, 0], 3, 12), (6, [1, 0, 1], 6, 6),
    ])
    def test_edges(self, n, labels, m_pos, m_neg):
        rng = np.random.default_rng(n * 10 + len(labels))
        labels = np.array(labels)
        params = random_params(rng, len(labels), 3)
        check_finite_differences(params, rng.normal(size=(n, 3)), labels, m_pos, m_neg, 1e-4)


def test_paper_shape_two_images():
    # N=2048 regions, C=20 classes, D=256 features: the shape the default schedule is built for
    rng = np.random.default_rng(2048)
    n, c, d = 2048, 20, 256
    params = random_params(rng, c, d, dtype=np.float32)
    params = HeadParams.from_flat((params.flat * 0.02).astype(np.float32), c, d)
    grads_seq = []
    for m_pos in (1024, 256):
        labels = (rng.random(c) < 0.15).astype(np.int64)
        labels[0] = 1
        feats = rng.normal(size=(n, d)).astype(np.float32).astype(np.float64)
        grads_seq.append(check_step(params, feats, labels, m_pos, 128))
    check_sgd(params, grads_seq, TrainConfig())


def bag_dataset(rng, sizes, c, d, distinct):
    """Images of the given region counts, with repeated feature rows so that class probabilities tie."""
    images = []
    for i, n in enumerate(sizes):
        labels = (rng.random(c) < 0.5).astype(np.int64)
        labels[rng.integers(c)] = 1
        feats = feats_with_repeats(rng, n, d, distinct).astype(np.float32)
        images.append(ImageBag(f"im{i}", boxes=np.tile([0.1, 0.1, 0.5, 0.5], (n, 1)), views=[feats], labels=labels))
    return Dataset(num_classes=c, feat_dim=d, class_names=[f"c{j}" for j in range(c)], images=images)


def synth_dataset(n_images, c, d, n, seed):
    return generate_synthetic(SynthConfig(n_images=n_images, num_classes=c, feat_dim=d, proposals_per_image=n,
                                          objects_max=1, seed=seed))


TRAIN_RUNS = {
    # warmup, then budgets 16, 8, 4 (= m_neg), 2, with a learning-rate step at epoch 5
    "warmup_and_halving": (lambda: synth_dataset(6, 4, 8, 16, 3),
                           dict(schedule=PruneSchedule(warmup_epochs=2, m_start=16, m_final=2, m_neg=4, total_epochs=8),
                                lr_decay_epoch=5)),
    "equal_budgets": (lambda: synth_dataset(5, 3, 6, 12, 4),
                      dict(schedule=PruneSchedule(warmup_epochs=1, m_start=4, m_final=4, m_neg=4, total_epochs=3))),
    "baseline": (lambda: synth_dataset(6, 4, 8, 16, 3),
                 dict(schedule=PruneSchedule(warmup_epochs=2, m_start=16, m_final=2, m_neg=4, total_epochs=8),
                      baseline=True)),
    "one_region": (lambda: bag_dataset(np.random.default_rng(5), [1] * 4, 3, 4, 1),
                   dict(schedule=PruneSchedule(warmup_epochs=1, m_start=4, m_final=1, m_neg=2, total_epochs=4))),
    "one_class": (lambda: bag_dataset(np.random.default_rng(6), [12] * 4, 1, 5, 4),
                  dict(schedule=PruneSchedule(warmup_epochs=1, m_start=8, m_final=2, m_neg=3, total_epochs=4))),
    "tied_varying_regions": (lambda: bag_dataset(np.random.default_rng(7), [3, 9, 16, 5, 16], 4, 3, 2),
                             dict(schedule=PruneSchedule(warmup_epochs=1, m_start=8, m_final=2, m_neg=3,
                                                         total_epochs=4))),
    # the README walkthrough's shape and schedule: N=64, C=6, D=64, budgets 64, 32, 16, 8 with m_neg=16
    "walkthrough_shape": (lambda: synth_dataset(6, 6, 64, 64, 11),
                          dict(schedule=PruneSchedule(warmup_epochs=2, m_start=64, m_final=8, m_neg=16,
                                                      total_epochs=8))),
    # C=10 (row sums over classes are pairwise) and region counts that shrink and grow from image
    # to image, so the step's workspace views are sliced shorter and longer again within an epoch
    "many_classes_varying_regions": (lambda: bag_dataset(np.random.default_rng(8), [40, 7, 40, 1, 23], 10, 6, 5),
                                     dict(schedule=PruneSchedule(warmup_epochs=1, m_start=32, m_final=4, m_neg=8,
                                                                 total_epochs=5))),
    # N=2048, C=20, D=256: warmup, then budgets 1024 and 512, with m_neg=128
    "paper_shape": (lambda: synth_dataset(2, 20, 256, 2048, 0),
                    dict(schedule=PruneSchedule(warmup_epochs=1, m_start=1024, m_final=512, m_neg=128, total_epochs=3))),
}


def train_run(name):
    """The dataset and config of one TRAIN_RUNS entry."""
    make, overrides = TRAIN_RUNS[name]
    config = TrainConfig(**{"learning_rate": 0.05, "total_epochs": overrides["schedule"].total_epochs,
                            "lr_decay_epoch": None, **overrides})
    return make(), config


def check_train(dataset, config):
    """A whole `train` run against the reference loop: parameters, velocity and loss history."""
    state = train(dataset, config)
    params, velocity, history = ref.train(dataset, config)
    for (_, got), want in zip(state.params.blocks(), params):
        assert same(got, want)
    for (_, got), want in zip(state.velocity.blocks(), velocity):
        assert same(got, want)
    assert state.loss_history == history


def force_split(monkeypatch):
    """Every pass of a workspace made from now on splits its branches, also on one CPU."""
    monkeypatch.setattr(head, "SPLIT_MIN", 1)
    monkeypatch.setattr(head, "_usable_cpus", lambda: 2)


@pytest.mark.parametrize("name", sorted(TRAIN_RUNS))
def test_train_equals_reference_loop(name):
    check_train(*train_run(name))


@pytest.mark.parametrize("name", sorted(TRAIN_RUNS))
def test_train_with_prefetch_equals_reference_loop(name, monkeypatch):
    # With every pass split, each step's worker copies the next image's features into the run's
    # second buffer, also where consecutive images change N.
    force_split(monkeypatch)
    dataset, config = train_run(name)
    assert _Run(dataset, init_params(dataset.feat_dim, dataset.num_classes, 0)).spare is not None
    check_train(dataset, config)


@pytest.mark.parametrize("name", ["many_classes_varying_regions", "tied_varying_regions"])
def test_train_with_prefetch_on_the_largest_images_equals_reference_loop(name, monkeypatch):
    # Only the largest images split: a step that does not hands its prefetch to no worker and
    # runs it itself, after selection.
    dataset, config = train_run(name)
    n_max = max(bag.n_regions for bag in dataset.images)
    monkeypatch.setattr(head, "SPLIT_MIN", n_max * dataset.feat_dim * dataset.num_classes)
    monkeypatch.setattr(head, "_usable_cpus", lambda: 2)
    work = _Run(dataset, init_params(dataset.feat_dim, dataset.num_classes, 0)).work
    assert {work.at(bag.n_regions).worker is not None for bag in dataset.images} == {False, True}
    check_train(dataset, config)


def test_prefetch_on_callers_sharing_the_worker_equals_reference_loop(monkeypatch):
    # Three runs on three threads hand their copies to the one worker, with the interpreter switching
    # threads every microsecond: a step that read a buffer its copy was still writing, or a copy that
    # landed in another run's buffer, would change the bytes.
    force_split(monkeypatch)
    dataset, config = train_run("many_classes_varying_regions")
    params, velocity, history = ref.train(dataset, config)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(3) as pool:
            states = [run.result(timeout=60) for run in [pool.submit(train, dataset, config) for _ in range(3)]]
    finally:
        sys.setswitchinterval(interval)
    for state in states:
        assert all(same(got, want) for (_, got), want in zip(state.params.blocks(), params))
        assert all(same(got, want) for (_, got), want in zip(state.velocity.blocks(), velocity))
        assert state.loss_history == history


def test_prefetch_error_reaches_train(monkeypatch):
    force_split(monkeypatch)
    dataset, config = train_run("tied_varying_regions")
    caller, copyto, weights, started = threading.get_ident(), np.copyto, head._weights, threading.Event()

    def failing_off_caller(*args, **kwargs):
        if threading.get_ident() != caller:
            started.set()
            raise RuntimeError("prefetch failed")
        return copyto(*args, **kwargs)

    def weights_after_worker_begins(*args):
        assert started.wait(timeout=10)  # so that the worker, not the caller, runs the prefetch
        return weights(*args)

    with monkeypatch.context() as patch:
        patch.setattr(np, "copyto", failing_off_caller)
        patch.setattr(head, "_weights", weights_after_worker_begins)
        with pytest.raises(RuntimeError, match="prefetch failed"):
            train(dataset, config)
    check_train(dataset, config)


@pytest.mark.parametrize("name", sorted(TRAIN_RUNS))
def test_run_holds_two_feature_buffers_at_every_shape(name):
    # whether or not its passes split, a run takes turns with two buffers sized for its largest image
    dataset, _ = train_run(name)
    run = _Run(dataset, init_params(dataset.feat_dim, dataset.num_classes, 0))
    n_max = max(bag.n_regions for bag in dataset.images)
    assert run.feats.shape == (n_max, dataset.feat_dim) and run.feats.dtype == np.float64
    assert run.spare.shape == run.feats.shape and run.spare.dtype == np.float64
    assert not np.shares_memory(run.spare, run.feats)


@pytest.mark.parametrize("split", [False, True], ids=["stacked", "split"])
@pytest.mark.parametrize("name", sorted(TRAIN_RUNS))
def test_steps_equal_reference_in_lockstep(name, split, monkeypatch):
    # Whole runs round every gradient into float32 parameters, which can absorb a one-ulp change in
    # the float64 step; here every step's gradient and loss are compared before the SGD update, with
    # the reference reading the trainer's parameters. The gate's own inputs force one path of the
    # branch split: every pass splits, or one usable CPU keeps every pass stacked.
    if split:
        force_split(monkeypatch)
    else:
        monkeypatch.setattr(head, "_usable_cpus", lambda: 1)
    dataset, config = train_run(name)
    params = init_params(dataset.feat_dim, dataset.num_classes, config.seed)
    state = TrainState(params=params, velocity=params.zeros_like())
    run = _Run(dataset, state.params)
    for epoch, idx, m_pos, m_neg in ref.steps(dataset, config):
        bag = dataset.images[idx]
        feats = bag.views[0].astype(np.float64)
        loss = image_step(state.params, feats, run.labels[idx], run.budgets(idx, m_pos, m_neg), config.epsilon,
                          run.work)
        assert (run.work.worker is not None) == split
        p, _, v, f, want = ref.forward([a for _, a in state.params.blocks()], feats, bag.labels, m_pos, m_neg,
                                       config.epsilon)
        assert loss == want
        for (_, got), want in zip(run.work.grads.blocks(), ref.backward(p, v, f, feats, bag.labels, config.epsilon)):
            assert same(got, want)
        state.epoch = epoch
        sgd_step(state, run.work.grads, config)
