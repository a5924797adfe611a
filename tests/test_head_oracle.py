"""The whole-matrix training step equals the per-class reference byte for byte.

Selection, the masked softmax, the forward and backward pass and the SGD
update are compared with `reference_head` on random instances chosen to
hit the edges: tied class probabilities, budgets at or above N, a single
region, a single class, and positive and negative budgets that differ.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_head as ref
from wsdsel.head import EPS, HeadParams, backward_image, forward_image, masked_softmax, select_regions
from wsdsel.trainer import TrainConfig, TrainState, sgd_step


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@st.composite
def instances(draw, max_n=24, max_c=6, max_d=6):
    """(rng, n, c, d, labels, m_pos, m_neg) with budgets from 1 to past N."""
    n = draw(st.integers(1, max_n))
    c = draw(st.integers(1, max_c))
    d = draw(st.integers(1, max_d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = (rng.random(c) < 0.5).astype(np.int64)
    m_pos = draw(st.integers(1, n + 3))
    m_neg = draw(st.integers(1, n + 3))
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
    @given(instances(max_n=40, max_c=8), st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_tied_scores(self, inst, levels):
        rng, n, c, _, labels, m_pos, m_neg = inst
        p = tied_p(rng, n, c, levels)
        assert same(select_regions(p, labels, m_pos, m_neg), ref.select_regions(p, labels, m_pos, m_neg))

    @given(instances(max_n=40, max_c=8))
    @settings(max_examples=200, deadline=None)
    def test_distinct_scores(self, inst):
        rng, n, c, _, labels, m_pos, m_neg = inst
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
    @given(instances(max_n=30, max_c=8))
    @settings(max_examples=300, deadline=None)
    def test_any_mask(self, inst):
        # arbitrary masks: every column has its own selected count
        rng, n, c, _, _, _, _ = inst
        logits = rng.normal(scale=3.0, size=(n, c))
        mask = rng.random((n, c)) < rng.random(c)
        mask[rng.integers(0, n, size=c), np.arange(c)] = True
        assert same(masked_softmax(logits, mask), ref.masked_softmax(logits, mask))

    @given(instances(max_n=30, max_c=8), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_selection_mask(self, inst, levels):
        rng, n, c, _, labels, m_pos, m_neg = inst
        logits = tied_p(rng, n, c, levels) * 4.0
        mask = select_regions(rng.random((n, c)), labels, m_pos, m_neg)
        assert same(masked_softmax(logits, mask), ref.masked_softmax(logits, mask))

    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_one_column(self, n, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=n)
        mask = rng.random(n) < 0.5
        mask[rng.integers(n)] = True
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
    @given(instances(), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_forward_and_backward(self, inst, distinct):
        rng, n, c, d, labels, m_pos, m_neg = inst
        params = random_params(rng, c, d, dtype=np.float32)
        check_step(params, feats_with_repeats(rng, n, d, distinct), labels, m_pos, m_neg)

    @given(instances())
    @settings(max_examples=100, deadline=None)
    def test_two_sgd_steps(self, inst):
        rng, n, c, d, labels, m_pos, m_neg = inst
        params = random_params(rng, c, d, dtype=np.float32)
        grads_seq = [check_step(params, rng.normal(size=(n, d)), labels, m_pos, m_neg) for _ in range(2)]
        config = TrainConfig(learning_rate=float(rng.uniform(1e-3, 1.0)), momentum=float(rng.uniform(0.0, 0.99)),
                             weight_decay=float(rng.uniform(0.0, 0.1)), total_epochs=1)
        check_sgd(params, grads_seq, config)


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
