"""Per-class reference implementations of the training step, used as oracles by the tests.

Top-M selection, the masked softmax, the forward pass (also with a frozen
selection mask), the optimizer update and the training loop built from
them are written here the plain way, one class column, one parameter
block or one image at a time, independent of the whole-matrix code in
`wsdsel.head` and `wsdsel.trainer` that they cross-check. The tests hold
the two to equal bytes, not to a tolerance.
"""

from __future__ import annotations

import numpy as np


def select_regions(p: np.ndarray, labels, m_pos: int, m_neg: int) -> np.ndarray:
    """Each class keeps its min(N, budget) largest p by a stable argsort of -p, ties to the smaller index."""
    p = np.asarray(p)
    n, c = p.shape
    h = np.zeros((n, c), dtype=bool)
    for j in range(c):
        budget = min(n, m_pos if labels[j] else m_neg)
        order = np.argsort(-p[:, j], kind="stable")
        h[order[:budget], j] = True
    return h


def masked_softmax_column(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax of one column over its selected entries; zero elsewhere."""
    mask = np.asarray(mask, dtype=bool)
    z = np.asarray(logits, dtype=np.float64)
    v = np.zeros_like(z)
    sel = z[mask]
    e = np.exp(sel - sel.max())
    v[mask] = e / e.sum()
    return v


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The column softmax applied to each class column in turn."""
    z = np.asarray(logits, dtype=np.float64)
    v = np.zeros_like(z)
    for j in range(z.shape[1]):
        v[:, j] = masked_softmax_column(z[:, j], mask[:, j])
    return v


def outputs(blocks, feats: np.ndarray):
    """The two linear branches on (N, D) features: class probabilities p and importance logits, each (N, C)."""
    w_cls, b_cls, w_imp, b_imp = blocks
    x = np.asarray(feats, dtype=np.float64)
    z = x @ w_cls.T.astype(np.float64) + b_cls.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    return p, x @ w_imp.T.astype(np.float64) + b_imp.astype(np.float64)


def scores(v, p, labels, eps: float):
    """Each class's clamped dot of its v and p columns, and the summed binary cross entropy: (f, loss)."""
    f = np.array([min(max(float(np.dot(v[:, j], p[:, j])), eps), 1.0 - eps) for j in range(p.shape[1])])
    y = np.asarray(labels, dtype=np.float64)
    return f, float(-(y * np.log(f) + (1.0 - y) * np.log1p(-f)).sum())


def forward(blocks, feats: np.ndarray, labels, m_pos: int, m_neg: int, eps: float):
    """One image's forward pass from the four blocks: (p, h, v, f, loss)."""
    p, logits_imp = outputs(blocks, feats)
    h = select_regions(p, labels, m_pos, m_neg)
    v = masked_softmax(logits_imp, h)
    return (p, h, v, *scores(v, p, labels, eps))


def loss_with_mask(blocks, feats: np.ndarray, labels, h: np.ndarray, eps: float) -> float:
    """The loss of `forward` with the (N, C) selection mask frozen to `h`, the function `backward` differentiates."""
    p, logits_imp = outputs(blocks, feats)
    return scores(masked_softmax(logits_imp, h), p, labels, eps)[1]


def backward(p, v, f, feats: np.ndarray, labels, eps: float):
    """Gradients of the loss for the four blocks, given the forward intermediates."""
    x = np.asarray(feats, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    saturated = (f <= eps) | (f >= 1.0 - eps)
    dl_df = np.where(saturated, 0.0, -y / f + (1.0 - y) / (1.0 - f))
    dv = dl_df[None, :] * p
    dp = dl_df[None, :] * v
    dz_imp = v * (dv - (v * dv).sum(axis=0, keepdims=True))
    dz_cls = p * (dp - (p * dp).sum(axis=1, keepdims=True))
    return [dz_cls.T @ x, dz_cls.sum(axis=0), dz_imp.T @ x, dz_imp.sum(axis=0)]


def sgd_step(params: list, velocity: list, grads: list, lr: float, momentum: float, weight_decay: float):
    """Momentum SGD with weight decay, block by block, in place on float32 arrays."""
    lr, mom, wd = np.float32(lr), np.float32(momentum), np.float32(weight_decay)
    for param, vel, grad in zip(params, velocity, grads):
        g = grad.astype(np.float32)
        vel *= mom
        vel -= lr * (g + wd * param)
        param += vel


def steps(dataset, config):
    """(epoch, image index, m_pos, m_neg) of every training step, in order.

    Each epoch's order is drawn from the same (seed, epoch) stream the
    trainer documents; budgets come from the schedule, or are N for the
    baseline.
    """
    from wsdsel.schedule import pos_budget

    for epoch in range(config.total_epochs):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1, epoch)))
        for idx in rng.permutation(len(dataset.images)):
            n = dataset.images[idx].n_regions
            if config.baseline:
                yield epoch, idx, n, n
            else:
                yield epoch, idx, pos_budget(epoch, n, config.schedule), config.schedule.m_neg


def train(dataset, config):
    """The training loop, one image and one class at a time: (params, velocity, loss history) as block lists.

    Starts from `trainer.init_params` and runs the `steps` in order.
    """
    from wsdsel.trainer import init_params

    init = init_params(dataset.feat_dim, dataset.num_classes, config.seed)
    params = [a.copy() for _, a in init.blocks()]
    velocity = [np.zeros_like(a) for a in params]
    totals = [0.0] * config.total_epochs
    for epoch, idx, m_pos, m_neg in steps(dataset, config):
        bag = dataset.images[idx]
        feats = bag.views[0]
        p, _, v, f, loss = forward(params, feats, bag.labels, m_pos, m_neg, config.epsilon)
        grads = backward(p, v, f, feats, bag.labels, config.epsilon)
        sgd_step(params, velocity, grads, config.lr_at(epoch), config.momentum, config.weight_decay)
        totals[epoch] += loss
    return params, velocity, [total / len(dataset.images) for total in totals]
