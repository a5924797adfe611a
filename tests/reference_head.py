"""Per-class reference implementations of the training step, used as oracles by the tests.

Top-M selection, the masked softmax and the optimizer update are written
here the plain way, one class column or one parameter block at a time,
independent of the whole-matrix code in `wsdsel.head` and
`wsdsel.trainer` that they cross-check. The tests hold the two to equal
bytes, not to a tolerance.
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


def forward(blocks, feats: np.ndarray, labels, m_pos: int, m_neg: int, eps: float):
    """One image's forward pass from the four blocks: (p, h, v, f, loss)."""
    w_cls, b_cls, w_imp, b_imp = blocks
    x = np.asarray(feats, dtype=np.float64)
    z = x @ w_cls.T.astype(np.float64) + b_cls.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    logits_imp = x @ w_imp.T.astype(np.float64) + b_imp.astype(np.float64)
    h = select_regions(p, labels, m_pos, m_neg)
    v = masked_softmax(logits_imp, h)
    f = np.array([min(max(float(np.dot(v[:, j], p[:, j])), eps), 1.0 - eps) for j in range(p.shape[1])])
    y = np.asarray(labels, dtype=np.float64)
    loss = float(-(y * np.log(f) + (1.0 - y) * np.log1p(-f)).sum())
    return p, h, v, f, loss


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
