"""Two-branch detection head over fixed per-region features.

One linear branch produces per-region class probabilities (softmax over
classes), the other produces importance logits that are normalized with a
masked softmax over the regions selected for each class. Image-level class
scores are the importance-weighted sum of region probabilities, trained
with per-class binary cross entropy against the image-level labels.

All math is done in float64 regardless of input dtype. Selection is
non-differentiable and treated as a constant during backward: gradients
flow only through the regions selected in the forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

EPS = 1e-12  # clamp on aggregated scores before the logs


@dataclass
class HeadParams:
    """Weights and biases of the two linear branches.

    w_cls/b_cls feed the class softmax, w_imp/b_imp the importance
    branch. The same container is used for gradients, which mirror the
    parameter shapes block for block.
    """

    w_cls: np.ndarray  # (C, D)
    b_cls: np.ndarray  # (C,)
    w_imp: np.ndarray  # (C, D)
    b_imp: np.ndarray  # (C,)

    def __post_init__(self):
        c, d = self.w_cls.shape
        if self.w_imp.shape != (c, d) or self.b_cls.shape != (c,) or self.b_imp.shape != (c,):
            raise ValueError("parameter block shapes are inconsistent")

    @property
    def num_classes(self) -> int:
        return self.w_cls.shape[0]

    @property
    def feat_dim(self) -> int:
        return self.w_cls.shape[1]

    def blocks(self):
        """Iterate (name, array) over the four parameter blocks in a fixed order."""
        for f in fields(self):
            yield f.name, getattr(self, f.name)

    def copy(self) -> "HeadParams":
        return HeadParams(*(arr.copy() for _, arr in self.blocks()))

    def zeros_like(self) -> "HeadParams":
        return HeadParams(*(np.zeros_like(arr) for _, arr in self.blocks()))


@dataclass
class ForwardTrace:
    """All intermediates of one image's forward pass.

    p: (N, C) region class probabilities; logits_imp: (N, C) importance
    logits; h: (N, C) boolean selection mask; v: (N, C) importance weights
    (zero off-mask, each class column sums to 1 over selected entries);
    f: (C,) aggregated image scores clamped to [eps, 1-eps]; loss: scalar.
    """

    p: np.ndarray
    logits_imp: np.ndarray
    h: np.ndarray
    v: np.ndarray
    f: np.ndarray
    loss: float


def class_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's max."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def linear_outputs(params: HeadParams, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both branches on (N, D) features: class probabilities p and importance logits, each (N, C)."""
    x = np.asarray(feats, dtype=np.float64)
    p = class_softmax(x @ params.w_cls.T.astype(np.float64) + params.b_cls.astype(np.float64))
    return p, x @ params.w_imp.T.astype(np.float64) + params.b_imp.astype(np.float64)


def select_regions(p: np.ndarray, labels: np.ndarray, m_pos: int, m_neg: int) -> np.ndarray:
    """Class-specific top-M selection mask.

    For each class c independently, marks the min(N, budget) regions with
    the largest p[:, c], where the budget is m_pos for positive classes and
    m_neg for negative ones. Ties are broken in favor of the smaller region
    index, which makes the mask the deterministic argmax of the constrained
    selection objective.
    """
    if m_pos < 1 or m_neg < 1:
        raise ValueError("region budgets must be >= 1")
    p = np.asarray(p)
    n, c = p.shape
    h = np.zeros((n, c), dtype=bool)
    for j in range(c):
        budget = min(n, m_pos if labels[j] else m_neg)
        order = np.argsort(-p[:, j], kind="stable")
        h[order[:budget], j] = True
    return h


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the selected entries only; masked entries are exactly 0.

    Stabilized by subtracting the max logit over the selected set. An
    all-zero mask violates the contract (select_regions always selects at
    least one region).
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("masked_softmax requires at least one selected entry")
    z = np.asarray(logits, dtype=np.float64)
    v = np.zeros_like(z)
    sel = z[mask]
    e = np.exp(sel - sel.max())
    v[mask] = e / e.sum()
    return v


def importance_weights(logits_imp: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Masked softmax of each class column of the importance logits over its selected regions."""
    v = np.zeros_like(logits_imp)
    for j in range(logits_imp.shape[1]):
        v[:, j] = masked_softmax(logits_imp[:, j], h[:, j])
    return v


def aggregate(v_col: np.ndarray, p_col: np.ndarray, eps: float = EPS) -> float:
    """Importance-weighted sum of region probabilities, clamped to [eps, 1-eps]."""
    f = float(np.dot(np.asarray(v_col, dtype=np.float64), np.asarray(p_col, dtype=np.float64)))
    return min(max(f, eps), 1.0 - eps)


def image_loss(labels: np.ndarray, f: np.ndarray) -> float:
    """Per-class binary cross entropy summed over classes.

    Expects f already clamped away from {0, 1}.
    """
    y = np.asarray(labels, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    return float(-(y * np.log(f) + (1.0 - y) * np.log1p(-f)).sum())


def forward_image(
    params: HeadParams,
    feats: np.ndarray,
    labels: np.ndarray,
    m_pos: int,
    m_neg: int,
    eps: float = EPS,
) -> ForwardTrace:
    """Full forward pass for one image, retaining all intermediates."""
    x = np.asarray(feats, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[1] != params.feat_dim:
        raise ValueError(f"features must be (N, {params.feat_dim}), got {x.shape}")
    if y.shape != (params.num_classes,):
        raise ValueError(f"labels must be ({params.num_classes},), got {y.shape}")

    p, logits_imp = linear_outputs(params, x)
    h = select_regions(p, y, m_pos, m_neg)
    return _finish_forward(p, logits_imp, h, y, eps)


def _finish_forward(p, logits_imp, h, y, eps) -> ForwardTrace:
    v = importance_weights(logits_imp, h)
    f = np.array([aggregate(v[:, j], p[:, j], eps) for j in range(p.shape[1])])
    return ForwardTrace(p=p, logits_imp=logits_imp, h=h, v=v, f=f, loss=image_loss(y, f))


def loss_with_mask(
    params: HeadParams,
    feats: np.ndarray,
    labels: np.ndarray,
    h: np.ndarray,
    eps: float = EPS,
) -> float:
    """Loss of the forward pass with the selection mask frozen to `h`.

    This is the smooth function that backward_image differentiates; it is
    also what the finite-difference oracle perturbs.
    """
    p, logits_imp = linear_outputs(params, feats)
    return _finish_forward(p, logits_imp, np.asarray(h, dtype=bool), np.asarray(labels), eps).loss


def backward_image(
    trace: ForwardTrace,
    params: HeadParams,
    feats: np.ndarray,
    labels: np.ndarray,
    eps: float = EPS,
) -> HeadParams:
    """Exact gradient of trace.loss w.r.t. all four parameter blocks.

    The selection mask is frozen at its forward value, and the clamp on f
    passes no gradient when saturated. Regions unselected by every class
    contribute nothing to any block.
    """
    x = np.asarray(feats, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.shape != (trace.p.shape[0], params.feat_dim):
        raise ValueError("features do not match the trace/params shapes")

    f = trace.f
    saturated = (f <= eps) | (f >= 1.0 - eps)
    dl_df = np.where(saturated, 0.0, -y / f + (1.0 - y) / (1.0 - f))

    p, v = trace.p, trace.v
    dv = dl_df[None, :] * p  # (N, C); only selected entries matter below
    dp = dl_df[None, :] * v  # zero off-mask since v is

    # Masked softmax Jacobian per class column: zero off-mask by construction.
    dz_imp = v * (dv - (v * dv).sum(axis=0, keepdims=True))
    # Row softmax Jacobian over classes.
    dz_cls = p * (dp - (p * dp).sum(axis=1, keepdims=True))

    return HeadParams(
        w_cls=dz_cls.T @ x,
        b_cls=dz_cls.sum(axis=0),
        w_imp=dz_imp.T @ x,
        b_imp=dz_imp.sum(axis=0),
    )


def finite_diff_grads(
    params: HeadParams,
    feats: np.ndarray,
    labels: np.ndarray,
    m_pos: int,
    m_neg: int,
    step: float = 1e-4,
    eps: float = EPS,
) -> HeadParams:
    """Central-difference gradients of the image loss, entry by entry.

    The selection mask is frozen to the base forward pass's mask for every
    perturbed evaluation, so this differentiates the same smooth function
    as backward_image.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    base = forward_image(params, feats, labels, m_pos, m_neg, eps)
    h = base.h

    def loss_at(p: HeadParams) -> float:
        return loss_with_mask(p, feats, labels, h, eps)

    work = HeadParams(*(arr.astype(np.float64).copy() for _, arr in params.blocks()))
    grads = work.zeros_like()
    for name, arr in work.blocks():
        g = getattr(grads, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            hi = loss_at(work)
            arr[idx] = orig - step
            lo = loss_at(work)
            arr[idx] = orig
            g[idx] = (hi - lo) / (2.0 * step)
    return grads


def gradient_agreement(analytic: HeadParams, numeric: HeadParams, floor: float = 1e-3) -> float:
    """Max relative discrepancy between two gradient sets.

    Per entry: |a - n| / max(|a|, |n|, floor); the floor keeps near-zero
    entries from inflating the ratio beyond finite-difference resolution.
    """
    worst = 0.0
    for (_, a), (_, n) in zip(analytic.blocks(), numeric.blocks()):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def run_gradcheck(
    seed: int = 0,
    instances: int = 100,
    max_regions: int = 12,
    max_classes: int = 4,
    max_dim: int = 8,
    step: float = 1e-4,
    tolerance: float = 1e-4,
) -> dict:
    """Backward-vs-finite-difference suite over randomized small instances.

    Returns a report with the max relative error, the worst instance, and
    a pass flag at `tolerance`. Both label polarities are exercised.
    """
    rng = np.random.default_rng(seed)
    worst_err = 0.0
    worst_desc = ""
    for i in range(instances):
        n = int(rng.integers(1, max_regions + 1))
        c = int(rng.integers(1, max_classes + 1))
        d = int(rng.integers(1, max_dim + 1))
        feats = rng.normal(size=(n, d))
        params = HeadParams(
            w_cls=rng.normal(scale=0.1, size=(c, d)),
            b_cls=rng.normal(scale=0.1, size=c),
            w_imp=rng.normal(scale=0.1, size=(c, d)),
            b_imp=rng.normal(scale=0.1, size=c),
        )
        labels = (rng.random(c) < 0.5).astype(np.int64)
        m_pos = int(rng.integers(1, n + 1))
        m_neg = int(rng.integers(1, n + 1))
        trace = forward_image(params, feats, labels, m_pos, m_neg)
        analytic = backward_image(trace, params, feats, labels)
        numeric = finite_diff_grads(params, feats, labels, m_pos, m_neg, step)
        err = gradient_agreement(analytic, numeric)
        if err > worst_err:
            worst_err = err
            worst_desc = f"instance {i}: N={n} C={c} D={d} m_pos={m_pos} m_neg={m_neg} labels={labels.tolist()}"
    return {
        "instances": instances,
        "max_rel_error": worst_err,
        "tolerance": tolerance,
        "worst_instance": worst_desc,
        "passed": worst_err < tolerance,
    }
