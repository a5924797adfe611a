"""Two-branch detection head over fixed per-region features.

One linear branch produces per-region class probabilities (softmax over
classes), the other produces importance logits that are normalized with a
masked softmax over the regions selected for each class. Image-level class
scores are the importance-weighted sum of region probabilities, trained
with per-class binary cross entropy against the image-level labels.

All math is done in float64 regardless of input dtype, from one cast of
the parameter buffer per pass. Selection is non-differentiable and treated
as a constant during backward: gradients flow only through the regions
selected in the forward pass.

`image_step` is one image's forward and backward pass as the trainer runs
it, writing the gradient into a caller's buffer and keeping nothing else.
`forward_image` and `backward_image` are the same pass, split in two, as
the public entry points that keep every intermediate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wsdsel.errors import ConfigError

EPS = 1e-12  # clamp on aggregated scores before the logs


class HeadParams:
    """Weights and biases of the two linear branches, in one flat buffer.

    w_cls/b_cls feed the class softmax, w_imp/b_imp the importance
    branch. The four blocks are views, in that order and row-major, into
    `flat`, one contiguous 1-D array of 2*C*D + 2*C entries, so an update
    or a checkpoint read or write touches all of them at once. The same
    container is used for gradients, which mirror the parameter shapes
    block for block.
    """

    NAMES = ("w_cls", "b_cls", "w_imp", "b_imp")

    def __init__(self, w_cls, b_cls, w_imp, b_imp):
        blocks = [np.asarray(a) for a in (w_cls, b_cls, w_imp, b_imp)]
        c, d = blocks[0].shape
        if blocks[2].shape != (c, d) or blocks[1].shape != (c,) or blocks[3].shape != (c,):
            raise ValueError("parameter block shapes are inconsistent")
        self._bind(np.concatenate([a.ravel() for a in blocks]), c, d)

    @classmethod
    def from_flat(cls, flat: np.ndarray, num_classes: int, feat_dim: int) -> "HeadParams":
        """Blocks as views into `flat`, which is used as is, not copied."""
        params = cls.__new__(cls)
        params._bind(flat, num_classes, feat_dim)
        return params

    def _bind(self, flat: np.ndarray, c: int, d: int):
        if flat.shape != (2 * c * d + 2 * c,):
            raise ValueError(f"flat buffer has shape {flat.shape}, expected ({2 * c * d + 2 * c},)")
        self.flat = flat
        self.w_cls = flat[: c * d].reshape(c, d)
        self.b_cls = flat[c * d : c * d + c]
        self.w_imp = flat[c * d + c : 2 * c * d + c].reshape(c, d)
        self.b_imp = flat[2 * c * d + c :]

    @property
    def num_classes(self) -> int:
        return self.w_cls.shape[0]

    @property
    def feat_dim(self) -> int:
        return self.w_cls.shape[1]

    def blocks(self):
        """Iterate (name, array) over the four parameter blocks in buffer order."""
        for name in self.NAMES:
            yield name, getattr(self, name)

    def copy(self) -> "HeadParams":
        return HeadParams.from_flat(self.flat.copy(), self.num_classes, self.feat_dim)

    def zeros_like(self) -> "HeadParams":
        return HeadParams.from_flat(np.zeros_like(self.flat), self.num_classes, self.feat_dim)


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
    """Row-wise softmax of (N, C) logits, stabilized by subtracting each row's max.

    A max is exact in any order, so it is taken down the columns of the
    contiguous (C, N) transpose, where numpy compares whole rows at a time;
    along the short rows of the (N, C) array it runs one inner loop per row.
    """
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - np.ascontiguousarray(z.T).max(axis=0)[..., None])
    return e / e.sum(axis=-1, keepdims=True)


def linear_outputs(params: HeadParams, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both branches on (N, D) features: class probabilities p and importance logits, each (N, C)."""
    x = np.asarray(feats, dtype=np.float64)
    w = HeadParams.from_flat(params.flat.astype(np.float64, copy=False), params.num_classes, params.feat_dim)
    return class_softmax(x @ w.w_cls.T + w.b_cls), x @ w.w_imp.T + w.b_imp


def select_regions(p: np.ndarray, labels: np.ndarray, m_pos: int, m_neg: int) -> np.ndarray:
    """Class-specific top-M selection mask.

    For each class c independently, marks the min(N, budget) regions with
    the largest p[:, c], where the budget is m_pos for positive classes and
    m_neg for negative ones. Ties are broken in favor of the smaller region
    index, which makes the mask the deterministic argmax of the constrained
    selection objective. NaN ranks below every number, as in a stable
    argsort of -p.
    """
    return _select(np.asarray(p), np.asarray(labels, dtype=bool), m_pos, m_neg)[0].T


def _select(p: np.ndarray, pos: np.ndarray, m_pos: int, m_neg: int) -> tuple[np.ndarray, np.ndarray]:
    """The (C, N) selection mask of (N, C) scores `p`, and the (C,) budgets it selects.

    When every budget covers all N regions, the mask is all True. Otherwise
    all classes are done at once on the (C, N) transpose: one sort along
    regions gives each class's budget-th largest value t, and the mask is
    every region above t plus, in index order, as many regions equal to t
    as the budget still needs.
    """
    if m_pos < 1 or m_neg < 1:
        raise ValueError("region budgets must be >= 1")
    n, c = p.shape
    budget = np.where(pos, min(m_pos, n), min(m_neg, n))
    if min(budget.tolist()) == n:
        return np.ones((c, n), dtype=bool), budget
    key = np.negative(p.T, order="C")  # (C, N); ascending key = descending p
    t = np.sort(key, axis=1)[np.arange(c), budget - 1]
    h_t = key <= t[:, None]
    if (h_t.sum(axis=1) == budget).all():  # no NaN threshold, and no tie at t crosses a budget
        return h_t, budget
    short = np.isnan(t)
    if short.any():  # fewer than `budget` numbers: take them all, then NaNs in index order
        key[short] = np.isnan(key[short])
        t[short] = 1
    above = key < t[:, None]
    tied = key == t[:, None]
    need = budget - above.sum(axis=1)
    extra = np.flatnonzero(tied.sum(axis=1) > need)
    if extra.size:  # more regions tie at t than the budget has places left
        tied[extra] &= np.cumsum(tied[extra], axis=1) <= need[extra, None]
    return above | tied, budget


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax of each column over its selected entries only; masked entries are exactly 0.

    `logits` and `mask` are (N, C); a 1-D input is one column. Each column
    is stabilized by subtracting the max logit over its selected set. A
    column with no selected entry violates the contract (select_regions
    always selects at least one region).
    """
    z = np.asarray(logits, dtype=np.float64)
    h = np.asarray(mask, dtype=bool)
    column = z.ndim == 1
    if column:
        z, h = z[:, None], h[:, None]
    counts = h.sum(axis=0)
    if counts.min() == 0:
        raise ValueError("masked_softmax requires at least one selected entry in every column")
    v = _masked_softmax(z, h.T, counts)
    return v[:, 0] if column else v


def _masked_softmax(z: np.ndarray, h_t: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Masked softmax of (N, C) logits under the (C, N) mask `h_t`, which selects counts[j] entries of class j.

    The classes that select the same count m form one contiguous (classes, m)
    block of their selected logits, gathered class by class in region order,
    so each row is summed exactly as a 1-D softmax over that selection would
    sum it. When every region is selected, the block is the contiguous (C, N)
    transpose itself. The result is C-ordered (N, C), the layout `aggregate`
    and the backward pass take their per-class sums in.
    """
    n, c = z.shape
    levels = set(counts.tolist())
    if levels == {n}:
        z_t = np.ascontiguousarray(z.T)
        e = np.exp(z_t - z_t.max(axis=1, keepdims=True))
        v = np.empty((n, c))
        np.divide(e, e.sum(axis=1, keepdims=True), out=v.T)
        return v
    v = np.zeros((n, c))
    for m in levels:
        group = h_t if len(levels) == 1 else h_t & (counts == m)[:, None]
        block = z.T[group].reshape(-1, m)
        e = np.exp(block - block.max(axis=1, keepdims=True))
        v.T[group] = (e / e.sum(axis=1, keepdims=True)).ravel()
    return v


def aggregate(v_col: np.ndarray, p_col: np.ndarray, eps: float = EPS) -> float | np.ndarray:
    """Importance-weighted sum of region probabilities, clamped to [eps, 1-eps].

    Two (N,) columns give a float; two (N, C) arrays give the (C,) scores of
    all classes. Each class is one (1, N) @ (N, 1) product of a stacked
    matmul, which numpy hands to the same strided BLAS dot as
    np.dot(v[:, j], p[:, j]), so the scores are those bits. np.einsum and
    (v * p).sum(0) add in another order, and np.vecdot needs numpy 2.0
    while the package supports numpy>=1.24.
    """
    v = np.asarray(v_col, dtype=np.float64)
    p = np.asarray(p_col, dtype=np.float64)
    f = np.matmul(v.T[..., None, :], p.T[..., :, None]).reshape(v.shape[1:])
    f = np.minimum(np.maximum(f, eps), 1.0 - eps)
    return float(f) if f.ndim == 0 else f


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
    p, logits_imp, h_t, v, f, loss = _forward(params, x, y, m_pos, m_neg, eps)
    return ForwardTrace(p=p, logits_imp=logits_imp, h=h_t.T, v=v, f=f, loss=loss)


def _forward(params: HeadParams, x: np.ndarray, labels: np.ndarray, m_pos: int, m_neg: int, eps: float):
    """(p, logits_imp, (C, N) mask, v, f, loss) of one image with float64 features x."""
    p, logits_imp = linear_outputs(params, x)
    h_t, counts = _select(p, np.asarray(labels, dtype=bool), m_pos, m_neg)
    v = _masked_softmax(logits_imp, h_t, counts)
    f = aggregate(v, p, eps)
    return p, logits_imp, h_t, v, f, image_loss(labels, f)


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
    return image_loss(labels, aggregate(masked_softmax(logits_imp, h), p, eps))


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
    if x.shape != (trace.p.shape[0], params.feat_dim):
        raise ValueError("features do not match the trace/params shapes")
    grads = HeadParams.from_flat(np.empty(params.flat.shape), params.num_classes, params.feat_dim)
    return _backward(trace.p, trace.v, trace.f, x, labels, eps, grads)


def _backward(p, v, f, x, labels, eps, out: HeadParams) -> HeadParams:
    """Write the gradient of one image's loss into the float64 blocks of `out`, given its forward pass."""
    y = np.asarray(labels, dtype=np.float64)
    saturated = (f <= eps) | (f >= 1.0 - eps)
    dl_df = np.where(saturated, 0.0, -y / f + (1.0 - y) / (1.0 - f))

    dv = dl_df * p  # (N, C); only selected entries matter below
    dp = dl_df * v  # zero off-mask since v is

    # Masked softmax Jacobian per class column: zero off-mask by construction.
    dz_imp = v * (dv - (v * dv).sum(axis=0, keepdims=True))
    # Row softmax Jacobian over classes.
    dz_cls = p * (dp - (p * dp).sum(axis=1, keepdims=True))

    np.matmul(dz_cls.T, x, out=out.w_cls)
    np.sum(dz_cls, axis=0, out=out.b_cls)
    np.matmul(dz_imp.T, x, out=out.w_imp)
    np.sum(dz_imp, axis=0, out=out.b_imp)
    return out


def image_step(
    params: HeadParams,
    feats: np.ndarray,
    labels: np.ndarray,
    m_pos: int,
    m_neg: int,
    eps: float,
    grads: HeadParams,
) -> float:
    """Forward and backward pass of one image: writes the gradient into float64 `grads`, returns the loss.

    `feats` must be a float64 (N, D) array. Nothing else of the pass
    outlives the call.
    """
    p, _, _, v, f, loss = _forward(params, feats, labels, m_pos, m_neg, eps)
    _backward(p, v, f, feats, labels, eps, grads)
    return loss


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

    work = HeadParams.from_flat(params.flat.astype(np.float64), params.num_classes, params.feat_dim)
    grads = work.zeros_like()
    for i, orig in enumerate(work.flat.tolist()):
        work.flat[i] = orig + step
        hi = loss_at(work)
        work.flat[i] = orig - step
        lo = loss_at(work)
        work.flat[i] = orig
        grads.flat[i] = (hi - lo) / (2.0 * step)
    return grads


def gradient_agreement(analytic: HeadParams, numeric: HeadParams, floor: float = 1e-3) -> float:
    """Max relative discrepancy between two gradient sets.

    Per entry: |a - n| / max(|a|, |n|, floor); the floor keeps near-zero
    entries from inflating the ratio beyond finite-difference resolution.
    """
    a, n = analytic.flat, numeric.flat
    return float((np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)).max())


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
    if instances < 1:
        raise ConfigError(f"instances must be >= 1, got {instances}")
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
