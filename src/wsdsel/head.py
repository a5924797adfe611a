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

The parameters are one flat buffer of two rows, one per branch,
`[w_cls, b_cls | w_imp, b_imp]`. Besides the four blocks, `HeadParams`
views it as the stacked weights `w` (2, C, D) and biases `b` (2, C), so
both branches run as one (2, N, C) stack: one batched matmul gives both
branches' logits, the backward pass runs its elementwise work on the
stacked pairs, and one batched matmul and one reduction write both
branches' gradients. A batched matmul makes the same BLAS call per branch
as a separate product would, so the stack gives the same bits.

`image_step` is one image's forward and backward pass as the trainer runs
it. It computes in a `StepWork`, buffers sized once for the largest image,
from per-image constants built once: `ImageLabels` and, per (m_pos, m_neg),
`Budgets`. It allocates no (N, C) temporary and keeps nothing else.
`forward_image` and `backward_image` are the same pass, split in two and
run in a workspace of their own, as the public entry points that keep
every intermediate. Eval runs the forward stages (`_outputs`, `_select`,
`_masked_softmax`) in one workspace too, and so does `finite_diff_grads`
for each perturbed loss (`_outputs`, `_masked_softmax` under its frozen
mask, `_aggregate`, `_loss`). `StepWork.sized_for` is the one check, for
training and eval alike, that a dataset fits the params.

Branch split. The two branches share only the features until the
aggregation f = sum(v * p), so at large shapes a pass runs them on two
threads. The module's one worker thread (`_BranchWorker`), started at the
first task handed to it in the process and never stopped, runs the
importance branch's half while the calling thread runs the class branch's
half, each into its own buffers of the caller's `StepWork`:
- forward: the worker computes x @ w_imp.T + b_imp into z[1]; the caller
  computes x @ w_cls.T + b_cls into z[0] and its row softmax;
- backward: the worker runs dv, v * dv, its sum over regions, dz_imp and
  the w_imp and b_imp gradients; the caller runs dp, p * dp, its sum over
  classes, dz_cls and the w_cls and b_cls gradients.
Each half makes the BLAS call and the elementwise operations and
reductions of its branch in the stack, so the split gives the same bits.
numpy releases the interpreter lock inside its loops and BLAS calls, so
the halves run on two cores. Between the two products, selection, the
masked softmax, aggregation and the loss run on the calling thread, and
a training step hands the worker its `prefetch` task beside them: the
trainer's copy of the next image's features into its second buffer.
A pass splits where the one gate, `_worker_for(N*D*C, SPLIT_MIN)`, gives
the worker: at N*D*C of at least 2^20 on at least two usable CPUs
(`os.sched_getaffinity`). Below that, the handoff and the worker's
wake-up cost more than the products save. The worker calls numpy only,
never a wsdsel function, and so must a prefetch task: perfbench's tracer
wraps module functions by name and keeps one span stack. If the worker
has not begun a task by the time the caller's half ends, the caller runs
it itself, so callers on several threads share the worker safely. An
exception raised in the worker's task is re-raised in the caller once
both halves are done. The first task may also come from
`data.generate_synthetic`, whose feature split, behind the same gate,
hands the worker one image's feature draws (see `wsdsel.data`).
"""

from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

from wsdsel.errors import ConfigError, DataError

EPS = 1e-12  # clamp on aggregated scores before the logs
# The smallest N*D*C at which a pass runs its two branches on two threads (see the module docstring).
SPLIT_MIN = 1 << 20


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _BranchWorker:
    """One daemon thread that runs a task beside the calling thread (see the module docstring).

    Each task goes over a queue with a claim lock and a done lock of its
    own, a lighter handoff than an executor's future. Whichever thread
    takes the claim first runs the task: the worker when it wakes, or the
    caller when its own half ends before the worker has woken, so a late
    wake-up costs no more than running both halves here. Between tasks
    the thread holds no reference to the last one, so a finished pass's
    buffers are freed with their workspace.
    """

    def __init__(self):
        self._tasks = queue.SimpleQueue()
        self._started = threading.Lock()
        self._thread = None

    def _serve(self):
        while True:
            task, claim, done, errors = self._tasks.get()
            if claim.acquire(blocking=False):
                try:
                    task()
                except BaseException as err:  # re-raised in the caller by `beside`
                    errors.append(err)
                done.release()
            del task, errors  # the closures hold the pass's workspace and features

    def beside(self, task, own):
        """Run `task` on the worker and `own` here at the same time; return once both are done."""
        with self._started:
            if self._thread is None:
                self._thread = threading.Thread(target=self._serve, name="wsdsel-branch", daemon=True)
                self._thread.start()
        claim, done, errors = threading.Lock(), threading.Lock(), []
        done.acquire()
        self._tasks.put((task, claim, done, errors))
        try:
            own()
        finally:
            stolen = claim.acquire(blocking=False)
            if not stolen:  # the worker has the task: wait for it, also when `own` raised
                done.acquire()
        if stolen:
            task()
        elif errors:
            raise errors[0]


_WORKER = _BranchWorker()
if hasattr(os, "register_at_fork"):  # a forked child has no worker thread: it starts its own, on a fresh queue
    os.register_at_fork(after_in_child=_WORKER.__init__)


def _worker_for(size: int, minimum: int) -> _BranchWorker | None:
    """The worker for a task of `size` whose split pays from `minimum` on: `_WORKER` on two or more CPUs, else None."""
    return _WORKER if size >= minimum and _usable_cpus() > 1 else None


class HeadParams:
    """Weights and biases of the two linear branches, in one flat buffer.

    w_cls/b_cls feed the class softmax, w_imp/b_imp the importance
    branch. `flat` is one contiguous 1-D array of two rows of C*D + C
    entries, `[w_cls, b_cls | w_imp, b_imp]`, each weight row-major. The
    four blocks are views into it, and so are the stacked `w` (2, C, D)
    and `b` (2, C), row 0 the class branch and row 1 the importance
    branch; nothing is copied, so an update or a checkpoint read or write
    touches all of them at once. The same container is used for
    gradients, which mirror the parameter shapes block for block.
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
        rows = flat.reshape(2, c * d + c)
        self.w = rows[:, : c * d].reshape(2, c, d)
        self.b = rows[:, c * d :]
        self.w_cls, self.w_imp = self.w
        self.b_cls, self.b_imp = self.b

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


class ImageLabels:
    """One image's label vector in the forms the pass reads: `pos` as bool, and y, -y and 1 - y as float64."""

    def __init__(self, labels):
        self.pos = np.asarray(labels, dtype=bool)
        self.y = np.asarray(labels, dtype=np.float64)
        self.neg_y = -self.y
        self.not_y = 1.0 - self.y


def _levels(counts: np.ndarray, n: int):
    """How a masked softmax over `counts[j]` selected regions of class j groups the classes.

    None when every class selects all n regions. Otherwise one (m, rows)
    pair per distinct count m, where rows is the (C, 1) mask of the classes
    that select m regions, or None when every class does.
    """
    levels = set(counts.tolist())
    if levels == {n}:
        return None
    if len(levels) == 1:
        return [(levels.pop(), None)]
    return [(m, (counts == m)[:, None]) for m in levels]


class Budgets:
    """Selection budgets of one image of N regions at one (m_pos, m_neg), worked out once.

    `counts[j]` is min(N, m_pos) for a positive class j and min(N, m_neg)
    for a negative one; `levels` groups the classes by count (`_levels`),
    and is None when every region is selected; `last` indexes each class's
    count-th entry of a row-sorted (C, N) array.
    """

    def __init__(self, pos: np.ndarray, n: int, m_pos: int, m_neg: int):
        if m_pos < 1 or m_neg < 1:
            raise ValueError("region budgets must be >= 1")
        self.counts = np.where(pos, min(m_pos, n), min(m_neg, n))
        self.levels = _levels(self.counts, n)
        self.last = (np.arange(len(self.counts)), self.counts - 1)


class StepWork:
    """The buffers one image's pass computes in, sized for up to `n_max` regions and reused from image to image.

    `params` receives the float64 copy of the parameters and `grads` the
    gradient, each a HeadParams over a float64 flat buffer; `cols` and `f`
    are (C,) vectors. `at(n)` views the rest at N = n, each view
    contiguous: the (2, N, C) stacks z (the two branches' logits, then p
    and v), q and r (the backward pass); the (C, N) planes zt, key and srt
    (transposes, the selection key and its sort); the (C, N) bool mask
    and group (the selection mask and one budget level's part of it); and
    rows, (N,).

    `at(n)` also sets `worker`, `_worker_for(N*D*C, SPLIT_MIN)`: the
    module's one `_BranchWorker` when a pass at N = n splits its branches,
    else None.
    """

    @classmethod
    def sized_for(cls, dataset, params: HeadParams) -> "StepWork":
        """A workspace for every image of `dataset` under `params`, sized for its largest image.

        Raises DataError for a dataset without images or whose class count
        or feature dimension differs from the params'.
        """
        if not dataset.images:
            raise DataError("dataset is empty")
        if dataset.feat_dim != params.feat_dim or dataset.num_classes != params.num_classes:
            raise DataError(f"dataset (C={dataset.num_classes}, D={dataset.feat_dim}) does not match params "
                            f"(C={params.num_classes}, D={params.feat_dim})")
        return cls(max(bag.n_regions for bag in dataset.images), params.num_classes, params.feat_dim)

    def __init__(self, n_max: int, c: int, d: int):
        size = 2 * c * d + 2 * c
        self.params = HeadParams.from_flat(np.empty(size), c, d)
        self.grads = HeadParams.from_flat(np.empty(size), c, d)
        self.cols = np.empty(c)
        self.f = np.empty(c)
        self._stacks = np.empty((3, 2 * n_max * c))
        self._planes = np.empty((3, c * n_max))
        self._masks = np.empty((2, c * n_max), dtype=bool)
        self._rows = np.empty(n_max)
        self.n_max, self.n = n_max, None

    def at(self, n: int) -> "StepWork":
        if n != self.n:
            c = len(self.cols)
            self.z, self.q, self.r = (s[: 2 * n * c].reshape(2, n, c) for s in self._stacks)
            self.zt, self.key, self.srt = (s[: c * n].reshape(c, n) for s in self._planes)
            self.mask, self.group = (s[: c * n].reshape(c, n) for s in self._masks)
            self.rows, self.n = self._rows[:n], n
            self.worker = _worker_for(n * c * self.params.feat_dim, SPLIT_MIN)
        return self


@dataclass
class ForwardTrace:
    """All intermediates of one image's forward pass.

    p: (N, C) region class probabilities; h: (N, C) boolean selection
    mask; v: (N, C) importance weights (zero off-mask, each class column
    sums to 1 over selected entries); f: (C,) aggregated image scores
    clamped to [eps, 1-eps]; loss: scalar.
    """

    p: np.ndarray
    h: np.ndarray
    v: np.ndarray
    f: np.ndarray
    loss: float


def class_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (N, C) logits, stabilized by subtracting each row's max."""
    z = np.array(logits, dtype=np.float64)
    return _softmax_rows(z, np.empty(z.shape[::-1]), np.empty(len(z)))


def _softmax_rows(z: np.ndarray, zt: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (N, C) logits `z`, in place, with (C, N) and (N,) buffers.

    A max is exact in any order, so it is taken down the columns of the
    contiguous (C, N) transpose `zt`, where numpy compares whole rows at a
    time; along the short rows of the (N, C) array it runs one inner loop
    per row.
    """
    np.copyto(zt, z.T)
    np.maximum.reduce(zt, axis=0, out=rows)
    np.subtract(z, rows[:, None], out=z)
    np.exp(z, out=z)
    np.add.reduce(z, axis=1, out=rows)
    np.divide(z, rows[:, None], out=z)
    return z


def _linear(w64: HeadParams, x: np.ndarray, z: np.ndarray, worker: _BranchWorker | None, softmax) -> np.ndarray:
    """Both branches' logits on float64 (N, D) features, into the (2, N, C) stack z, then p in z[0].

    `softmax` holds the (C, N) and (N,) buffers of `_softmax_rows`, which
    turns the class logits in z[0] into their row softmax p in place.
    Without a worker, one batched matmul and one bias add; with one,
    `_linear_split`.
    """
    if worker is not None:
        return _linear_split(w64, x, z, worker, softmax)
    np.matmul(x, w64.w.transpose(0, 2, 1), out=z)
    z += w64.b[:, None, :]
    _softmax_rows(z[0], *softmax)
    return z


def _linear_split(w64: HeadParams, x: np.ndarray, z: np.ndarray, worker: _BranchWorker, softmax) -> np.ndarray:
    """`_linear` on two threads: the same product and add per branch.

    The worker writes the importance logits into z[1] while this thread
    writes the class logits into z[0] and takes their softmax. (A function
    of its own: closures in `_linear` would slow the one-thread path.)
    """
    (z_cls, z_imp), w_imp, b_imp = z, w64.w_imp.T, w64.b_imp

    def classes():
        np.add(np.matmul(x, w64.w_cls.T, out=z_cls), w64.b_cls, out=z_cls)
        _softmax_rows(z_cls, *softmax)

    worker.beside(lambda: np.add(np.matmul(x, w_imp, out=z_imp), b_imp, out=z_imp), classes)
    return z


def select_regions(p: np.ndarray, labels: np.ndarray, m_pos: int, m_neg: int) -> np.ndarray:
    """Class-specific top-M selection mask.

    For each class c independently, marks the min(N, budget) regions with
    the largest p[:, c], where the budget is m_pos for positive classes and
    m_neg for negative ones. Ties are broken in favor of the smaller region
    index, which makes the mask the deterministic argmax of the constrained
    selection objective. NaN ranks below every number, as in a stable
    argsort of -p.
    """
    p = np.asarray(p)
    n, c = p.shape
    budgets = Budgets(np.asarray(labels, dtype=bool), n, m_pos, m_neg)
    key, srt = np.empty((2, c, n), dtype=p.dtype)
    h_t = _select(p, budgets, key, srt, np.empty((c, n), dtype=bool))
    return np.ones((n, c), dtype=bool) if h_t is None else h_t.T


def _select(p: np.ndarray, budgets: Budgets, key: np.ndarray, srt: np.ndarray, mask: np.ndarray):
    """The (C, N) selection mask of (N, C) scores `p` under `budgets`; None when every region is selected.

    All classes are done at once on the (C, N) transpose, computed in the
    (C, N) buffers `key`, `srt` and `mask`: one sort along regions gives
    each class's count-th largest value t, and the mask is every region
    above t plus, in index order, as many regions equal to t as the count
    still needs.
    """
    if budgets.levels is None:
        return None
    np.negative(p.T, out=key)  # (C, N); ascending key = descending p
    np.copyto(srt, key)
    srt.sort(axis=1)
    t = srt[budgets.last]
    h_t = np.less_equal(key, t[:, None], out=mask)
    budget = budgets.counts
    if np.logical_and.reduce(np.add.reduce(h_t, axis=1) == budget):  # no NaN threshold, no tie crossing a budget
        return h_t
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
    return above | tied


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
    levels = _levels(counts, len(z))
    v = np.empty(z.shape)
    _masked_softmax(z.T.copy(order="C"), h.T, levels, v, np.empty(z.shape[1]), np.empty(h.shape[::-1], dtype=bool))
    return v[:, 0] if column else v


def _masked_softmax(zt: np.ndarray, h_t, levels, v: np.ndarray, cols: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Masked softmax of the contiguous (C, N) logits `zt` under the (C, N) mask `h_t`, into (N, C) `v`.

    `levels` groups the classes by their selected count (`_levels`); with
    None every region is selected, `h_t` is not read, and the softmax runs
    in place on `zt` with the (C,) buffer `cols`. Otherwise the classes
    that select the same count m form one contiguous (classes, m) block of
    their selected logits, gathered class by class in region order, so
    each row is summed exactly as a 1-D softmax over that selection would
    sum it; with more than one level, the (C, N) bool buffer `group`
    holds one level's part of the mask. `v` is written whole, zero off the
    mask.
    """
    if levels is None:
        np.maximum.reduce(zt, axis=1, out=cols)
        np.subtract(zt, cols[:, None], out=zt)
        np.exp(zt, out=zt)
        np.add.reduce(zt, axis=1, out=cols)
        np.divide(zt, cols[:, None], out=v.T)
        return v
    v.fill(0.0)
    for m, rows in levels:
        mine = h_t if rows is None else np.logical_and(h_t, rows, out=group)
        block = zt[mine].reshape(-1, m)
        block -= np.maximum.reduce(block, axis=1, keepdims=True)
        np.exp(block, out=block)
        block /= np.add.reduce(block, axis=1, keepdims=True)
        v.T[mine] = block.ravel()
    return v


def _aggregate(v: np.ndarray, p: np.ndarray, eps: float, f: np.ndarray) -> np.ndarray:
    """Clamped importance-weighted sums of region probabilities into `f`: (C,) of (N, C) inputs, 0-d of (N,) ones.

    Each class is one (1, N) @ (N, 1) product of a stacked matmul, which
    numpy hands to the same strided BLAS dot as np.dot(v[:, j], p[:, j]),
    so the scores are those bits. np.einsum and (v * p).sum(0) add in
    another order, and np.vecdot needs numpy 2.0 while the package
    supports numpy>=1.24.
    """
    np.matmul(v.T[..., None, :], p.T[..., :, None], out=f[..., None, None])
    np.maximum(f, eps, out=f)
    return np.minimum(f, 1.0 - eps, out=f)


def _loss(lab: ImageLabels, f: np.ndarray) -> float:
    """Per-class binary cross entropy summed over classes, of scores `f` already clamped away from {0, 1}."""
    return float(-np.add.reduce(lab.y * np.log(f) + lab.not_y * np.log1p(-f)))


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
    c, d = params.num_classes, params.feat_dim
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"features must be (N, {d}), got {x.shape}")
    if y.shape != (c,):
        raise ValueError(f"labels must be ({c},), got {y.shape}")
    n = len(x)
    lab = ImageLabels(y)
    budgets = Budgets(lab.pos, n, m_pos, m_neg)
    work = StepWork(n, c, d)
    z = _outputs(params, x, work)
    h_t, f, loss = _weights(z, lab, budgets, eps, work)
    h = np.ones((n, c), dtype=bool) if h_t is None else h_t.T
    return ForwardTrace(p=z[0], h=h, v=z[1], f=f, loss=loss)


def _outputs(params: HeadParams, x: np.ndarray, work: StepWork) -> np.ndarray:
    """Both branches on float64 (N, D) features in `work`: the (2, N, C) stack of p and the importance logits."""
    work.at(len(x))
    np.copyto(work.params.flat, params.flat)
    return _linear(work.params, x, work.z, work.worker, (work.zt, work.rows))


def _weights(z: np.ndarray, lab: ImageLabels, budgets: Budgets, eps: float, work: StepWork):
    """Selection, masked softmax, aggregation and loss of one image: ((C, N) mask or None, f, loss).

    z holds p and the importance logits (`_outputs`); the logits are copied
    out to a (C, N) plane, and v is written over them in z[1].
    """
    p, v = z
    work.at(len(p))
    h_t = _select(p, budgets, work.key, work.srt, work.mask)
    np.copyto(work.zt, v.T)
    _masked_softmax(work.zt, h_t, budgets.levels, v, work.cols, work.group)
    f = _aggregate(v, p, eps, work.f)
    return h_t, f, _loss(lab, f)


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
    work = StepWork(len(x), params.num_classes, params.feat_dim)
    z = work.at(len(x)).z
    z[0], z[1] = trace.p, trace.v
    _backward(z, trace.f, x, ImageLabels(labels), eps, work)
    return work.grads


def _backward(z: np.ndarray, f: np.ndarray, x: np.ndarray, lab: ImageLabels, eps: float, work: StepWork):
    """Write the gradient of one image's loss into `work.grads`, given the stack z = [p; v] and f."""
    q, r, rows = work.at(len(x)).q, work.r, work.rows
    dl_df = lab.neg_y / f + lab.not_y / (1.0 - f)
    dl_df[(f <= eps) | (f >= 1.0 - eps)] = 0.0  # the clamp passes no gradient where it saturates
    if work.worker is not None:
        return _backward_split(z, dl_df, x, work)
    p, v = z
    np.multiply(v, dl_df, out=q[0])  # dp, zero off-mask since v is
    np.multiply(p, dl_df, out=q[1])  # dv
    np.multiply(z, q, out=r)  # [p * dp; v * dv]
    # The row softmax Jacobian sums over classes, the masked softmax Jacobian over regions.
    np.add.reduce(r[0], axis=1, out=rows)
    np.add.reduce(r[1], axis=0, out=work.cols)
    q[0] -= rows[:, None]
    q[1] -= work.cols
    np.multiply(z, q, out=r)  # [dz_cls; dz_imp], dz_imp zero off-mask by construction
    np.matmul(r.transpose(0, 2, 1), x, out=work.grads.w)
    np.add.reduce(r, axis=1, out=work.grads.b)


def _backward_split(z: np.ndarray, dl_df: np.ndarray, x: np.ndarray, work: StepWork):
    """The operations of `_backward` branch by branch: the worker runs the importance chain, this thread the class chain.

    Both are one chain on swapped operands; the class chain sums over
    classes into `rows` as (N, 1), the importance chain over regions into
    `cols` as (1, C). A function of its own, as `_linear_split` is.
    """
    q, r, grads = work.q, work.r, work.grads

    def chain(i: int, total: np.ndarray, axis: int):
        np.multiply(z[1 - i], dl_df, out=q[i])  # dp = v * dl_df, dv = p * dl_df
        np.multiply(z[i], q[i], out=r[i])
        np.add.reduce(r[i], axis=axis, keepdims=True, out=total)
        np.subtract(q[i], total, out=q[i])
        np.multiply(z[i], q[i], out=r[i])  # dz_cls or dz_imp
        np.matmul(r[i].T, x, out=grads.w[i])
        np.add.reduce(r[i], axis=0, out=grads.b[i])

    work.worker.beside(lambda: chain(1, work.cols[None, :], 0), lambda: chain(0, work.rows[:, None], 1))


def image_step(
    params: HeadParams,
    feats: np.ndarray,
    labels: ImageLabels,
    budgets: Budgets,
    eps: float,
    work: StepWork,
    prefetch=None,
) -> float:
    """Forward and backward pass of one image: writes the gradient into `work.grads`, returns the loss.

    `feats` must be a float64 (N, D) array with N at most the workspace's
    n_max, and `budgets` the image's at N. Nothing of the pass outlives
    the call but the gradient.

    `prefetch`, a task of no arguments, runs during the pass on the worker
    of a split pass, beside selection, the masked softmax, aggregation and
    the loss, and after them on this thread otherwise; the trainer hands
    it the next image's feature copy. Like the worker's halves it must
    call numpy only and touch nothing the pass reads. It is done when the
    call returns, and its exception is raised here.
    """
    z = _outputs(params, feats, work)
    if prefetch is None:
        _, f, loss = _weights(z, labels, budgets, eps, work)
    else:
        _, f, loss = _weights_beside(prefetch, z, labels, budgets, eps, work)
    _backward(z, f, feats, labels, eps, work)
    return loss


def _weights_beside(prefetch, z: np.ndarray, lab: ImageLabels, budgets: Budgets, eps: float, work: StepWork):
    """`_weights` with `prefetch` on the worker beside it, or after it without one.

    A function of its own, as `_linear_split` is.
    """
    if work.worker is None:
        weights = _weights(z, lab, budgets, eps, work)
        prefetch()
        return weights
    weights = []
    work.worker.beside(prefetch, lambda: weights.extend(_weights(z, lab, budgets, eps, work)))
    return weights


def finite_diff_grads(
    params: HeadParams,
    feats: np.ndarray,
    labels: np.ndarray,
    m_pos: int,
    m_neg: int,
    step: float = 1e-4,
    eps: float = EPS,
) -> HeadParams:
    """Central-difference gradients of the image loss, entry by entry; `step` must be finite and > 0.

    The selection mask is frozen to the base forward pass's mask for every
    perturbed evaluation, so this differentiates the same smooth function
    as backward_image, with the training step's stages in one workspace.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step}")
    h_t = forward_image(params, feats, labels, m_pos, m_neg, eps).h.T
    x = np.asarray(feats, dtype=np.float64)
    lab = ImageLabels(labels)
    levels = _levels(np.add.reduce(h_t, axis=1), len(x))
    work = StepWork(len(x), params.num_classes, params.feat_dim)
    theta = HeadParams.from_flat(params.flat.astype(np.float64), params.num_classes, params.feat_dim)

    def loss_at() -> float:
        p, v = _outputs(theta, x, work)
        np.copyto(work.zt, v.T)
        _masked_softmax(work.zt, h_t, levels, v, work.cols, work.group)
        return _loss(lab, _aggregate(v, p, eps, work.f))

    grads = theta.zeros_like()
    for i, orig in enumerate(theta.flat.tolist()):
        theta.flat[i] = orig + step
        hi = loss_at()
        theta.flat[i] = orig - step
        lo = loss_at()
        theta.flat[i] = orig
        grads.flat[i] = (hi - lo) / (2.0 * step)
    return grads


def gradient_agreement(analytic: HeadParams, numeric: HeadParams, floor: float = 1e-3) -> float:
    """Max relative discrepancy between two gradient sets.

    Per entry: |a - n| / max(|a|, |n|, floor); the floor, finite and > 0,
    keeps near-zero entries from inflating the ratio beyond
    finite-difference resolution.
    """
    if not (math.isfinite(floor) and floor > 0):
        raise ValueError(f"floor must be finite and > 0, got {floor}")
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
    a pass flag at `tolerance`. Both label polarities are exercised. A NaN
    error counts as the worst, so it fails the suite.
    """
    for name, size in (("instances", instances), ("max_regions", max_regions), ("max_classes", max_classes),
                       ("max_dim", max_dim)):
        if size < 1:
            raise ConfigError(f"{name} must be >= 1, got {size}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    for name, value in (("step", step), ("tolerance", tolerance)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and > 0, got {value}")
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
        if not (err <= worst_err or math.isnan(worst_err)):  # a NaN error replaces any number and stays
            worst_err = err
            worst_desc = f"instance {i}: N={n} C={c} D={d} m_pos={m_pos} m_neg={m_neg} labels={labels.tolist()}"
    return {
        "instances": instances,
        "max_rel_error": worst_err,
        "tolerance": tolerance,
        "worst_instance": worst_desc,
        "passed": worst_err < tolerance,
    }
