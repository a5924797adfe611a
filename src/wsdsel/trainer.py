"""SGD training loop: one image per mini-batch, seeded shuffling, schedule-driven budgets.

Parameters and velocity are float32 (the checkpoint currency), each one
flat buffer (`HeadParams.flat`) whose views are the four blocks, so an SGD
step is one elementwise update and a checkpoint is two buffers' bytes.
Epoch shuffles are drawn from streams derived from (seed, epoch),
independent of the initialization stream, so a run resumed from a
checkpoint continues bit-identically and ablations share their
initialization.

Each step is `head.image_step`, the forward and backward pass that
`head.forward_image` and `head.backward_image` wrap as the public,
tested entry points; it casts the parameters to float64 once and does
all its math in float64. `train` builds, once per run, what the steps
read besides the state:
- each image's label constants (`head.ImageLabels`: y, -y and 1 - y as
  float64, and the bool mask);
- for each (image, m_pos, m_neg) a step sees, on first sight, its
  `head.Budgets`: the per-class budget vector, the all-selected flag and
  the classes grouped by budget;
- the workspaces: a `head.StepWork` sized (N_max, C) for the largest
  image, whose float64 gradient `sgd_step` reads; two (N_max, D)
  float64 feature buffers (below); and a flat float32 buffer that
  `sgd_step` builds each update in.
Each epoch casts its learning rate, momentum and weight decay to float32
once and takes its (m_pos, m_neg) from `TrainConfig.budgets`, where None
means every region: each step puts its image's N in place of a None. A
step allocates no (N, C) temporary, so the next image reuses the memory.

A step whose N*D*C reaches `head.SPLIT_MIN` (2^20) runs its two head
branches on two threads when the process may use at least two CPUs (the
`head` docstring says why): the importance branch on `head`'s one worker
thread, which calls numpy only, starts at the first such step in the
process and serves every later run, and the class branch on the calling
thread, with the bits of the one-thread step. The paper shape (N=2048,
D=256, C=20) splits; the README walkthrough (N=64, D=64, C=6) never
starts the thread.

A run takes turns with its two feature buffers: the first image of an
epoch is copied (float32 to float64) into one on the calling thread, and
each step hands `image_step` the copy of the next image into the other as
its `prefetch`, which the worker runs beside the step's selection, or the
step itself after it where that image's pass does not split.

Checkpoint format: magic "WSDC", then version, C, D as u32 LE, then the
four parameter blocks and four velocity blocks (w_cls, b_cls, w_imp,
b_imp) as row-major float32 LE, which is the parameter buffer followed by
the velocity buffer, then the completed-epoch index as u32 LE. Like every
output, the file is written through `data.replaced`: beside its target
under a temporary name, then renamed into place, so a failed write leaves
the previous checkpoint as it was. `train` writes it in one
`data.removed_on_failure` block with its loss CSV and run manifest, so a
failure at any of the three leaves the previous three as they were.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from wsdsel.data import Dataset, replaced
from wsdsel.errors import ConfigError, DataError, TrainingError
# forward_image is not called here, but stays in this namespace: perfbench's tracer test checks
# that the tracer wraps it in every wsdsel module that holds it, this one included.
from wsdsel.head import EPS, Budgets, HeadParams, ImageLabels, StepWork, forward_image, image_step  # noqa: F401
from wsdsel.schedule import PruneSchedule, pos_budget

CHECKPOINT_MAGIC = b"WSDC"
CHECKPOINT_VERSION = 1

# Called once per image with (image_id, epoch, m_pos, m_neg, loss).
StepHook = Callable[[str, int, int, int, float], None]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    total_epochs: int = 40
    seed: int = 0
    schedule: PruneSchedule = field(default_factory=PruneSchedule)
    epsilon: float = EPS
    lr_decay_epoch: Optional[int] = 30
    lr_decay_factor: float = 0.1
    baseline: bool = False  # force m_pos = m_neg = N (selection disabled)

    def __post_init__(self):
        for name in ("learning_rate", "momentum", "weight_decay", "epsilon", "lr_decay_factor"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 < self.epsilon < 0.5:  # the clamp [epsilon, 1 - epsilon] must hold more than one point
            raise ConfigError(f"epsilon must be in (0, 0.5), got {self.epsilon}")
        if self.lr_decay_factor <= 0:
            raise ConfigError(f"lr_decay_factor must be > 0, got {self.lr_decay_factor}")
        # SGD runs in float32 (`_sgd_coefficients`): every rate it uses must be one, a learning rate above 0.
        largest = float(np.finfo(np.float32).max)
        learning_rates = {"learning_rate": self.learning_rate}
        if self.lr_decay_epoch is not None:
            learning_rates["learning_rate * lr_decay_factor"] = self.learning_rate * self.lr_decay_factor
        for name, value in {**learning_rates, "weight_decay": self.weight_decay}.items():
            if value > largest:
                raise ConfigError(f"{name} must be at most {largest:.7g} (SGD runs in float32), got {value}")
        for name, value in learning_rates.items():
            if np.float32(value) == 0:
                raise ConfigError(f"{name} must be > 0 in float32 (SGD runs in it), got {value}")
        for name in ("total_epochs", "seed", "lr_decay_epoch"):  # lr_decay_epoch None: no decay
            if (getattr(self, name) or 0) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.total_epochs > self.schedule.total_epochs:
            raise ConfigError(
                f"total_epochs {self.total_epochs} exceeds the schedule horizon {self.schedule.total_epochs}"
            )

    def lr_at(self, epoch: int) -> float:
        if self.lr_decay_epoch is not None and epoch >= self.lr_decay_epoch:
            return self.learning_rate * self.lr_decay_factor
        return self.learning_rate

    def budgets(self, epoch: int) -> tuple[Optional[int], Optional[int]]:
        """(m_pos, m_neg) at `epoch`, None meaning every region; both None under `baseline`."""
        if self.baseline:
            return None, None
        return pos_budget(epoch, None, self.schedule), self.schedule.m_neg


@dataclass
class TrainState:
    """Evolving training state.

    `epoch` counts completed epochs; the shuffle stream for epoch e is
    re-derived from (config.seed, e), so params/velocity/epoch are the
    complete resume token.
    """

    params: HeadParams
    velocity: HeadParams
    epoch: int = 0
    loss_history: list[float] = field(default_factory=list)


def init_params(feat_dim: int, num_classes: int, seed: int) -> HeadParams:
    """Gaussian(0, 0.01) weights, zero biases; float32, deterministic by seed."""
    rng = np.random.default_rng(seed)
    return HeadParams(
        w_cls=rng.normal(scale=0.01, size=(num_classes, feat_dim)).astype(np.float32),
        b_cls=np.zeros(num_classes, dtype=np.float32),
        w_imp=rng.normal(scale=0.01, size=(num_classes, feat_dim)).astype(np.float32),
        b_imp=np.zeros(num_classes, dtype=np.float32),
    )


def _shuffle_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, epoch)))


def _sgd_coefficients(config: TrainConfig, epoch: int) -> tuple[np.float32, np.float32, np.float32]:
    """The learning rate of `epoch`, the momentum and the weight decay, as the float32 scalars SGD runs in."""
    return np.float32(config.lr_at(epoch)), np.float32(config.momentum), np.float32(config.weight_decay)


def sgd_step(
    state: TrainState,
    grads: HeadParams,
    config: TrainConfig,
    coefficients: tuple[np.float32, np.float32, np.float32] | None = None,
    scratch: np.ndarray | None = None,
) -> TrainState:
    """Momentum SGD with weight decay, in place on the float32 flat buffers.

    velocity <- momentum*velocity - lr*(grad + weight_decay*param);
    param <- param + velocity. One elementwise update covers all four
    blocks; nothing is updated if any gradient entry is non-finite.
    `train_epoch` passes its epoch's `_sgd_coefficients` and a float32
    `scratch` buffer the size of the flat buffer; without them the step
    derives the one and allocates the other.
    """
    if not np.isfinite(grads.flat).all():
        raise TrainingError("non-finite gradient")
    lr, mom, wd = _sgd_coefficients(config, state.epoch) if coefficients is None else coefficients
    param, vel = state.params.flat, state.velocity.flat
    step = np.empty_like(param) if scratch is None else scratch
    # Each operation rounds to float32 where the expression above does, the gradient first.
    np.multiply(param, wd, out=step)
    np.add(step, grads.flat, out=step, dtype=np.float32)
    step *= lr
    vel *= mom
    vel -= step
    param += vel
    return state


class _Run:
    """What `train_epoch` reads besides the state, built once per run (see the module docstring)."""

    def __init__(self, dataset: Dataset, params: HeadParams):
        self.work = StepWork.sized_for(dataset, params)
        n_max = self.work.n_max
        # Two arrays, not one (2, n_max, D) stack: the stack raised the process's peak memory more.
        self.feats, self.spare = np.empty((n_max, dataset.feat_dim)), np.empty((n_max, dataset.feat_dim))
        self.update = np.empty_like(params.flat)
        self.images = dataset.images
        self.labels = [ImageLabels(bag.labels) for bag in dataset.images]
        self._budgets: dict[tuple[int, int, int], Budgets] = {}

    def budgets(self, idx: int, m_pos: int, m_neg: int) -> Budgets:
        """Image `idx`'s budgets at (m_pos, m_neg), built the first time they are asked for."""
        key = (idx, m_pos, m_neg)
        budgets = self._budgets.get(key)
        if budgets is None:
            budgets = self._budgets[key] = Budgets(self.labels[idx].pos, self.images[idx].n_regions, m_pos, m_neg)
        return budgets


def train_epoch(
    state: TrainState,
    dataset: Dataset,
    config: TrainConfig,
    on_step: Optional[StepHook] = None,
    run: Optional[_Run] = None,
) -> TrainState:
    """One pass over the dataset in a seeded shuffled order; `train` passes the run's constants in `run`."""
    if run is None:
        run = _Run(dataset, state.params)
    order = _shuffle_rng(config.seed, state.epoch).permutation(len(dataset.images))
    coefficients = _sgd_coefficients(config, state.epoch)
    m_pos, m_neg = config.budgets(state.epoch)
    total = 0.0
    feats, spare = run.feats, run.spare  # each step's prefetch copies the next image's features into `spare`
    first = dataset.images[order[0]]
    np.copyto(feats[: first.n_regions], first.views[0])
    for step, idx in enumerate(order, 1):
        bag = dataset.images[idx]
        n = bag.n_regions
        pos, neg = n if m_pos is None else m_pos, n if m_neg is None else m_neg
        x = feats[:n]
        prefetch = None
        if step < len(order):
            after = dataset.images[order[step]]
            prefetch = functools.partial(np.copyto, spare[: after.n_regions], after.views[0])
            feats, spare = spare, feats
        loss = image_step(state.params, x, run.labels[idx], run.budgets(idx, pos, neg),
                          config.epsilon, run.work, prefetch)
        try:
            sgd_step(state, run.work.grads, config, coefficients, run.update)
        except TrainingError as err:
            raise TrainingError(f"{err} (image {bag.id}, epoch {state.epoch})") from err
        total += loss
        if on_step is not None:
            on_step(bag.id, state.epoch, pos, neg, loss)
    state.loss_history.append(total / len(dataset.images))
    state.epoch += 1
    return state


def train(
    dataset: Dataset,
    config: TrainConfig,
    state: Optional[TrainState] = None,
    on_step: Optional[StepHook] = None,
) -> TrainState:
    """Run (remaining) epochs up to config.total_epochs; returns the final state."""
    if state is None:
        params = init_params(dataset.feat_dim, dataset.num_classes, config.seed)
        state = TrainState(params=params, velocity=params.zeros_like())
    if state.epoch < config.total_epochs:
        run = _Run(dataset, state.params)
        while state.epoch < config.total_epochs:
            train_epoch(state, dataset, config, on_step, run)
    return state


def save_checkpoint(state: TrainState, path: str | Path):
    """Write the checkpoint through `data.replaced`: beside `path`, then renamed into place."""
    header = CHECKPOINT_MAGIC + struct.pack("<III", CHECKPOINT_VERSION, state.params.num_classes, state.params.feat_dim)
    with replaced(path, "wb") as fh:
        fh.write(header)
        fh.write(state.params.flat.astype("<f4").tobytes())
        fh.write(state.velocity.flat.astype("<f4").tobytes())
        fh.write(struct.pack("<I", state.epoch))


def load_checkpoint(path: str | Path) -> TrainState:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except (OSError, ValueError) as err:  # ValueError: a NUL in the path
        raise DataError(f"cannot read checkpoint {path}: {err}") from err
    if raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"checkpoint {path}: bad checkpoint magic {raw[:4]!r}")
    if len(raw) < 16:
        raise DataError(f"checkpoint {path}: truncated header, {len(raw)} bytes")
    version, c, d = struct.unpack_from("<III", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise DataError(f"checkpoint {path}: unsupported checkpoint version {version}")
    size = 2 * c * d + 2 * c  # entries of one flat buffer
    expected = 16 + 2 * 4 * size + 4
    if len(raw) != expected:
        raise DataError(f"checkpoint {path}: expected {expected} bytes, got {len(raw)}")
    body = np.frombuffer(raw, dtype="<f4", count=2 * size, offset=16).astype(np.float32)
    if not np.isfinite(body).all():
        raise DataError(f"checkpoint {path}: non-finite values in a parameter or velocity block")
    (epoch,) = struct.unpack_from("<I", raw, expected - 4)
    return TrainState(
        params=HeadParams.from_flat(body[:size], c, d),
        velocity=HeadParams.from_flat(body[size:], c, d),
        epoch=int(epoch),
    )
