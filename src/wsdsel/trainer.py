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
  image, whose float64 gradient `sgd_step` reads; an (N_max, D) float64
  feature buffer that each image's first view is copied into; and a flat
  float32 buffer that `sgd_step` builds each update in.
Each epoch casts its learning rate, momentum and weight decay to float32
once. A step allocates no (N, C) temporary, so the next image reuses the
same memory.

A step whose N*D*C reaches `head.SPLIT_MIN` (2^20) runs its two head
branches on two threads when the process may use at least two CPUs (the
`head` docstring says why): the importance branch on `head`'s one worker
thread, which calls numpy only, starts at the first such step in the
process and serves every later run, and the class branch on the calling
thread, with the bits of the one-thread step. The paper shape (N=2048,
D=256, C=20) splits; the README walkthrough (N=64, D=64, C=6) never
starts the thread.

Checkpoint format: magic "WSDC", then version, C, D as u32 LE, then the
four parameter blocks and four velocity blocks (w_cls, b_cls, w_imp,
b_imp) as row-major float32 LE, which is the parameter buffer followed by
the velocity buffer, then the completed-epoch index as u32 LE. The file is
written beside its target under a temporary name and renamed into place.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from wsdsel.data import Dataset
from wsdsel.errors import ConfigError, DataError, TrainingError
# forward_image is not called here, but stays in this namespace: perfbench's tracer test checks
# that the tracer wraps it in every wsdsel module that holds it, this one included.
from wsdsel.head import EPS, Budgets, HeadParams, ImageLabels, StepWork, forward_image, image_step  # noqa: F401
from wsdsel.schedule import PruneSchedule, pos_budget

CHECKPOINT_MAGIC = b"WSDC"
CHECKPOINT_VERSION = 1

# Called once per image with (image_id, epoch, m_pos, m_neg, loss).
StepHook = Callable[[str, int, int, int, float], None]


@dataclass
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
        if self.total_epochs < 0:
            raise ConfigError(f"total_epochs must be >= 0, got {self.total_epochs}")
        if self.total_epochs > self.schedule.total_epochs:
            raise ConfigError(
                f"total_epochs {self.total_epochs} exceeds the schedule horizon {self.schedule.total_epochs}"
            )

    def lr_at(self, epoch: int) -> float:
        if self.lr_decay_epoch is not None and epoch >= self.lr_decay_epoch:
            return self.learning_rate * self.lr_decay_factor
        return self.learning_rate


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
        if not dataset.images:
            raise DataError("dataset is empty")
        if dataset.feat_dim != params.feat_dim or dataset.num_classes != params.num_classes:
            raise DataError(
                f"dataset (C={dataset.num_classes}, D={dataset.feat_dim}) does not match params "
                f"(C={params.num_classes}, D={params.feat_dim})"
            )
        n_max = max(bag.n_regions for bag in dataset.images)
        self.work = StepWork(n_max, dataset.num_classes, dataset.feat_dim)
        self.feats = np.empty((n_max, dataset.feat_dim))
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
    total = 0.0
    for idx in order:
        bag = dataset.images[idx]
        n = bag.n_regions
        if config.baseline:
            m_pos = m_neg = n
        else:
            m_pos = pos_budget(state.epoch, n, config.schedule)
            m_neg = config.schedule.m_neg
        x = run.feats[:n]
        np.copyto(x, bag.views[0])
        loss = image_step(state.params, x, run.labels[idx], run.budgets(idx, m_pos, m_neg),
                          config.epsilon, run.work)
        try:
            sgd_step(state, run.work.grads, config, coefficients, run.update)
        except TrainingError as err:
            raise TrainingError(f"{err} (image {bag.id}, epoch {state.epoch})") from err
        total += loss
        if on_step is not None:
            on_step(bag.id, state.epoch, m_pos, m_neg, loss)
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
    """Write the checkpoint to a temporary file beside `path`, then rename it into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = CHECKPOINT_MAGIC + struct.pack("<III", CHECKPOINT_VERSION, state.params.num_classes, state.params.feat_dim)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(state.params.flat.astype("<f4").tobytes())
            fh.write(state.velocity.flat.astype("<f4").tobytes())
            fh.write(struct.pack("<I", state.epoch))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: str | Path) -> TrainState:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as err:
        raise DataError(f"cannot read checkpoint {path}: {err}") from err
    if raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"bad checkpoint magic {raw[:4]!r}")
    if len(raw) < 16:
        raise DataError(f"checkpoint {path}: truncated header, {len(raw)} bytes")
    version, c, d = struct.unpack_from("<III", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
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
