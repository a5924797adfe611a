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
all its math in float64. An epoch allocates two float64 workspaces and
reuses them for every image: an (N_max, D) feature buffer that each
image's first view is copied into, and a flat gradient buffer, wrapped
as a `HeadParams` for `sgd_step`, that the backward pass writes into.
Nothing else of a step outlives it, so the next image's temporaries
reuse the same freed memory.

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
from wsdsel.head import EPS, HeadParams, forward_image, image_step  # noqa: F401
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


def sgd_step(state: TrainState, grads: HeadParams, config: TrainConfig) -> TrainState:
    """Momentum SGD with weight decay, in place on the float32 flat buffers.

    velocity <- momentum*velocity - lr*(grad + weight_decay*param);
    param <- param + velocity. One elementwise update covers all four
    blocks; nothing is updated if any gradient entry is non-finite.
    """
    if not np.isfinite(grads.flat).all():
        raise TrainingError("non-finite gradient")
    lr = np.float32(config.lr_at(state.epoch))
    mom = np.float32(config.momentum)
    wd = np.float32(config.weight_decay)
    param, vel = state.params.flat, state.velocity.flat
    vel *= mom
    vel -= lr * (grads.flat.astype(np.float32) + wd * param)
    param += vel
    return state


def train_epoch(
    state: TrainState,
    dataset: Dataset,
    config: TrainConfig,
    on_step: Optional[StepHook] = None,
) -> TrainState:
    """One pass over the dataset in a seeded shuffled order."""
    if not dataset.images:
        raise DataError("dataset is empty")
    if dataset.feat_dim != state.params.feat_dim or dataset.num_classes != state.params.num_classes:
        raise DataError(
            f"dataset (C={dataset.num_classes}, D={dataset.feat_dim}) does not match params "
            f"(C={state.params.num_classes}, D={state.params.feat_dim})"
        )
    order = _shuffle_rng(config.seed, state.epoch).permutation(len(dataset.images))
    feats = np.empty((max(len(bag.views[0]) for bag in dataset.images), dataset.feat_dim))
    grads = HeadParams.from_flat(np.empty(state.params.flat.shape), dataset.num_classes, dataset.feat_dim)
    total = 0.0
    for idx in order:
        bag = dataset.images[idx]
        n = bag.n_regions
        if config.baseline:
            m_pos = m_neg = n
        else:
            m_pos = pos_budget(state.epoch, n, config.schedule)
            m_neg = config.schedule.m_neg
        x = feats[: len(bag.views[0])]
        np.copyto(x, bag.views[0])
        loss = image_step(state.params, x, bag.labels, m_pos, m_neg, config.epsilon, grads)
        try:
            sgd_step(state, grads, config)
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
    while state.epoch < config.total_epochs:
        train_epoch(state, dataset, config, on_step)
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
