"""SGD training loop: one image per mini-batch, seeded shuffling, schedule-driven budgets.

Parameters and velocity are float32 (the checkpoint currency); forward and
backward math runs in float64 inside the head module. Epoch shuffles are
drawn from streams derived from (seed, epoch), independent of the
initialization stream, so a run resumed from a checkpoint continues
bit-identically and ablations share their initialization.

Checkpoint format: magic "WSDC", then version, C, D as u32 LE, then the
four parameter blocks and four velocity blocks (w_cls, b_cls, w_imp,
b_imp) as row-major float32 LE, then the completed-epoch index as u32 LE.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from wsdsel.data import Dataset
from wsdsel.errors import ConfigError, DataError, TrainingError
from wsdsel.head import EPS, HeadParams, backward_image, forward_image
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
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
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
    """Momentum SGD with weight decay, in place on float32 blocks.

    velocity <- momentum*velocity - lr*(grad + weight_decay*param);
    param <- param + velocity.
    """
    lr = np.float32(config.lr_at(state.epoch))
    mom = np.float32(config.momentum)
    wd = np.float32(config.weight_decay)
    for (_, param), (_, vel), (_, grad) in zip(state.params.blocks(), state.velocity.blocks(), grads.blocks()):
        if not np.isfinite(grad).all():
            raise TrainingError("non-finite gradient")
        g = grad.astype(np.float32)
        vel *= mom
        vel -= lr * (g + wd * param)
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
    total = 0.0
    for idx in order:
        bag = dataset.images[idx]
        n = bag.n_regions
        if config.baseline:
            m_pos = m_neg = n
        else:
            m_pos = pos_budget(state.epoch, n, config.schedule)
            m_neg = config.schedule.m_neg
        feats = bag.views[0]
        trace = forward_image(state.params, feats, bag.labels, m_pos, m_neg, config.epsilon)
        grads = backward_image(trace, state.params, feats, bag.labels, config.epsilon)
        try:
            sgd_step(state, grads, config)
        except TrainingError as err:
            raise TrainingError(f"{err} (image {bag.id}, epoch {state.epoch})") from err
        total += trace.loss
        if on_step is not None:
            on_step(bag.id, state.epoch, m_pos, m_neg, trace.loss)
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    c = state.params.num_classes
    d = state.params.feat_dim
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<III", CHECKPOINT_VERSION, c, d))
        for container in (state.params, state.velocity):
            for _, arr in container.blocks():
                fh.write(arr.astype("<f4").tobytes())
        fh.write(struct.pack("<I", state.epoch))


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
    sizes = [(c, d), (c,), (c, d), (c,)]
    expected = 16 + 2 * 4 * sum(int(np.prod(s)) for s in sizes) + 4
    if len(raw) != expected:
        raise DataError(f"checkpoint {path}: expected {expected} bytes, got {len(raw)}")
    offset = 16
    containers = []
    for _ in range(2):
        blocks = []
        for shape in sizes:
            count = int(np.prod(shape))
            arr = np.frombuffer(raw, dtype="<f4", count=count, offset=offset).reshape(shape).copy()
            if not np.isfinite(arr).all():
                raise DataError(f"checkpoint {path}: non-finite values in a parameter or velocity block")
            blocks.append(arr)
            offset += 4 * count
        containers.append(HeadParams(*blocks))
    (epoch,) = struct.unpack_from("<I", raw, offset)
    return TrainState(params=containers[0], velocity=containers[1], epoch=int(epoch))
