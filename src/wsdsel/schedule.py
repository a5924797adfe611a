"""Progressive pruning schedule for the positive region budget.

During warmup the positive budget is the full region count of each image.
Afterwards it starts at `m_start` and halves every `epochs_per_halving`
epochs until it reaches the floor `m_final`, where it stays. The negative
budget `m_neg` is constant throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from wsdsel.errors import ConfigError


@dataclass(frozen=True)
class PruneSchedule:
    warmup_epochs: int = 20
    m_start: int = 1024
    m_final: int = 128
    m_neg: int = 128
    total_epochs: int = 40

    def __post_init__(self):
        if self.m_final < 1 or self.m_final > self.m_start:
            raise ConfigError(f"m_final must satisfy 1 <= m_final <= m_start, got {self.m_final}")
        ratio = self.m_start // self.m_final
        if self.m_final * ratio != self.m_start or ratio & (ratio - 1) != 0:
            raise ConfigError(f"m_start/m_final must be a power of two, got {self.m_start}/{self.m_final}")
        if self.m_neg < 1:
            raise ConfigError(f"m_neg must be >= 1, got {self.m_neg}")
        if not 0 <= self.warmup_epochs < self.total_epochs:
            raise ConfigError(
                f"warmup_epochs must satisfy 0 <= warmup < total, got {self.warmup_epochs}/{self.total_epochs}"
            )

    @property
    def halving_levels(self) -> int:
        """Number of distinct budget values after warmup (m_start held counts as one)."""
        return (self.m_start // self.m_final).bit_length()  # log2(ratio) + 1


def epochs_per_halving(schedule: PruneSchedule) -> float:
    """Epochs spent at each post-warmup budget level.

    The post-warmup phase is divided evenly among the log2(m_start/m_final)+1
    budget levels; with the default schedule this is 20 / 4 = 5.
    """
    return (schedule.total_epochs - schedule.warmup_epochs) / schedule.halving_levels


def pos_budget(epoch: int, n_regions: int | None, schedule: PruneSchedule) -> int | None:
    """Positive region budget for one image at the given epoch.

    Warmup epochs use all `n_regions`, returned as given (a None count,
    every region of whichever image, stays None); afterwards the budget is
    max(m_final, m_start / 2^level) where the level advances every
    `epochs_per_halving` epochs (continuous-index flooring, exact in
    integer arithmetic).
    """
    if not 0 <= epoch < schedule.total_epochs:
        raise ValueError(f"epoch {epoch} outside schedule horizon [0, {schedule.total_epochs})")
    if epoch < schedule.warmup_epochs:
        return n_regions
    span = schedule.total_epochs - schedule.warmup_epochs
    level = (epoch - schedule.warmup_epochs) * schedule.halving_levels // span
    return max(schedule.m_final, schedule.m_start >> level)
