import dataclasses
import re

import numpy as np
import pytest

from wsdsel.data import Dataset, ImageBag
from wsdsel.errors import ConfigError, DataError, TrainingError
from wsdsel.geometry import BBox
from wsdsel.head import HeadParams
from wsdsel.schedule import PruneSchedule, pos_budget
from wsdsel.trainer import (
    TrainConfig,
    TrainState,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    train,
    train_epoch,
)


def toy_dataset(seed=0, n_images=10, n=8, d=8, c=2):
    """Separable two-class bags: features carry a clean class direction."""
    rng = np.random.default_rng(seed)
    protos = np.eye(c, d)
    images = []
    for i in range(n_images):
        cls = i % c
        labels = np.zeros(c, dtype=np.int64)
        labels[cls] = 1
        feats = 0.1 * rng.normal(size=(n, d))
        feats[: n // 2] += protos[cls]
        box = BBox(0.1, 0.1, 0.5, 0.5)
        images.append(
            ImageBag(
                id=f"toy{i}",
                proposals=[box] * n,
                views=[feats.astype(np.float32)],
                labels=labels,
                ground_truth=[(cls, box)],
            )
        )
    return Dataset(num_classes=c, feat_dim=d, class_names=[f"c{j}" for j in range(c)], images=images)


def small_schedule(**kw):
    defaults = dict(warmup_epochs=2, m_start=8, m_final=4, m_neg=4, total_epochs=6)
    defaults.update(kw)
    return PruneSchedule(**defaults)


class TestInitParams:
    def test_deterministic(self):
        a = init_params(16, 4, seed=5)
        b = init_params(16, 4, seed=5)
        for (_, x), (_, y) in zip(a.blocks(), b.blocks()):
            assert x.tobytes() == y.tobytes()

    def test_biases_exactly_zero(self):
        p = init_params(8, 3, seed=0)
        assert (p.b_cls == 0).all()
        assert (p.b_imp == 0).all()

    def test_weight_std_near_configured(self):
        p = init_params(100, 50, seed=1)  # 2 * 5000 = 10000 draws
        draws = np.concatenate([p.w_cls.ravel(), p.w_imp.ravel()])
        assert draws.size == 10000
        assert abs(draws.std() - 0.01) < 0.001

    def test_dtype_is_checkpoint_currency(self):
        p = init_params(4, 2, seed=0)
        assert p.w_cls.dtype == np.float32


class TestSgdStep:
    def _state(self, value=1.0):
        params = HeadParams(
            np.full((1, 1), value, dtype=np.float32),
            np.zeros(1, dtype=np.float32),
            np.zeros((1, 1), dtype=np.float32),
            np.zeros(1, dtype=np.float32),
        )
        return TrainState(params=params, velocity=params.zeros_like())

    def _grads(self, g):
        return HeadParams(np.array([[g]]), np.zeros(1), np.zeros((1, 1)), np.zeros(1))

    def _config(self, **kw):
        defaults = dict(learning_rate=0.1, momentum=0.0, weight_decay=0.0, total_epochs=6,
                        schedule=small_schedule(), lr_decay_epoch=None)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_vanilla_step(self):
        state = self._state(1.0)
        sgd_step(state, self._grads(2.0), self._config())
        assert state.params.w_cls[0, 0] == pytest.approx(0.8, rel=1e-6)

    def test_momentum_recurrence(self):
        state = self._state(0.0)
        config = self._config(momentum=0.9)
        sgd_step(state, self._grads(1.0), config)
        assert state.params.w_cls[0, 0] == pytest.approx(-0.1, rel=1e-6)
        sgd_step(state, self._grads(1.0), config)
        assert state.params.w_cls[0, 0] == pytest.approx(-0.29, rel=1e-6)

    def test_zero_gradient_is_fixed_point(self):
        state = self._state(3.0)
        before = state.params.w_cls.copy()
        sgd_step(state, self._grads(0.0), self._config())
        np.testing.assert_array_equal(state.params.w_cls, before)

    def test_non_finite_gradient_rejected(self):
        state = self._state(1.0)
        with pytest.raises(TrainingError):
            sgd_step(state, self._grads(float("nan")), self._config())

    def test_weight_decay_shrinks_params(self):
        state = self._state(1.0)
        sgd_step(state, self._grads(0.0), self._config(weight_decay=0.5))
        assert state.params.w_cls[0, 0] == pytest.approx(1.0 - 0.1 * 0.5, rel=1e-6)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(weight_decay=-1.0)

    @pytest.mark.parametrize("name, value", [("total_epochs", 45), ("learning_rate", float("nan")),
                                             ("schedule", PruneSchedule(warmup_epochs=1, total_epochs=10))])
    def test_is_frozen(self, name, value):
        # a config is checked once, at construction, and stays checked
        config = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, value)
        assert getattr(config, name) == getattr(TrainConfig(), name)

    def test_epochs_beyond_schedule_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(total_epochs=10, schedule=small_schedule(total_epochs=6))

    def test_lr_decay(self):
        config = TrainConfig(learning_rate=1.0, lr_decay_epoch=3, lr_decay_factor=0.1,
                             total_epochs=6, schedule=small_schedule())
        assert config.lr_at(2) == 1.0
        assert config.lr_at(3) == pytest.approx(0.1)
        assert config.lr_at(5) == pytest.approx(0.1)

    def test_negative_lr_decay_epoch_rejected(self):
        for epoch in (-1, -5):
            with pytest.raises(ConfigError, match="lr_decay_epoch"):
                TrainConfig(lr_decay_epoch=epoch)
        assert TrainConfig(lr_decay_epoch=None).lr_at(39) == TrainConfig().learning_rate  # None: no decay
        assert TrainConfig(lr_decay_epoch=0).lr_at(0) == pytest.approx(1e-4)

    def test_rates_outside_float32_rejected(self):
        # SGD runs in float32: a rate that overflows it, or a learning rate that rounds to 0 in it, is a config error
        for kwargs, key in [
            (dict(learning_rate=1e308), "learning_rate"),
            (dict(weight_decay=1e39), "weight_decay"),
            (dict(learning_rate=1e-3, lr_decay_factor=1e300), "learning_rate \\* lr_decay_factor"),
            (dict(learning_rate=1e-50), "learning_rate must be > 0 in float32"),
            (dict(learning_rate=1e-30, lr_decay_factor=1e-20), "learning_rate \\* lr_decay_factor must be > 0"),
        ]:
            with pytest.raises(ConfigError, match=key):
                TrainConfig(**kwargs)
        largest, smallest = np.finfo(np.float32).max, np.finfo(np.float32).smallest_subnormal
        TrainConfig(learning_rate=float(largest), lr_decay_factor=1.0, weight_decay=float(largest))
        TrainConfig(learning_rate=float(smallest), lr_decay_factor=1.0)
        TrainConfig(lr_decay_epoch=None, lr_decay_factor=1e300)  # no decay: the product is never used
        TrainConfig(lr_decay_epoch=None, learning_rate=1e-30, lr_decay_factor=1e-20)

    def test_budgets_of_the_readme_schedule(self):
        # warmup on every region for 20 epochs, then 64 -> 8 halving every 5 epochs, 16 hard negatives
        schedule = PruneSchedule(warmup_epochs=20, m_start=64, m_final=8, m_neg=16, total_epochs=40)
        config = TrainConfig(schedule=schedule)
        expected = [None] * 20 + [64] * 5 + [32] * 5 + [16] * 5 + [8] * 5
        assert [config.budgets(epoch) for epoch in range(40)] == [(m_pos, 16) for m_pos in expected]
        baseline = TrainConfig(schedule=schedule, baseline=True)
        assert [baseline.budgets(epoch) for epoch in range(40)] == [(None, None)] * 40


class TestTrainEpoch:
    def _config(self, **kw):
        defaults = dict(learning_rate=0.05, momentum=0.9, weight_decay=0.0, total_epochs=6,
                        seed=0, schedule=small_schedule(), lr_decay_epoch=None)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_single_image_single_update(self):
        ds = toy_dataset(n_images=1)
        config = self._config()
        steps = []
        params = init_params(ds.feat_dim, ds.num_classes, 0)
        state = TrainState(params=params, velocity=params.zeros_like())
        before = state.params.w_cls.copy()
        train_epoch(state, ds, config, on_step=lambda *a: steps.append(a))
        assert len(steps) == 1
        assert state.epoch == 1
        assert not np.array_equal(state.params.w_cls, before)

    def test_deterministic_history(self):
        ds = toy_dataset()
        a = train(ds, self._config())
        b = train(ds, self._config())
        assert a.loss_history == b.loss_history
        for (_, x), (_, y) in zip(a.params.blocks(), b.params.blocks()):
            assert x.tobytes() == y.tobytes()

    def test_loss_decreases_on_separable_toy(self):
        ds = toy_dataset()
        state = train(ds, self._config(total_epochs=5, momentum=0.5))
        losses = state.loss_history
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_budgets_follow_schedule_exactly(self):
        ds = toy_dataset()
        config = self._config()
        seen = []
        train(ds, config, on_step=lambda img, epoch, mp, mn, loss: seen.append((epoch, mp, mn)))
        assert len(seen) == 6 * len(ds.images)
        for epoch, mp, mn in seen:
            assert mp == pos_budget(epoch, 8, config.schedule)
            assert mn == config.schedule.m_neg

    def test_baseline_uses_full_budgets(self):
        ds = toy_dataset()
        seen = []
        train(ds, self._config(baseline=True), on_step=lambda img, e, mp, mn, l: seen.append((mp, mn)))
        assert all(mp == 8 and mn == 8 for mp, mn in seen)

    def test_baseline_equals_full_budget_schedule(self):
        # forcing m_start = m_final = m_neg = N reproduces the baseline exactly
        ds = toy_dataset()
        full = small_schedule(m_start=8, m_final=8, m_neg=8)
        a = train(ds, self._config(schedule=full))
        b = train(ds, self._config(baseline=True))
        for (_, x), (_, y) in zip(a.params.blocks(), b.params.blocks()):
            assert x.tobytes() == y.tobytes()

    def test_non_finite_gradient_names_image_and_epoch(self):
        ds = toy_dataset(n_images=2)
        ds.images[1].views[0][0, 0] = np.nan
        with pytest.raises(TrainingError, match=r"toy1.*epoch 0"):
            train(ds, self._config())

    def test_shape_mismatch_rejected(self):
        ds = toy_dataset()
        state = TrainState(params=init_params(3, 2, 0), velocity=init_params(3, 2, 0).zeros_like())
        with pytest.raises(Exception, match="does not match"):
            train_epoch(state, ds, self._config())


class TestTrain:
    def _config(self, **kw):
        defaults = dict(learning_rate=0.05, momentum=0.9, weight_decay=5e-4, total_epochs=6,
                        seed=0, schedule=small_schedule(), lr_decay_epoch=None)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_zero_epochs_returns_initialization(self):
        ds = toy_dataset()
        state = train(ds, self._config(total_epochs=0))
        init = init_params(ds.feat_dim, ds.num_classes, 0)
        for (_, x), (_, y) in zip(state.params.blocks(), init.blocks()):
            assert x.tobytes() == y.tobytes()
        assert state.loss_history == []

    def test_seed_changes_results(self):
        ds = toy_dataset()
        a = train(ds, self._config(seed=0))
        b = train(ds, self._config(seed=1))
        assert a.loss_history != b.loss_history


class TestCheckpoint:
    def _config(self, total_epochs):
        return TrainConfig(learning_rate=0.05, momentum=0.9, weight_decay=5e-4,
                           total_epochs=total_epochs, seed=0, schedule=small_schedule(),
                           lr_decay_epoch=None)

    def test_round_trip(self, tmp_path):
        ds = toy_dataset()
        state = train(ds, self._config(3))
        path = tmp_path / "ckpt.wsdc"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.epoch == 3
        for container in ("params", "velocity"):
            for (_, x), (_, y) in zip(getattr(state, container).blocks(), getattr(loaded, container).blocks()):
                assert x.tobytes() == y.tobytes()

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        ds = toy_dataset()
        full = train(ds, self._config(6))

        partial = train(ds, self._config(3))
        path = tmp_path / "mid.wsdc"
        save_checkpoint(partial, path)
        resumed = train(ds, self._config(6), state=load_checkpoint(path))

        assert resumed.epoch == full.epoch
        for (_, x), (_, y) in zip(full.params.blocks(), resumed.params.blocks()):
            assert x.tobytes() == y.tobytes()
        np.testing.assert_array_equal(full.loss_history[3:], resumed.loss_history)

    def test_a_path_holding_a_nul_is_a_data_error_naming_it(self):
        with pytest.raises(DataError, match=re.escape("cannot read checkpoint a\0b: embedded null byte")):
            load_checkpoint("a\0b")

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, full_disk):
        ds = toy_dataset()
        path = tmp_path / "ckpt.wsdc"
        save_checkpoint(train(ds, self._config(1)), path)
        before = path.read_bytes()
        full_disk("ckpt.wsdc")  # the first 40 bytes, then a full disk
        with pytest.raises(OSError):
            save_checkpoint(train(ds, self._config(2)), path)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]

    def test_rewrite_is_byte_identical(self, tmp_path):
        state = train(toy_dataset(), self._config(2))
        first, second = tmp_path / "a.wsdc", tmp_path / "b.wsdc"
        save_checkpoint(state, first)
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()
        assert sorted(tmp_path.iterdir()) == [first, second]

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.wsdc"
        path.write_bytes(b"JUNKJUNKJUNK")
        from wsdsel.errors import DataError

        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize("offset, field, message", [
        (0, b"JUNK", "bad checkpoint magic b'JUNK'"),
        (4, (2).to_bytes(4, "little"), "unsupported checkpoint version 2"),
    ], ids=["magic", "version"])
    def test_a_bad_header_field_is_refused_naming_the_file(self, tmp_path, offset, field, message):
        path = tmp_path / "ckpt.wsdc"
        save_checkpoint(train(toy_dataset(), self._config(1)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:offset] + field + raw[offset + len(field) :])
        from wsdsel.errors import DataError

        with pytest.raises(DataError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"checkpoint {path}: {message}"

    def test_truncated_rejected(self, tmp_path):
        ds = toy_dataset()
        state = train(ds, self._config(1))
        path = tmp_path / "ckpt.wsdc"
        save_checkpoint(state, path)
        path.write_bytes(path.read_bytes()[:-5])
        from wsdsel.errors import DataError

        with pytest.raises(DataError, match="expected"):
            load_checkpoint(path)

    def test_format_layout(self, tmp_path):
        # magic, version/C/D header, f32 blocks, trailing epoch index
        ds = toy_dataset()
        state = train(ds, self._config(2))
        path = tmp_path / "ckpt.wsdc"
        save_checkpoint(state, path)
        raw = path.read_bytes()
        assert raw[:4] == b"WSDC"
        version, c, d = np.frombuffer(raw[4:16], dtype="<u4")
        assert (version, c, d) == (1, 2, 8)
        n_floats = 2 * (2 * c * d + 2 * c)
        assert len(raw) == 16 + 4 * n_floats + 4
        assert int(np.frombuffer(raw[-4:], dtype="<u4")[0]) == 2
