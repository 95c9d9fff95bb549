"""Adam and the training loop: hand-checked steps, determinism, descent."""

import math

import numpy as np
import pytest

from dataclasses import replace

from sclmetric import model, presets, training
from sclmetric.dataset import Dataset, SynthConfig, SubjectRecord, generate_synthetic
from sclmetric.errors import ConfigError, NumericError
from sclmetric.training import AdamState, TrainConfig, adam_step, train

import per_unit_trainer


def scalar_model(value: float) -> model.ModelParams:
    return model.ModelParams((model.Layer(np.array([[value]]), np.zeros(1), "identity"),))


def grad_like(m: model.ModelParams, w_value: float, b_value: float = 0.0):
    return tuple(
        (np.full_like(l.weight, w_value), np.full_like(l.bias, b_value)) for l in m.layers
    )


class TestAdamStep:
    def test_zero_gradient_keeps_parameters(self):
        m = model.init_model([3, 2], seed=0)
        state = AdamState.for_model(m)
        new_m, new_state = adam_step(m, model.zero_gradients(m), state, lr=0.1)
        assert new_m == m
        assert new_state.t == 1

    def test_first_step_matches_hand_applied_formulas(self):
        # theta=1, g=2, lr=1e-3: hand-apply the update with bias correction
        m = scalar_model(1.0)
        state = AdamState.for_model(m)
        new_m, new_state = adam_step(m, grad_like(m, 2.0), state, lr=1e-3)

        b1, b2, eps, g, lr = 0.9, 0.999, 1e-8, 2.0, 1e-3
        m1 = (1 - b1) * g
        v1 = (1 - b2) * g * g
        m_hat = m1 / (1 - b1)
        v_hat = v1 / (1 - b2)
        expected = 1.0 - lr * m_hat / (np.sqrt(v_hat) + eps)

        assert new_m.layers[0].weight[0, 0] == expected
        assert abs(new_m.layers[0].weight[0, 0] - 0.999) < 1e-7  # ~ lr * sign(g)
        assert new_state.t == 1

    def test_moments_accumulate_across_steps(self):
        m = scalar_model(0.0)
        state = AdamState.for_model(m)
        m, state = adam_step(m, grad_like(m, 1.0), state, lr=0.0)
        m, state = adam_step(m, grad_like(m, 3.0), state, lr=0.0)
        assert state.t == 2
        assert state.m[0] == pytest.approx(0.9 * 0.1 + 0.1 * 3.0)

    def test_matches_a_per_entry_float_loop(self):
        # Python floats in the documented order, bit for bit.  Three entries never get a gradient
        # (one of them a -0.0 parameter, one a -0.0 gradient) and must keep their bits.
        weight = model.init_model([3, 4, 2], seed=2).layers[0].weight.copy()
        weight[0, 0] = -0.0
        m = model.ModelParams((model.Layer(weight, np.zeros(4), "relu"), model.init_model([4, 2], seed=3).layers[0]))
        still, initial = [0, 5, 12], m.vector.copy()
        theta, mom, vel = m.vector.tolist(), [0.0] * m.vector.size, [0.0] * m.vector.size
        state, lr, rng = AdamState.for_model(m), 1e-2, np.random.default_rng(5)
        for t in range(1, 31):
            g = rng.normal(size=m.vector.size)
            g[still] = [0.0, -0.0, 0.0]
            m, state = adam_step(m, m.split(g), state, lr)
            for i, gi in enumerate(g.tolist()):
                mom[i] = 0.9 * mom[i] + (1.0 - 0.9) * gi
                vel[i] = 0.999 * vel[i] + (1.0 - 0.999) * gi * gi
                m_hat, v_hat = mom[i] / (1.0 - 0.9**t), vel[i] / (1.0 - 0.999**t)
                theta[i] = theta[i] - lr * m_hat / (math.sqrt(v_hat) + 1e-8)
            assert m.vector.tobytes() == np.array(theta).tobytes()
            assert state.m.tobytes() == np.array(mom).tobytes() and state.v.tobytes() == np.array(vel).tobytes()
        assert state.t == 30
        assert m.vector[still].tobytes() == initial[still].tobytes() and np.signbit(m.vector[0])
        assert not np.array_equal(m.vector, initial)

    def test_shape_mismatch_rejected(self):
        m = model.init_model([3, 2], seed=0)
        bad = (grad_like(model.init_model([4, 2], seed=0), 1.0))[0:1]
        with pytest.raises(ConfigError):
            adam_step(m, bad, AdamState.for_model(m), lr=0.1)

    @pytest.mark.parametrize("size", [8, 1])
    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_state_of_another_shape_rejected(self, moment, size):
        m = model.init_model([3, 4, 2], seed=0)
        state = replace(AdamState.for_model(m), **{moment: np.zeros(size)})
        with pytest.raises(ConfigError, match=rf"^vector shape \({size},\) does not match parameter vector \(26,\)$"):
            adam_step(m, model.zero_gradients(m), state, lr=0.1)

    def test_mismatch_messages(self):
        m = model.init_model([3, 2], seed=0)
        with pytest.raises(ConfigError, match=r"^gradient structure does not match model depth$"):
            adam_step(m, (), AdamState.for_model(m), lr=0.1)
        bad = ((np.zeros((2, 4)), np.zeros(2)),)
        with pytest.raises(ConfigError, match=r"^gradient shapes \(2, 4\)/\(2,\) do not match layer \(2, 3\)/\(2,\)$"):
            adam_step(m, bad, AdamState.for_model(m), lr=0.1)

    def test_moments_are_per_layer_views_of_one_vector(self):
        m = model.init_model([3, 4, 2], seed=0)
        assert AdamState.for_model(m).m.shape == m.vector.shape
        _, state = adam_step(m, grad_like(m, 1.0, 2.0), AdamState.for_model(m), lr=0.1)
        assert state.m.shape == state.v.shape == m.vector.shape
        pairs = m.split(state.m)
        assert [(w.shape, b.shape) for w, b in pairs] == [((4, 3), (4,)), ((2, 4), (2,))]
        assert pairs[1][1].tolist() == [(1.0 - 0.9) * 2.0] * 2
        assert m.split(state.v)[0][0].tolist() == [[(1.0 - 0.999) * 1.0 * 1.0] * 3] * 4


def easy_dataset(seed=0):
    return generate_synthetic(presets.easy_synth_config(seed))


def quick_config(**overrides) -> TrainConfig:
    base = dict(loss="scl", learning_rate=1e-3, epochs=3, batch_size=10, per_subject=2, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrain:
    def test_zero_lr_returns_initial_params(self):
        ds = easy_dataset()
        cfg = quick_config(learning_rate=0.0)
        params, _ = train(ds, cfg)
        assert params == model.init_model([ds.dimension, *cfg.hidden_dims], cfg.seed)

    def test_deterministic(self):
        ds = easy_dataset()
        cfg = quick_config(epochs=2)
        p1, log1 = train(ds, cfg)
        p2, log2 = train(ds, cfg)
        assert p1 == p2
        assert [e.sum_loss for e in log1.entries] == [e.sum_loss for e in log2.entries]

    def test_frozen_prefix_is_bitwise_unchanged(self):
        ds = easy_dataset()
        cfg = quick_config(freeze=1, epochs=2)
        init = model.init_model([ds.dimension, *cfg.hidden_dims], cfg.seed)
        params, _ = train(ds, cfg)
        assert np.array_equal(params.layers[0].weight, init.layers[0].weight)
        assert np.array_equal(params.layers[0].bias, init.layers[0].bias)
        assert not np.array_equal(params.layers[1].weight, init.layers[1].weight)

    def test_log_has_one_entry_per_epoch_all_finite(self):
        ds = easy_dataset()
        cfg = quick_config(epochs=4)
        _, log = train(ds, cfg)
        assert len(log.entries) == 4
        assert [e.epoch for e in log.entries] == [0, 1, 2, 3]
        for e in log.entries:
            assert np.isfinite([e.sum_loss, e.mean_genuine, e.mean_imposter]).all()

    def test_descent_on_easy_preset(self):
        ds = easy_dataset(seed=1)
        cfg = presets.synthetic_regime(seed=1, epochs=60)
        _, log = train(ds, cfg)
        assert log.entries[-1].mean_genuine < log.entries[0].mean_genuine

    def test_cl_and_tl_dispatch(self):
        ds = easy_dataset()
        for loss in ("cl", "tl"):
            params, log = train(ds, quick_config(loss=loss, epochs=2))
            assert len(log.entries) == 2
            assert params.input_dim == ds.dimension

    def test_epochs_remine_units(self):
        # different epochs see different unit samples: with lr=0 the loss sums
        # still differ across epochs because mining is reseeded per epoch
        ds = easy_dataset()
        _, log = train(ds, quick_config(learning_rate=0.0, epochs=3))
        sums = {round(e.sum_loss, 9) for e in log.entries}
        assert len(sums) > 1

    def test_train_log_csv(self, tmp_path):
        ds = easy_dataset()
        _, log = train(ds, quick_config(epochs=2))
        path = tmp_path / "log.csv"
        log.write_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch,sum_loss,mean_genuine,mean_imposter,seconds"
        assert len(lines) == 3


def _without_injured(ds: Dataset, subject_id: int) -> Dataset:
    subjects = [
        SubjectRecord(r.subject_id, r.non_injured, ()) if r.subject_id == subject_id else r for r in ds.subjects
    ]
    return Dataset(ds.dimension, tuple(subjects))


DIFFERENTIAL_DATASETS = {
    "hard": lambda: generate_synthetic(presets.hard_synth_config(2)),
    "easy": lambda: generate_synthetic(presets.easy_synth_config(2)),
    # Every genuine set is degenerate (no c).
    "single-injured": lambda: generate_synthetic(replace(presets.hard_synth_config(2), n_subjects=12, n_injured=1)),
    # Imposter sets anchored on subject 3 have no c; cl and tl skip it.
    "no-injured-subject": lambda: _without_injured(generate_synthetic(presets.easy_synth_config(2)), 3),
}


@pytest.mark.filterwarnings("ignore:.*mining skipped subjects")
class TestTrainDifferential:
    """The batched trainer against the per-unit loop it replaced: the same
    parameter bits and the same log floats, with no tolerance."""

    @staticmethod
    def assert_identical(ds, cfg):
        params, log = train(ds, cfg)
        layers, oracle_log = per_unit_trainer.train(ds, cfg)
        for layer, (w, b) in zip(params.layers, layers):
            assert layer.weight.tobytes() == w.tobytes()
            assert layer.bias.tobytes() == b.tobytes()
        entries = [(e.sum_loss, e.mean_genuine, e.mean_imposter) for e in log.entries]
        assert entries == oracle_log
        return params

    @pytest.mark.parametrize("data", sorted(DIFFERENTIAL_DATASETS))
    @pytest.mark.parametrize("loss", training.LOSS_KINDS)
    def test_matches_per_unit_loop(self, data, loss):
        ds = DIFFERENTIAL_DATASETS[data]()
        moved = False
        for freeze in (0, 1):
            for batch_size in (2, 7, 50):
                cfg = TrainConfig(
                    loss=loss, learning_rate=1e-2, epochs=2, batch_size=batch_size, per_subject=2,
                    seed=batch_size + freeze, freeze=freeze,
                )
                params = self.assert_identical(ds, cfg)
                initial = model.init_model([ds.dimension, *cfg.hidden_dims], cfg.seed)
                moved |= not np.array_equal(params.layers[-1].weight, initial.layers[-1].weight)
        # Every triplet of the easy preset is inactive, so tl never moves there.
        assert moved or (loss == "tl" and data in ("easy", "no-injured-subject"))

    @pytest.mark.parametrize("loss", training.LOSS_KINDS)
    def test_one_wide_layers(self, loss):
        # One-wide rows are where np.add.reduce would sum pairwise.
        ds = DIFFERENTIAL_DATASETS["hard"]()
        for hidden_dims in ((1, 4), (8, 1)):
            cfg = TrainConfig(
                loss=loss, learning_rate=1e-2, epochs=2, batch_size=50, per_subject=4, hidden_dims=hidden_dims
            )
            self.assert_identical(ds, cfg)


class TestNumericFailure:
    # An absurd learning rate blows the embeddings up on the second step;
    # tl is left out because its ReLU units die and its loss stays finite.
    @pytest.mark.parametrize("loss", ["scl", "cl"])
    def test_non_finite_batch_loss_raises(self, loss):
        with np.errstate(all="ignore"), pytest.raises(NumericError) as info:
            train(easy_dataset(), quick_config(loss=loss, learning_rate=1e300))
        assert str(info.value) == f"non-finite loss nan at epoch 0, batch 1 (loss={loss})"


class TestTrainConfigValidation:
    def test_bad_loss(self):
        with pytest.raises(ConfigError):
            TrainConfig(loss="softmax")

    def test_bad_margins(self):
        with pytest.raises(ConfigError):
            TrainConfig(alpha1=0.0)

    @pytest.mark.parametrize("key", ["alpha1", "alpha2", "cl_margin", "tl_margin"])
    def test_nan_margin(self, key):
        with pytest.raises(ConfigError, match=r"^all margins must be > 0$"):
            TrainConfig(**{key: float("nan")})

    @pytest.mark.parametrize("key", ["alpha1", "alpha2", "cl_margin", "tl_margin"])
    def test_infinite_margin(self, key):
        with pytest.raises(ConfigError, match=r"^all margins must be finite$"):
            TrainConfig(**{key: float("inf")})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_learning_rate(self, value):
        with pytest.raises(ConfigError, match=r"^learning_rate must be finite$"):
            TrainConfig(learning_rate=value)

    def test_bad_batch(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert training.derive_seed(1, 2) == training.derive_seed(1, 2)
        assert training.derive_seed(1, 2) != training.derive_seed(2, 1)
        assert 0 <= training.derive_seed(0, 0) < 2**32
