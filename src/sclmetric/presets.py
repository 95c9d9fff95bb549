"""Named configurations used by the demos, the CLI defaults, and the tests.

Two synthetic-data difficulty levels and one training regime:

* ``easy_synth_config`` - 10 well separated subjects with a single small
  injury shift; any reasonable training run should saturate rank-1 here.
* ``hard_synth_config`` - 30 closer subjects whose injured samples scatter
  across three distinct shift directions with triple the intact spread, so
  consolidating a subject's injured subclass actually matters.
* ``synthetic_regime`` - lr 1e-3 over 120 epochs with nothing frozen, sized
  so a freshly initialized network visibly learns on the generated data.

The reference fine-tuning regime (Adam, lr 3e-6, 30 epochs, batch 50) is the
:class:`~sclmetric.training.TrainConfig` defaults; adapting an already-trained
backbone also sets ``freeze=1``.
"""

from __future__ import annotations

from .dataset import SynthConfig
from .training import TrainConfig


def easy_synth_config(seed: int = 0) -> SynthConfig:
    return SynthConfig(
        n_subjects=10,
        dim=16,
        n_non_injured=4,
        n_injured=4,
        subject_radius=10.0,
        sigma_n=0.1,
        sigma_i=0.1,
        injury_shift=2.0,
        n_injury_modes=1,
        seed=seed,
    )


def hard_synth_config(seed: int = 0) -> SynthConfig:
    return SynthConfig(
        n_subjects=30,
        dim=16,
        n_non_injured=4,
        n_injured=6,
        subject_radius=6.0,
        sigma_n=0.6,
        sigma_i=1.8,
        injury_shift=3.0,
        n_injury_modes=3,
        seed=seed,
    )


def synthetic_regime(loss: str = "scl", seed: int = 0, epochs: int = 120) -> TrainConfig:
    return TrainConfig(loss=loss, learning_rate=1e-3, epochs=epochs, seed=seed)
