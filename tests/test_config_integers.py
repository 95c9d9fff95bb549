"""Every config dataclass rejects a non-integral count with a ConfigError.

``TrainConfig(per_subject=1.5)`` used to train as ``per_subject=1``, because
``ndarray.repeat`` truncates, and the other counts failed late with a raw
TypeError.  One shared check, :func:`sclmetric.errors.check_integer_fields`,
covers every field typed ``int`` or ``tuple[int, ...]``.
"""

import numpy as np
import pytest

from sclmetric import model, presets
from sclmetric.dataset import SplitSpec, SynthConfig, generate_synthetic
from sclmetric.errors import ConfigError
from sclmetric.evaluation import EvalConfig, evaluate_model
from sclmetric.training import TrainConfig

SYNTH = dict(
    n_subjects=3, dim=2, n_non_injured=1, n_injured=1,
    subject_radius=1.0, sigma_n=0.1, sigma_i=0.1, injury_shift=1.0,
)


def evaluate(**options):
    ds = generate_synthetic(SynthConfig(**SYNTH))
    return evaluate_model(model.init_model([2, 2], seed=0), ds, **options)


BUILD = {
    "TrainConfig": TrainConfig,
    "SplitSpec": lambda **kw: SplitSpec(**{"seed": 0, **kw}),
    "SynthConfig": lambda **kw: SynthConfig(**{**SYNTH, **kw}),
    "EvalConfig": EvalConfig,
    "evaluate_model": evaluate,
}


@pytest.mark.parametrize(
    ("owner", "name", "value", "message"),
    [
        ("TrainConfig", "per_subject", 1.5, "an integer, got 1.5"),
        ("TrainConfig", "epochs", 2.5, "an integer, got 2.5"),
        ("TrainConfig", "batch_size", 2.5, "an integer, got 2.5"),
        ("TrainConfig", "seed", 1.0, "an integer, got 1.0"),
        ("TrainConfig", "freeze", 0.5, "an integer, got 0.5"),
        ("TrainConfig", "hidden_dims", (4.5,), "integers, got (4.5,)"),
        ("TrainConfig", "hidden_dims", [8, 4.0], "integers, got (8, 4.0)"),
        ("SplitSpec", "repetitions", 1.5, "an integer, got 1.5"),
        ("SplitSpec", "seed", 0.5, "an integer, got 0.5"),
        ("SynthConfig", "n_subjects", 2.5, "an integer, got 2.5"),
        ("SynthConfig", "dim", 2.0, "an integer, got 2.0"),
        ("SynthConfig", "n_injury_modes", 1.5, "an integer, got 1.5"),
        ("EvalConfig", "verification_pairs", 2.5, "an integer, got 2.5"),
        ("evaluate_model", "verification_pairs", 2.5, "an integer, got 2.5"),
        ("evaluate_model", "ranks", (1, 1.5), "integers, got (1, 1.5)"),
    ],
)
def test_non_integral_count_is_a_config_error(owner, name, value, message):
    with pytest.raises(ConfigError) as info:
        BUILD[owner](**{name: value})
    assert str(info.value) == f"{name} must be {message}"


def test_integral_values_of_any_integer_type_pass():
    cfg = TrainConfig(epochs=np.int64(2), batch_size=np.int32(4), per_subject=True, hidden_dims=(np.int64(3),))
    assert (cfg.epochs, cfg.batch_size, cfg.per_subject, cfg.hidden_dims) == (2, 4, 1, (3,))
    assert SplitSpec(np.uint8(1), repetitions=np.int16(2)).repetitions == 2
    assert presets.easy_synth_config(np.int64(3)).seed == 3
    assert EvalConfig(ranks=[np.int64(2)], verification_pairs=np.int64(5)).ranks == (2,)
