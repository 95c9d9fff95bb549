"""The block-draw synthetic generator against the per-sample one it replaced.

:mod:`scalar_generator` keeps the generator that made one ``rng.normal``
call per sample.  For every configuration below,
:func:`sclmetric.dataset.generate_synthetic` must give the same sample keys
and embedding bytes, which holds because ``Generator.normal`` fills an
``(n, dim)`` block row by row with the values of ``n`` successive
``dim``-sized draws, and each injured row is still
``(mean + mode * injury_shift) + noise``.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sclmetric import presets
from sclmetric.dataset import SynthConfig, generate_synthetic

import scalar_generator


def bits(ds):
    """Everything a generated dataset is made of, as comparable bytes."""
    samples = [
        (s.key, s.embedding.dtype, s.embedding.flags.writeable, s.embedding.tobytes())
        for s in ds.all_samples()
    ]
    return ds.dimension, ds.counts.tobytes(), samples


def assert_same_dataset(cfg):
    assert bits(generate_synthetic(cfg)) == bits(scalar_generator.generate_synthetic(cfg))


scales = st.one_of(st.just(0.0), st.floats(0.0, 20.0, allow_subnormal=False), st.sampled_from((1e-300, 1e300)))


@st.composite
def synth_configs(draw):
    return SynthConfig(
        n_subjects=draw(st.integers(1, 5)),
        dim=draw(st.integers(1, 6)),
        n_non_injured=draw(st.integers(1, 4)),
        n_injured=draw(st.integers(1, 8)),
        subject_radius=draw(scales),
        sigma_n=draw(scales),
        sigma_i=draw(scales),
        injury_shift=draw(scales),
        n_injury_modes=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 2**63 - 1)),
    )


@given(synth_configs())
@example(SynthConfig(1, 3, 1, 7, 5.0, 0.0, 0.4, 2.0, n_injury_modes=4, seed=0))
@example(SynthConfig(2, 1, 1, 1, 0.0, 0.0, 0.0, 0.0, n_injury_modes=5, seed=0))
@settings(max_examples=250, deadline=None)
def test_block_draws_give_the_per_sample_generators_bits(cfg):
    assert_same_dataset(cfg)


@pytest.mark.parametrize("preset", [presets.easy_synth_config, presets.hard_synth_config])
@pytest.mark.parametrize("seed", [0, 3, 9])
def test_presets_give_the_per_sample_generators_bits(preset, seed):
    assert_same_dataset(preset(seed))
