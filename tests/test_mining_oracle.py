"""The index miners against the scalar builders they replaced.

:mod:`scalar_miners` keeps the per-call builders; every public builder and
:func:`sclmetric.mining.make_batches` must return the same units, object for
object, over 300 seeds each.  The datasets cover both paths of the replay:
uniform injured counts take the lane replay, mixed donor sizes the scalar
fallback.  A forced rejection sends a uniform dataset down the fallback too.
"""

from dataclasses import fields

import numpy as np
import pytest

from sclmetric import mining, presets
from sclmetric.dataset import Dataset, Sample, Subclass, SubjectRecord, generate_synthetic

import scalar_miners

pytestmark = pytest.mark.filterwarnings("ignore:.*mining skipped subjects")

BUILDERS = ("build_genuine_sets", "build_imposter_sets", "build_cl_pairs", "build_triplets")
SEEDS = range(300)


def irregular_dataset(counts) -> Dataset:
    """One subject per (intact, injured) count pair, in that order."""
    records = []
    for sid, (n_non, n_inj) in enumerate(counts):
        non = tuple(Sample(sid, Subclass.NON_INJURED, k, [float(sid), float(k)]) for k in range(n_non))
        inj = tuple(Sample(sid, Subclass.INJURED, k, [float(sid), k + 0.5]) for k in range(n_inj))
        records.append(SubjectRecord(sid, non, inj))
    return Dataset(2, tuple(records))


DATASETS = {
    "hard": generate_synthetic(presets.hard_synth_config(3)),
    "easy": generate_synthetic(presets.easy_synth_config(4)),
    # Single-injured subjects, a subject missing each subclass, and donors of
    # one, two and five injured samples: the donor draws need the fallback.
    "mixed": irregular_dataset([(2, 1), (1, 0), (3, 2), (0, 2), (1, 5), (2, 1), (4, 3)]),
    # Every donor has exactly one injured sample, so no donor draw takes a half.
    "single-injured": irregular_dataset([(1, 1), (3, 1), (0, 1), (2, 0), (2, 1)]),
}


def per_subject(seed: int) -> int:
    return (0, 1, 3)[seed % 3]


def assert_same_units(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert type(g) is type(e)
        for name in [f.name for f in fields(g)]:
            x, y = getattr(g, name), getattr(e, name)
            assert x is y if name != "label" else x == y, name


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("builder", BUILDERS)
def test_units_are_the_oracle_units(builder, dataset):
    ds = DATASETS[dataset]
    for seed in SEEDS:
        expected = getattr(scalar_miners, builder)(ds, per_subject(seed), seed)
        assert_same_units(getattr(mining, builder)(ds, per_subject(seed), seed), expected)


@pytest.mark.parametrize("batch_size", [2, 5, 50])
def test_batches_are_the_oracle_batches(batch_size):
    ds = DATASETS["hard"]
    all_genuine = scalar_miners.build_genuine_sets(ds, 3, 0)
    all_imposter = scalar_miners.build_imposter_sets(ds, 3, 1)
    for seed in SEEDS:
        genuine, imposter = all_genuine[: seed % 97], all_imposter[: seed % 50]
        got = mining.make_batches(genuine, imposter, batch_size, seed)
        expected = scalar_miners.make_batches(genuine, imposter, batch_size, seed)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert_same_units(g.genuine_sets, e.genuine_sets)
            assert_same_units(g.imposter_sets, e.imposter_sets)


@pytest.mark.parametrize("bound", [2**32 - 1, 2**32 - 5, 3 * 2**30 + 7, 2**31 + 1, 1000003])
def test_lemire_lanes_match_the_generator(bound):
    """Every accepted half gives ``Generator.integers``' value, and every half
    numpy rejects (leftover below 2**32 mod bound) is flagged."""
    threshold = 2**32 % bound
    for seed in range(50):
        halves = mining._halves(seed, np.ones(256, dtype=bool))
        values, flagged = mining._lemire(halves, np.full(256, bound))
        rng = np.random.default_rng(seed)
        lane = 0
        while lane < 200:
            while int(halves[lane]) * bound % 2**32 < threshold:
                assert flagged[lane]
                lane += 1
            assert values[lane] == rng.integers(bound)
            lane += 1


@pytest.mark.parametrize(
    "builder, call", [(b, 0) for b in BUILDERS] + [(b, 1) for b in BUILDERS if b != "build_genuine_sets"]
)
def test_a_rejected_lane_falls_back_to_the_oracle_units(builder, call, monkeypatch):
    """A rejection in the helper's first call of a miner (every column) or
    its second (the donors' injured samples) sends it to the fallback."""
    lemire = mining._lemire
    calls = []

    def reject_last_lane(halves, bounds):
        values, flagged = lemire(halves, bounds)
        if len(calls) == call:
            # As if numpy had rejected these halves: their values are not the draws.
            values[..., -1:], flagged[..., -1:] = -1, True
        calls.append(call)
        return values, flagged

    monkeypatch.setattr(mining, "_lemire", reject_last_lane)
    ds = DATASETS["hard"]
    for seed in range(20):
        calls.clear()
        expected = getattr(scalar_miners, builder)(ds, 2, seed)
        assert_same_units(getattr(mining, builder)(ds, 2, seed), expected)
        assert len(calls) > call
