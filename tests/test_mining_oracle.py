"""The index miners against the scalar builders they replaced.

:mod:`scalar_miners` keeps the per-call builders; every public builder and
:func:`sclmetric.mining.make_batches` must return the same units, object for
object, over 300 seeds each.  The datasets cover both paths of the draws:
donors that all have one injured sample, or all several, take the array
call and its redraws, mixed donor sizes the scalar loop.
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
    # one, two and five injured samples: the donor draws take the scalar loop.
    "mixed": irregular_dataset([(2, 1), (1, 0), (3, 2), (0, 2), (1, 5), (2, 1), (4, 3)]),
    # Every donor has exactly one injured sample, so no donor sample is drawn.
    "single-injured": irregular_dataset([(1, 1), (3, 1), (0, 1), (2, 0), (2, 1)]),
    # Every donor has several injured samples, in unequal numbers: the donor
    # samples are redrawn until each is drawn at its donor's count.
    "unequal-donors": irregular_dataset([(2, 2), (1, 3), (3, 5), (1, 2), (2, 4), (4, 3), (1, 7)]),
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


def test_array_bound_integers_are_the_scalar_calls_in_row_major_order():
    """The numpy property the miners rest on: ``integers(0, bounds)`` over a
    2-D array returns what scalar ``integers(b)`` calls return, made in
    row-major order, and leaves the generator in the same state.  Bound 1
    draws nothing, 2**32 returns a raw half and 2**31 + 1 often rejects."""
    choices = np.array([1, 2, 3, 7, 1000003, 2**31 + 1, 1 << 32], dtype=np.int64)
    for seed in range(300):
        bounds = np.random.default_rng([seed, 1]).choice(choices, size=(seed % 7 + 1, 5))
        bulk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        assert bulk.integers(0, bounds).tolist() == [[scalar.integers(b) for b in row] for row in bounds.tolist()]
        assert bulk.bit_generator.state == scalar.bit_generator.state


def test_the_redraw_is_the_scalar_calls_under_frequent_rejection():
    """Donor counts of a few samples and counts near 2**32, where numpy
    rejects up to about half the draws: ``_draw`` returns what a loop of
    scalar ``Generator.integers`` calls returns."""
    counts_from = np.array([2, 3, 7, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 5], dtype=np.int64)
    for seed in SEEDS:
        rng = np.random.default_rng([seed, 2])
        counts = rng.choice(counts_from, size=rng.integers(2, 9))
        own = rng.integers(0, len(counts) + 1, size=rng.integers(1, 21))
        pick, sample = sorted(rng.choice(5, 2, replace=False).tolist())
        bounds = rng.choice(counts_from[:4], size=(len(own), 5))
        bounds[:, pick] = len(counts) - (own < len(counts))
        expected, scalar = [], np.random.default_rng(seed)
        for u, row in enumerate(bounds.tolist()):
            for j, bound in enumerate(row):
                v = int(scalar.integers(counts[row[pick]] if j == sample else bound))
                row[j] = v + (v >= own[u]) if j == pick else v
            expected.append(row)
        assert mining._draw(seed, bounds, (pick, sample, own, counts)).tolist() == expected
