"""Set/pair/triplet mining: validity scans, degenerate cases, and batching."""

import re

import pytest

from sclmetric.dataset import Dataset, Sample, Subclass, SubjectRecord, SynthConfig, generate_synthetic
from sclmetric.errors import ConfigError, MiningError
from sclmetric.mining import (
    Batch,
    ContrastivePair,
    GenuineSet,
    ImposterSet,
    Triplet,
    build_cl_pairs,
    build_genuine_sets,
    build_imposter_sets,
    build_triplets,
    cl_rows,
    imposter_rows,
    make_batches,
    triplet_rows,
)


def random_dataset(n_subjects=20, n_non=3, n_inj=4, seed=0) -> Dataset:
    return generate_synthetic(
        SynthConfig(
            n_subjects=n_subjects,
            dim=4,
            n_non_injured=n_non,
            n_injured=n_inj,
            subject_radius=3.0,
            sigma_n=0.5,
            sigma_i=0.5,
            injury_shift=1.0,
            seed=seed,
        )
    )


def tiny_dataset(n_subjects=2, n_non=1, n_inj=1) -> Dataset:
    records = []
    for sid in range(n_subjects):
        non = tuple(
            Sample(sid, Subclass.NON_INJURED, k, [float(sid), float(k)]) for k in range(n_non)
        )
        inj = tuple(
            Sample(sid, Subclass.INJURED, k, [float(sid), float(k) + 0.5]) for k in range(n_inj)
        )
        records.append(SubjectRecord(sid, non, inj))
    return Dataset(2, tuple(records))


def all_source_samples(ds: Dataset) -> set:
    return {id(s) for s in ds.all_samples()}


class TestGenuineSets:
    def test_forced_choice_one_n_two_i(self):
        ds = tiny_dataset(n_subjects=1, n_non=1, n_inj=2)
        sets = build_genuine_sets(ds, per_subject=1, seed=0)
        assert len(sets) == 1
        s = sets[0]
        assert s.a is ds.subject(0).non_injured[0]
        assert {s.b.sample_index, s.c.sample_index} == {0, 1}

    def test_single_injured_yields_degenerate_set(self):
        ds = tiny_dataset(n_subjects=1, n_non=1, n_inj=1)
        sets = build_genuine_sets(ds, per_subject=1, seed=0)
        assert len(sets) == 1
        assert sets[0].c is None

    def test_exhaustive_validity_scan(self):
        ds = random_dataset(n_subjects=20, seed=3)
        sets = build_genuine_sets(ds, per_subject=5, seed=11)
        assert len(sets) == 100
        source = all_source_samples(ds)
        for s in sets:
            assert s.a.subject_id == s.b.subject_id == s.c.subject_id
            assert s.a.subclass is Subclass.NON_INJURED
            assert s.b.subclass is Subclass.INJURED and s.c.subclass is Subclass.INJURED
            assert s.b.sample_index != s.c.sample_index
            assert {id(s.a), id(s.b), id(s.c)} <= source

    def test_deterministic(self):
        ds = random_dataset(seed=5)
        assert build_genuine_sets(ds, 4, seed=9) == build_genuine_sets(ds, 4, seed=9)

    def test_subject_without_injured_skipped_with_warning(self):
        records = list(tiny_dataset(2, 1, 2).subjects)
        records.append(SubjectRecord(9, (Sample(9, Subclass.NON_INJURED, 0, [1.0, 1.0]),), ()))
        ds = Dataset(2, tuple(records))
        with pytest.warns(UserWarning, match="skipped"):
            sets = build_genuine_sets(ds, 2, seed=0)
        assert all(s.a.subject_id != 9 for s in sets)


    @pytest.mark.parametrize(
        "builder, kind, subclass, reason",
        [
            (build_genuine_sets, "genuine-set", Subclass.NON_INJURED, "missing a subclass"),
            (build_imposter_sets, "imposter-set", Subclass.INJURED, "no non-injured samples"),
            (build_cl_pairs, "contrastive-pair", Subclass.NON_INJURED, "missing a subclass"),
            (build_triplets, "triplet", Subclass.NON_INJURED, "missing a subclass"),
        ],
    )
    def test_skip_warning_text_and_caller(self, builder, kind, subclass, reason):
        lone = (Sample(9, subclass, 0, [1.0, 1.0]),)
        extra = SubjectRecord(9, lone, ()) if subclass is Subclass.NON_INJURED else SubjectRecord(9, (), lone)
        with pytest.warns(UserWarning) as caught:
            builder(Dataset(2, (*tiny_dataset(2, 1, 2).subjects, extra)), 1, seed=0)
        assert [str(w.message) for w in caught] == [f"{kind} mining skipped subjects: [(9, '{reason}')]"]
        assert caught[0].filename == __file__


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "miner, per_subject, use",
    [
        (imposter_rows, 1, "imposter mining"),
        (imposter_rows, 0, "imposter mining"),
        (cl_rows, 1, "imposter pairing"),
        (triplet_rows, 1, "triplet mining"),
    ],
)
def test_two_donor_check_raises_before_the_skip_warning(miner, per_subject, use):
    # Subject 0 is the one donor and has no intact sample; subject 1 has no
    # injured one.  Each miner would skip a subject, so a warning (an error
    # here) that came before the donor check would fail the match.
    records = (
        SubjectRecord(0, (), (Sample(0, Subclass.INJURED, 0, [0.0, 1.0]),)),
        SubjectRecord(1, (Sample(1, Subclass.NON_INJURED, 0, [1.0, 0.0]),), ()),
    )
    with pytest.raises(MiningError, match=f"^{use} needs >= 2 subjects with injured samples, found 1$"):
        miner(Dataset(2, records), per_subject, seed=0)


class TestImposterSets:
    def test_forced_choice_two_subjects(self):
        ds = tiny_dataset(n_subjects=2, n_non=1, n_inj=1)
        sets = build_imposter_sets(ds, per_subject=1, seed=0)
        for s in sets:
            assert s.b.subject_id != s.a.subject_id
            assert s.c.subject_id == s.a.subject_id
        first = [s for s in sets if s.a.subject_id == 0][0]
        assert first.b is ds.subject(1).injured[0]
        assert first.c is ds.subject(0).injured[0]

    def test_exhaustive_validity_scan(self):
        ds = random_dataset(n_subjects=20, seed=4)
        sets = build_imposter_sets(ds, per_subject=5, seed=13)
        source = all_source_samples(ds)
        for s in sets:
            assert s.a.subject_id == s.c.subject_id
            assert s.b.subject_id != s.a.subject_id
            assert s.a.subclass is Subclass.NON_INJURED
            assert s.b.subclass is Subclass.INJURED and s.c.subclass is Subclass.INJURED
            assert {id(s.a), id(s.b), id(s.c)} <= source

    def test_shared_sample_is_the_same_object_across_both_pairs(self):
        # the foreign injured sample occupies the single b slot; both pairs of
        # the set therefore reference one object by construction
        ds = random_dataset(n_subjects=5, seed=8)
        for s in build_imposter_sets(ds, per_subject=3, seed=2):
            donor = ds.subject(s.b.subject_id)
            assert any(s.b is x for x in donor.injured)

    def test_single_subject_raises(self):
        with pytest.raises(MiningError):
            build_imposter_sets(tiny_dataset(n_subjects=1), 1, seed=0)

    def test_single_donor_raises(self):
        records = [
            SubjectRecord(0, (Sample(0, Subclass.NON_INJURED, 0, [0.0, 0.0]),), ()),
            SubjectRecord(
                1,
                (Sample(1, Subclass.NON_INJURED, 0, [1.0, 0.0]),),
                (Sample(1, Subclass.INJURED, 0, [1.0, 1.0]),),
            ),
        ]
        with pytest.raises(MiningError):
            build_imposter_sets(Dataset(2, tuple(records)), 1, seed=0)

    def test_deterministic(self):
        ds = random_dataset(seed=6)
        assert build_imposter_sets(ds, 4, seed=1) == build_imposter_sets(ds, 4, seed=1)


class TestContrastivePairs:
    def test_counts_balanced(self):
        ds = tiny_dataset(n_subjects=2, n_non=1, n_inj=1)
        pairs = build_cl_pairs(ds, per_subject=1, seed=0)
        assert len(pairs) == 4
        assert sum(1 for p in pairs if p.label == 0) == 2
        assert sum(1 for p in pairs if p.label == 1) == 2

    def test_labels_match_subject_equality(self):
        ds = random_dataset(n_subjects=15, seed=9)
        for p in build_cl_pairs(ds, per_subject=4, seed=3):
            assert (p.label == 0) == (p.first.subject_id == p.second.subject_id)
            assert p.first.subclass is Subclass.NON_INJURED
            assert p.second.subclass is Subclass.INJURED

    def test_per_subject_zero_gives_empty(self):
        assert build_cl_pairs(random_dataset(), 0, seed=0) == []

    def test_no_donors_and_per_subject_zero_give_empty_rows(self):
        with pytest.warns(UserWarning, match="contrastive-pair mining skipped subjects"):
            genuine, imposter = cl_rows(tiny_dataset(n_subjects=3, n_non=2, n_inj=0), 0, seed=0)
        assert genuine.shape == imposter.shape == (0, 2)


class TestTriplets:
    def test_forced_choice(self):
        ds = tiny_dataset(n_subjects=2, n_non=1, n_inj=1)
        triplets = build_triplets(ds, per_subject=1, seed=0)
        t = [t for t in triplets if t.anchor.subject_id == 0][0]
        assert t.positive is ds.subject(0).injured[0]
        assert t.negative is ds.subject(1).injured[0]

    def test_validity_scan(self):
        ds = random_dataset(n_subjects=12, seed=10)
        source = all_source_samples(ds)
        for t in build_triplets(ds, per_subject=4, seed=4):
            assert t.anchor.subject_id == t.positive.subject_id
            assert t.anchor.subject_id != t.negative.subject_id
            assert {id(t.anchor), id(t.positive), id(t.negative)} <= source

    def test_single_subject_raises(self):
        with pytest.raises(MiningError):
            build_triplets(tiny_dataset(n_subjects=1), 1, seed=0)

    def test_no_donors_and_per_subject_zero_give_empty_rows(self):
        with pytest.warns(UserWarning, match="triplet mining skipped subjects"):
            assert triplet_rows(tiny_dataset(n_subjects=3, n_non=2, n_inj=0), 0, seed=0).shape == (0, 3)


class TestMakeBatches:
    def _units(self, n, label):
        ds = tiny_dataset(n_subjects=2, n_non=1, n_inj=2)
        if label == 0:
            template = GenuineSet(ds.subject(0).non_injured[0], ds.subject(0).injured[0], ds.subject(0).injured[1])
        else:
            template = ImposterSet(ds.subject(0).non_injured[0], ds.subject(1).injured[0], ds.subject(0).injured[0])
        return [template] * n

    def test_even_split_50_50(self):
        batches = make_batches(self._units(50, 0), self._units(50, 1), 50, seed=0)
        assert len(batches) == 2
        for b in batches:
            assert b.size == 50
            assert len(b.genuine_sets) == 25
            assert len(b.imposter_sets) == 25

    def test_exhaustion_relaxes_ratio(self):
        batches = make_batches(self._units(3, 0), self._units(1, 1), 4, seed=0)
        assert len(batches) == 1
        assert batches[0].size == 4

    def test_short_final_batch(self):
        batches = make_batches(self._units(5, 0), self._units(5, 1), 4, seed=0)
        assert [b.size for b in batches] == [4, 4, 2]

    def test_deterministic(self):
        g, m = self._units(7, 0), self._units(9, 1)
        a = make_batches(g, m, 4, seed=5)
        b = make_batches(g, m, 4, seed=5)
        assert a == b

    def test_batch_size_must_be_at_least_two(self):
        with pytest.raises(ConfigError):
            make_batches([], [], 1, seed=0)

    def test_everything_batched_exactly_once(self):
        ds = random_dataset(n_subjects=8, seed=2)
        g = build_genuine_sets(ds, 3, seed=0)
        m = build_imposter_sets(ds, 3, seed=1)
        batches = make_batches(g, m, 10, seed=2)
        flattened = [u for b in batches for u in b.units]
        assert len(flattened) == len(g) + len(m)
        assert {id(u) for u in flattened} == {id(u) for u in g + m}


    @pytest.mark.parametrize(
        "batch_size, n_genuine, n_imposter, counts",
        [
            (5, 7, 3, [(3, 2), (4, 1)]),
            (5, 2, 9, [(2, 3), (0, 5), (0, 1)]),
            (3, 4, 4, [(2, 1), (2, 1), (0, 2)]),
        ],
    )
    def test_odd_batch_size_composition(self, batch_size, n_genuine, n_imposter, counts):
        batches = make_batches(self._units(n_genuine, 0), self._units(n_imposter, 1), batch_size, seed=0)
        assert [(len(b.genuine_sets), len(b.imposter_sets)) for b in batches] == counts


class TestUnitInvariants:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda n0, n1, i0, i1: GenuineSet(i0[0], i0[1], None), "genuine set slot a must be non-injured"),
            (lambda n0, n1, i0, i1: GenuineSet(n0, n0, None), "genuine set slot b must be injured"),
            (
                lambda n0, n1, i0, i1: GenuineSet(n0, i0[0], i1[0]),
                "genuine set slot c must be an injured sample of the same subject",
            ),
            (lambda n0, n1, i0, i1: ImposterSet(i0[0], i1[0], None), "imposter set slot a must be non-injured"),
            (lambda n0, n1, i0, i1: ImposterSet(n0, n1, None), "imposter set slot b must be injured"),
            (
                lambda n0, n1, i0, i1: ImposterSet(n0, i1[0], i1[1]),
                "imposter set slot c must be an injured sample of subject i",
            ),
            (lambda n0, n1, i0, i1: Triplet(i0[0], i0[1], i1[0]), "triplet anchor must be non-injured"),
            (lambda n0, n1, i0, i1: Triplet(n0, n0, i1[0]), "triplet positive/negative must be injured"),
            (lambda n0, n1, i0, i1: Triplet(n0, i1[0], i1[1]), "triplet positive must match the anchor's subject"),
            (lambda n0, n1, i0, i1: Triplet(n0, i0[0], i0[1]), "triplet negative must come from another subject"),
        ],
    )
    def test_slot_checks(self, build, message):
        ds = tiny_dataset(2, 1, 2)
        s0, s1 = ds.subjects
        with pytest.raises(MiningError, match=f"^{re.escape(message)}$"):
            build(s0.non_injured[0], s1.non_injured[0], s0.injured, s1.injured)

    def test_genuine_set_rejects_mixed_subjects(self):
        ds = tiny_dataset(2, 1, 2)
        with pytest.raises(MiningError):
            GenuineSet(ds.subject(0).non_injured[0], ds.subject(1).injured[0], None)

    def test_genuine_set_rejects_repeated_injured_sample(self):
        ds = tiny_dataset(1, 1, 2)
        inj = ds.subject(0).injured[0]
        with pytest.raises(MiningError):
            GenuineSet(ds.subject(0).non_injured[0], inj, inj)

    def test_imposter_set_rejects_same_subject_b(self):
        ds = tiny_dataset(1, 1, 2)
        with pytest.raises(MiningError):
            ImposterSet(ds.subject(0).non_injured[0], ds.subject(0).injured[0], ds.subject(0).injured[1])

    def test_pair_label_checked(self):
        ds = tiny_dataset(2, 1, 1)
        with pytest.raises(MiningError):
            ContrastivePair(ds.subject(0).non_injured[0], ds.subject(0).injured[0], 1)

    def test_triplet_subjects_checked(self):
        ds = tiny_dataset(2, 1, 1)
        with pytest.raises(MiningError):
            Triplet(ds.subject(0).non_injured[0], ds.subject(1).injured[0], ds.subject(1).injured[0])
