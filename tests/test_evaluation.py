"""Evaluation protocol vs independent brute-force oracles (exact equality).

The oracles re-derive rankings, curve fractions, threshold sweeps, and
aggregation from scratch.  Scalar distances follow the library's documented
left-to-right accumulation contract, which an explicit Python loop
reproduces bit-for-bit, so every comparison below is exact (no tolerance).
"""

import inspect
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from sclmetric import evaluation, losses, model, presets, reporting, training
from sclmetric.dataset import (
    Dataset,
    Sample,
    SplitSpec,
    Subclass,
    SubjectRecord,
    SynthConfig,
    generate_synthetic,
    gallery_probe_partition,
)
from sclmetric.errors import ConfigError, DataError, DimensionMismatchError, ProtocolError
from sclmetric.evaluation import (
    CmcCurve,
    GarFarEntry,
    VerificationReport,
    cmc_curve,
    evaluate_model,
    extend_gallery,
    extract_embeddings,
    gar_at_far,
    identify,
    mean_inter_class_distance,
    rank_k_accuracy,
    repeated_evaluation,
    verification_scores,
)
from sclmetric.mining import ContrastivePair

from helpers import loop_sum


# --- independent oracles -----------------------------------------------------


def oracle_distance(u, v) -> float:
    total = 0.0
    for a, b in zip(list(u), list(v)):
        total += (a - b) * (a - b)
    return math.sqrt(total)


def oracle_identify(probe, gallery):
    per_subject = {}
    for sid, emb in gallery:
        d = oracle_distance(probe, emb)
        if sid not in per_subject:
            per_subject[sid] = d
        elif d < per_subject[sid]:
            per_subject[sid] = d
    decorated = [(d, sid) for sid, d in per_subject.items()]
    decorated.sort()
    return [sid for _, sid in decorated]


def oracle_cmc(rankings):
    n = len(rankings)
    size = len(rankings[0][1])
    values = []
    for k in range(1, size + 1):
        hits = 0
        for true_sid, ranked in rankings:
            if true_sid in ranked[:k]:
                hits += 1
        values.append(hits / n)
    return values


def oracle_gar_far(genuine, imposter, target):
    candidates = sorted(set(genuine) | set(imposter))
    best = None
    for t in candidates:
        far = sum(1 for s in imposter if s <= t) / len(imposter)
        if far <= target:
            if best is None or t > best[0]:
                best = (t, far, sum(1 for s in genuine if s <= t) / len(genuine))
    if best is None:
        return (math.nextafter(candidates[0], -math.inf), 0.0, 0.0)
    return best


def oracle_mean_inter_class(gallery, probes):
    total = 0.0
    count = 0
    for g_sid, g_emb in gallery:
        for p_sid, p_emb in probes:
            if g_sid != p_sid:
                total += oracle_distance(g_emb, p_emb)
                count += 1
    return total / count


def random_instance(rng, max_subjects=30, max_dim=16):
    n_subjects = int(rng.integers(2, max_subjects + 1))
    dim = int(rng.integers(2, max_dim + 1))
    gallery = [(sid, rng.normal(size=dim)) for sid in range(n_subjects)]
    probes = [
        (int(rng.integers(n_subjects)), rng.normal(size=dim))
        for _ in range(int(rng.integers(1, 3 * n_subjects)))
    ]
    return gallery, probes


# --- identify ----------------------------------------------------------------


class TestIdentify:
    def test_hand_ranking(self):
        gallery = [(0, np.array([0.0, 0.0])), (1, np.array([5.0, 5.0]))]
        assert identify(np.array([0.1, 0.0]), gallery) == [0, 1]

    def test_tie_breaks_by_subject_id(self):
        gallery = [(3, np.array([1.0, 0.0])), (1, np.array([-1.0, 0.0]))]
        assert identify(np.array([0.0, 0.0]), gallery) == [1, 3]

    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            gallery, probes = random_instance(rng, max_subjects=20)
            for _, probe in probes[:5]:
                assert identify(probe, gallery) == oracle_identify(probe, gallery)

    def test_multi_image_gallery_uses_minimum_distance(self):
        gallery = [
            (0, np.array([10.0, 0.0])),
            (0, np.array([0.2, 0.0])),
            (1, np.array([1.0, 0.0])),
        ]
        assert identify(np.array([0.0, 0.0]), gallery) == [0, 1]

    def test_output_is_permutation_of_subjects(self):
        rng = np.random.default_rng(6)
        gallery, probes = random_instance(rng)
        ranked = identify(probes[0][1], gallery)
        assert sorted(ranked) == sorted({sid for sid, _ in gallery})

    def test_empty_gallery(self):
        with pytest.raises(ProtocolError):
            identify(np.zeros(2), [])


class TestCmc:
    def test_hand_curve(self):
        rankings = [(0, [0, 1, 2]), (2, [0, 1, 2])]
        curve = cmc_curve(rankings)
        assert curve.values == (0.5, 0.5, 1.0)

    def test_all_rank_one(self):
        rankings = [(0, [0, 1]), (1, [1, 0])]
        assert cmc_curve(rankings).values == (1.0, 1.0)

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            gallery, probes = random_instance(rng)
            rankings = [(sid, identify(p, gallery)) for sid, p in probes]
            assert list(cmc_curve(rankings).values) == oracle_cmc(rankings)

    def test_unenrolled_probe_flagged(self):
        rankings = [(0, [0, 1]), (9, [0, 1])]
        curve = cmc_curve(rankings)
        assert curve.n_unenrolled == 1
        assert curve.values[-1] == 0.5

    def test_monotone_and_complete(self):
        rng = np.random.default_rng(8)
        gallery, probes = random_instance(rng)
        rankings = [(sid, identify(p, gallery)) for sid, p in probes]
        curve = cmc_curve(rankings)
        assert all(a <= b for a, b in zip(curve.values, curve.values[1:]))
        assert curve.values[-1] == 1.0  # every probe subject is enrolled


class TestRankK:
    def test_values(self):
        curve = CmcCurve((0.5, 0.5, 1.0))
        assert rank_k_accuracy(curve, 1) == 0.5
        assert rank_k_accuracy(curve, 3) == 1.0

    def test_out_of_range(self):
        curve = CmcCurve((0.5, 0.5, 1.0))
        with pytest.raises(ProtocolError):
            rank_k_accuracy(curve, 5)
        with pytest.raises(ProtocolError):
            rank_k_accuracy(curve, 0)


# --- verification ------------------------------------------------------------


def make_pair(sid1, sid2, e1, e2):
    first = Sample(sid1, Subclass.NON_INJURED, 0, e1)
    second = Sample(sid2, Subclass.INJURED, 0, e2)
    return ContrastivePair(first, second, 0 if sid1 == sid2 else 1)


class TestVerificationScores:
    def test_identical_embeddings_distance_zero(self):
        m = model.identity_model(2)
        pair = make_pair(0, 0, [1.0, 2.0], [1.0, 2.0])
        report = verification_scores([pair], m)
        assert report.genuine_scores == (0.0,)

    def test_counts_match_labels(self):
        m = model.identity_model(2)
        pairs = [
            make_pair(0, 0, [0.0, 0.0], [1.0, 0.0]),
            make_pair(0, 1, [0.0, 0.0], [2.0, 0.0]),
            make_pair(1, 1, [0.0, 0.0], [3.0, 0.0]),
        ]
        report = verification_scores(pairs, m)
        assert len(report.genuine_scores) == 2
        assert len(report.imposter_scores) == 1

    def test_distances_match_recomputation(self):
        rng = np.random.default_rng(9)
        m = model.identity_model(4)
        pairs = []
        expected = []
        for k in range(30):
            e1, e2 = rng.normal(size=(2, 4))
            sid2 = k % 3
            pairs.append(make_pair(0, sid2, e1, e2))
            expected.append((0 if sid2 == 0 else 1, oracle_distance(e1, e2)))
        report = verification_scores(pairs, m)
        assert list(report.genuine_scores) == [d for l, d in expected if l == 0]
        assert list(report.imposter_scores) == [d for l, d in expected if l == 1]


class TestGarAtFar:
    def test_hand_enumeration(self):
        report = VerificationReport((0.1, 0.2, 0.9), (0.5, 0.8, 1.0))
        filled = gar_at_far(report, [0.34])
        entry = filled.gar_at_far[0]
        assert entry.threshold == 0.5
        assert entry.achieved_far == pytest.approx(1 / 3)
        assert entry.gar == pytest.approx(2 / 3)

    def test_target_one_accepts_everything(self):
        report = VerificationReport((0.1, 2.5), (0.5, 1.0))
        entry = gar_at_far(report, [1.0]).gar_at_far[0]
        assert entry.gar == 1.0
        assert entry.threshold == 2.5  # the largest observed score

    def test_unreachable_target_accepts_nothing(self):
        report = VerificationReport((0.5, 0.9), (0.1, 0.2))
        entry = gar_at_far(report, [0.01]).gar_at_far[0]
        assert entry.achieved_far == 0.0
        assert entry.gar == 0.0
        assert entry.threshold < 0.1

    def test_matches_brute_force_sweep(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            genuine = tuple(rng.uniform(0, 2, size=rng.integers(3, 40)).tolist())
            imposter = tuple(rng.uniform(0.5, 3, size=rng.integers(3, 40)).tolist())
            report = VerificationReport(genuine, imposter)
            for target in (0.01, 0.1, 0.33, 0.9, 1.0):
                entry = gar_at_far(report, [target]).gar_at_far[0]
                thr, far, gar = oracle_gar_far(genuine, imposter, target)
                assert (entry.threshold, entry.achieved_far, entry.gar) == (thr, far, gar)

    def test_achieved_far_never_exceeds_target_and_gar_monotone(self):
        rng = np.random.default_rng(11)
        genuine = tuple(rng.uniform(0, 2, size=25).tolist())
        imposter = tuple(rng.uniform(0, 2, size=25).tolist())
        report = gar_at_far(
            VerificationReport(genuine, imposter), [0.05, 0.1, 0.2, 0.5, 1.0]
        )
        gars = [e.gar for e in report.gar_at_far]
        for e in report.gar_at_far:
            assert e.achieved_far <= e.target_far
        assert gars == sorted(gars)

    def test_empty_scores_rejected(self):
        with pytest.raises(ProtocolError):
            gar_at_far(VerificationReport((), (0.5,)), [0.1])

    def test_bad_target_rejected(self):
        report = VerificationReport((0.1,), (0.5,))
        with pytest.raises(ProtocolError):
            gar_at_far(report, [0.0])


# --- inter-class distance ----------------------------------------------------


class TestMeanInterClassDistance:
    def test_identical_embeddings_zero(self):
        m = model.identity_model(2)
        gallery = [(0, np.array([1.0, 1.0])), (1, np.array([1.0, 1.0]))]
        probes = [(0, np.array([1.0, 1.0])), (1, np.array([1.0, 1.0]))]
        assert mean_inter_class_distance(gallery, probes, m, normalize=False) == 0.0

    def test_hand_value_raw(self):
        m = model.identity_model(2)
        gallery = [(0, np.array([0.0, 0.0]))]
        probes = [(1, np.array([3.0, 4.0]))]
        assert mean_inter_class_distance(gallery, probes, m, normalize=False) == 5.0

    def test_matches_brute_force_double_loop(self):
        rng = np.random.default_rng(12)
        m = model.identity_model(6)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            gallery = [(sid, rng.normal(size=6)) for sid in range(n)]
            probes = [(int(rng.integers(n)), rng.normal(size=6)) for _ in range(2 * n)]
            got = mean_inter_class_distance(gallery, probes, m, normalize=False)
            assert got == oracle_mean_inter_class(gallery, probes)

    def test_normalized_matches_brute_force_on_unit_vectors(self):
        rng = np.random.default_rng(13)
        m = model.identity_model(4)
        gallery = [(sid, rng.normal(size=4)) for sid in range(4)]
        probes = [(int(rng.integers(4)), rng.normal(size=4)) for _ in range(8)]

        def unit(v):
            norm = math.sqrt(loop_sum(x * x for x in list(v)))
            return [x / norm for x in list(v)]

        expected = oracle_mean_inter_class(
            [(sid, unit(e)) for sid, e in gallery], [(sid, unit(e)) for sid, e in probes]
        )
        assert mean_inter_class_distance(gallery, probes, m, normalize=True) == expected

    def test_single_subject_rejected(self):
        m = model.identity_model(2)
        with pytest.raises(ProtocolError):
            mean_inter_class_distance(
                [(0, np.zeros(2))], [(0, np.ones(2))], m, normalize=False
            )


# --- extended gallery ----------------------------------------------------------


def easy_test_partition(seed=0):
    ds = generate_synthetic(presets.easy_synth_config(seed))
    return ds, gallery_probe_partition(ds, single_image_gallery=True)


class TestExtendGallery:
    def test_zero_distractors_is_identity(self):
        _, part = easy_test_partition()
        assert extend_gallery(part, []) == part

    def test_hundred_distractors(self):
        _, part = easy_test_partition()
        distractors = [(1000 + k, np.zeros(16)) for k in range(100)]
        extended = extend_gallery(part, distractors)
        assert len(extended.gallery) == len(part.gallery) + 100
        assert extended.probe == part.probe

    def test_id_collision_rejected(self):
        _, part = easy_test_partition()
        with pytest.raises(DataError):
            extend_gallery(part, [(0, np.zeros(16))])

    def test_rank1_never_improves_with_distractors(self):
        ds, part = easy_test_partition()
        m = model.init_model([16, 8], seed=0)
        gallery = [(s.subject_id, model.forward(m, s.embedding)[0]) for s in part.gallery]
        rng = np.random.default_rng(3)
        distractors = [(1000 + k, rng.normal(size=8)) for k in range(50)]
        ext_gallery = gallery + distractors
        base_rankings = []
        ext_rankings = []
        for probe in part.probe:
            emb = model.forward(m, probe.embedding)[0]
            base_rankings.append((probe.subject_id, identify(emb, gallery)))
            ext_rankings.append((probe.subject_id, identify(emb, ext_gallery)))
        base_r1 = cmc_curve(base_rankings).values[0]
        ext_r1 = cmc_curve(ext_rankings).values[0]
        assert ext_r1 <= base_r1


class TestDocumentedErrors:
    @staticmethod
    def intact_only():
        return Dataset(1, (SubjectRecord(0, (Sample(0, Subclass.NON_INJURED, 0, [1.0]),), ()),))

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: CmcCurve(()), ProtocolError, "CMC curve needs at least rank 1"),
            (
                lambda: identify(np.zeros(2), [(0, np.zeros(2)), (1, np.zeros(3))]),
                DimensionMismatchError,
                "embeddings differ in shape: [(2,), (3,)]",
            ),
            (lambda: cmc_curve([]), ProtocolError, "cmc_curve needs at least one probe ranking"),
            (lambda: cmc_curve([(0, [0, 1]), (1, [1])]), ProtocolError, "ranked lists cover differently sized galleries"),
            (lambda: verification_scores([], None), ProtocolError, "verification needs at least one pair"),
            (
                lambda: evaluation.sample_verification_pairs(easy_test_partition()[0], 0, seed=0),
                ProtocolError,
                "need at least one verification pair per label",
            ),
            (
                lambda: evaluation.sample_verification_pairs(TestDocumentedErrors.intact_only(), 5, seed=0),
                ProtocolError,
                "no subject has both subclasses; cannot build pairs",
            ),
            (lambda: evaluation.aggregate_results([], evaluation.EvalConfig()), ProtocolError, "nothing to aggregate"),
            (
                lambda: extend_gallery(easy_test_partition()[1], [(1000, np.zeros(16)), (1000, np.ones(16))]),
                DataError,
                "distractor subject id 1000 collides with the partition",
            ),
        ],
        ids=[
            "empty-cmc", "ragged-gallery", "no-rankings", "ragged-rankings", "no-pairs",
            "zero-pairs-per-label", "no-subject-with-both", "nothing-to-aggregate", "repeated-distractor",
        ],
    )
    def test_message(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


# --- embedding extraction ------------------------------------------------------


class TestExtractEmbeddings:
    def test_empty(self):
        assert extract_embeddings(model.identity_model(3), []) == []

    def test_identity_model(self):
        ds = generate_synthetic(presets.easy_synth_config())
        samples = ds.all_samples()[:5]
        embs = extract_embeddings(model.identity_model(16), samples)
        for s, e in zip(samples, embs):
            assert np.array_equal(e, s.embedding)

    def test_batch_equals_per_sample(self):
        ds = generate_synthetic(presets.easy_synth_config())
        m = model.init_model([16, 8, 4], seed=1)
        samples = ds.all_samples()[:10]
        batch = extract_embeddings(m, samples)
        for s, e in zip(samples, batch):
            single, _ = model.forward(m, s.embedding)
            assert np.array_equal(e, single)

    def test_rows_past_several_chunks_keep_per_sample_bits(self):
        ds = generate_synthetic(replace(presets.easy_synth_config(), n_subjects=129))
        m = model.init_model([16, 8, 4], seed=1)
        samples = ds.all_samples()[:1027]  # two 512-row chunks and three rows
        batch = extract_embeddings(m, samples)
        assert len(batch) == len(samples) == 1027
        single = np.array([model.forward(m, s.embedding)[0] for s in samples])
        assert np.array(batch).tobytes() == single.tobytes()


# --- repeated evaluation -------------------------------------------------------


def tiny_train_cfg(**overrides):
    base = dict(loss="scl", learning_rate=1e-3, epochs=2, batch_size=10, per_subject=2, seed=0)
    base.update(overrides)
    from sclmetric.training import TrainConfig

    return TrainConfig(**base)


class TestRepeatedEvaluation:
    def test_single_repetition_std_zero(self):
        ds = generate_synthetic(presets.easy_synth_config())
        report = repeated_evaluation(
            ds, SplitSpec(seed=0, repetitions=1), tiny_train_cfg(), verification_pairs=5
        )
        assert len(report.repetitions) == 1
        for k in report.ranks:
            assert report.rank_std[k] == 0.0

    def test_five_repetitions_aggregate_matches_recomputation(self):
        ds = generate_synthetic(presets.easy_synth_config())
        report = repeated_evaluation(
            ds, SplitSpec(seed=3, repetitions=5), tiny_train_cfg(), verification_pairs=5
        )
        assert len(report.repetitions) == 5
        for k in report.ranks:
            values = [r.rank_accuracies[k] for r in report.repetitions]
            mean = 0.0
            for v in values:
                mean += v
            mean /= len(values)
            var = 0.0
            for v in values:
                var += (v - mean) ** 2
            std = math.sqrt(var / len(values))
            assert report.rank_mean[k] == mean
            assert report.rank_std[k] == std

    def test_splits_are_subject_disjoint_and_test_sized(self):
        ds = generate_synthetic(presets.easy_synth_config())
        spec = SplitSpec(seed=1, repetitions=3)
        report = repeated_evaluation(ds, spec, tiny_train_cfg(), verification_pairs=5)
        for r in report.repetitions:
            assert r.gallery_size == 3  # 30% of 10 subjects

    def test_ranks_beyond_gallery_dropped(self):
        ds = generate_synthetic(presets.easy_synth_config())
        report = repeated_evaluation(
            ds,
            SplitSpec(seed=0, repetitions=1),
            tiny_train_cfg(),
            ranks=(1, 5, 10),
            verification_pairs=5,
        )
        assert report.ranks == (1,)  # test gallery has 3 subjects


def sequential_mean(values) -> float:
    return losses.ordered_sum(values) / len(values)


def sequential_std(values) -> float:
    squares = np.float_power(np.subtract(values, sequential_mean(values)), 2.0)
    return math.sqrt(losses.ordered_sum(squares) / len(values))


def oracle_aggregate(results, conf, extended_gallery):
    """aggregate_results as one sequential sum per statistic and per key."""
    ranks = tuple(k for k in conf.ranks if all(k in r.rank_accuracies for r in results))
    min_len = min(len(r.cmc.values) for r in results)
    targets = [e.target_far for e in results[0].verification.gar_at_far]
    return evaluation.EvalReport(
        repetitions=tuple(results),
        ranks=ranks,
        rank_mean={k: sequential_mean([r.rank_accuracies[k] for r in results]) for k in ranks},
        rank_std={k: sequential_std([r.rank_accuracies[k] for r in results]) for k in ranks},
        mean_cmc=tuple(sequential_mean([r.cmc.values[k] for r in results]) for k in range(min_len)),
        gar_mean={t: sequential_mean([r.verification.gar_at_far[i].gar for r in results]) for i, t in enumerate(targets)},
        inter_class_mean=sequential_mean([r.mean_inter_class_distance for r in results]),
        extended_gallery=extended_gallery,
        normalized=conf.normalize,
    )


class TestAggregateResults:
    @staticmethod
    def random_results(rng, repetitions, cmc_lengths, targets):
        results = []
        for rep, n in zip(range(repetitions), cmc_lengths):
            values = tuple(np.sort(rng.random(n)).tolist())
            entries = tuple(GarFarEntry(t, *rng.random(3).tolist()) for t in targets)
            results.append(evaluation.RepetitionResult(
                repetition=rep,
                rank_accuracies={k: values[k - 1] for k in (1, 2, 5, 10) if k <= n},
                cmc=CmcCurve(values),
                verification=VerificationReport((), (), entries),
                mean_inter_class_distance=float(rng.random() * 10.0 ** rng.integers(-3, 4)),
                gallery_size=n,
                n_probes=7,
            ))
        return results

    @pytest.mark.parametrize("repetitions", [1, 5])
    @pytest.mark.parametrize("ranks, lengths", [
        ((1, 2, 5, 10), (12, 12)),  # every rank usable, equal CMCs
        ((1, 5, 10), (3, 14)),  # CMCs of different lengths: the common prefix, and the ranks all of them reach
        ((10, 11), (2, 9)),  # ranks beyond the smallest gallery: none usable
    ])
    @pytest.mark.parametrize("targets", [(0.01, 0.1), ()])
    def test_matches_a_sequential_sum_per_statistic_bit_for_bit(self, repetitions, ranks, lengths, targets):
        rng = np.random.default_rng(repetitions)
        conf = evaluation.EvalConfig(ranks=ranks, target_fars=targets)
        for _ in range(30):
            cmc_lengths = rng.integers(lengths[0], lengths[1] + 1, size=repetitions).tolist()
            results = self.random_results(rng, repetitions, cmc_lengths, targets)
            got = evaluation.aggregate_results(results, conf, extended_gallery=True)
            expected = oracle_aggregate(results, conf, extended_gallery=True)
            assert repr(got) == repr(expected)  # repr keeps every float bit and the key order
            numbers = [*got.rank_mean.values(), *got.rank_std.values(), *got.mean_cmc, *got.gar_mean.values()]
            assert all(type(v) is float for v in [*numbers, got.inter_class_mean])


class TestEvaluateModel:
    def test_distractors_flag_and_gallery_growth(self):
        ds = generate_synthetic(presets.easy_synth_config())
        m = model.init_model([16, 8], seed=0)
        distractors = [(1000 + k, np.random.default_rng(k).normal(size=16)) for k in range(10)]
        res = evaluate_model(m, ds, distractors=distractors, verification_pairs=5)
        assert res.gallery_size == ds.n_subjects + 10



class TestEvalOptions:
    """The evaluation options are EvalConfig's fields, checked by EvalConfig."""

    def test_bad_option_fails_before_any_training(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the options were checked")

        monkeypatch.setattr(training, "train", no_training)
        ds = generate_synthetic(presets.easy_synth_config())
        with pytest.raises(ConfigError, match="verification_pairs must be >= 1, got 0"):
            repeated_evaluation(ds, SplitSpec(seed=0, repetitions=2), tiny_train_cfg(), verification_pairs=0)

    def test_rank_zero_is_rejected(self):
        ds = generate_synthetic(presets.easy_synth_config())
        with pytest.raises(ConfigError, match=r"ranks must be nonempty and each >= 1, got \(0, 1\)"):
            evaluate_model(model.init_model([16, 8], seed=0), ds, ranks=(0, 1), verification_pairs=5)

    def test_numpy_ranks_and_targets_are_stored_as_python_numbers(self, tmp_path):
        conf = evaluation.EvalConfig(ranks=np.array([1, 2]), target_fars=np.array([0.01, 0.1]))
        assert [type(k) for k in conf.ranks] == [int, int] and [type(t) for t in conf.target_fars] == [float, float]
        ds = generate_synthetic(presets.easy_synth_config())
        report = evaluation.evaluate_repetitions(
            ds, SplitSpec(seed=0, repetitions=1), [0], lambda rep, train_ds: model.init_model([16, 8], seed=0),
            conf, distractors=None,
        )
        payload = reporting.eval_report_payload(report)
        assert sorted(payload["gar_mean"]) == ["0.01", "0.1"] and payload["ranks"] == [1, 2]
        reporting.write_json_report(payload, tmp_path / "report.json")

    @pytest.mark.parametrize("ranks", [(1.5,), (1, 2.0), (np.float64(3.0),)])
    def test_non_integral_rank_is_rejected(self, ranks):
        with pytest.raises(ConfigError, match=r"^ranks must be integers, got \("):
            evaluation.EvalConfig(ranks=ranks)

    def test_fields_are_declared_only_in_eval_config(self):
        names = {"ranks", "target_fars", "normalize", "verification_pairs", "normalized"}
        for fn in (evaluate_model, repeated_evaluation, evaluation.evaluate_repetitions, evaluation.aggregate_results):
            assert names.isdisjoint(inspect.signature(fn).parameters), fn.__name__


# --- whole-path differential test ------------------------------------------------


def oracle_unit(v):
    norm = math.sqrt(loop_sum(x * x for x in list(v)))
    return [x / norm for x in list(v)] if norm > 0.0 else list(v)


def oracle_evaluate(params, test_ds, distractors, ranks, target_fars, normalize, n_pairs, pair_seed):
    """evaluate_model re-derived from the scalar oracles, one pair at a time."""

    def emb(x):
        return model.forward(params, x)[0]

    part = gallery_probe_partition(test_ds, single_image_gallery=True)
    gallery = [(s.subject_id, emb(s.embedding)) for s in part.gallery]
    extended = gallery + [(sid, emb(e)) for sid, e in distractors]
    probes = [(s.subject_id, emb(s.embedding)) for s in part.probe]
    cmc = oracle_cmc([(sid, oracle_identify(p, extended)) for sid, p in probes])
    pairs = evaluation.sample_verification_pairs(test_ds, n_pairs, pair_seed)
    scores = [(p.label, oracle_distance(emb(p.first.embedding), emb(p.second.embedding))) for p in pairs]
    genuine = [d for label, d in scores if label == 0]
    imposter = [d for label, d in scores if label == 1]
    unit = oracle_unit if normalize else list
    icd = oracle_mean_inter_class([(sid, unit(e)) for sid, e in gallery], [(sid, unit(e)) for sid, e in probes])
    return {
        "cmc": cmc,
        "ranks": {k: cmc[k - 1] for k in ranks if k <= len(cmc)},
        "genuine": genuine,
        "imposter": imposter,
        "gar_at_far": [oracle_gar_far(genuine, imposter, t) for t in target_fars],
        "icd": icd,
    }


def grid_dataset(rng, subject_ids, dim, n_non=2, n_inj=3, zero_gallery_row=False):
    """Integer-grid embeddings, so that many distances tie exactly."""
    samples = []
    for sid in subject_ids:
        for subclass, count in ((Subclass.NON_INJURED, n_non), (Subclass.INJURED, n_inj)):
            for k in range(count):
                samples.append(Sample(sid, subclass, k, rng.integers(-2, 3, size=dim).astype(float)))
    if zero_gallery_row:  # the first subject's enrolled image
        samples[0] = Sample(subject_ids[0], Subclass.NON_INJURED, 0, np.zeros(dim))
    return Dataset.from_samples(dim, samples)


class TestEvaluateModelDifferential:
    """evaluate_model equals the scalar oracles exactly (``==``), on inputs
    built to hit distance ties, duplicated distractors and zero-norm rows, and
    with distance blocks small enough to split every matrix."""

    RANKS = (1, 2, 5, 10, 100)
    TARGETS = (0.01, 0.1, 0.25, 0.5, 1.0)

    @pytest.mark.parametrize("block", [None, 1, 7])
    @pytest.mark.parametrize("trial", range(6))
    def test_matches_scalar_oracles(self, monkeypatch, block, trial):
        if block is not None:
            monkeypatch.setattr(evaluation, "_BLOCK_ELEMENTS", block)
        rng = np.random.default_rng(100 + trial)
        dim = int(rng.integers(2, 5))
        subject_ids = [int(s) for s in rng.choice(np.arange(5, 60), size=int(rng.integers(3, 9)), replace=False)]
        ds = grid_dataset(rng, subject_ids, dim, zero_gallery_row=trial % 2 == 0)
        # Distractors copy enrolled images, under ids both below and above the
        # true subjects', so that exact ties fall on either side of the id order.
        enrolled = [r.non_injured[0].embedding for r in ds.subjects]
        distractors = [(k, enrolled[k % len(enrolled)]) for k in range(3)]
        distractors += [(1000 + k, rng.integers(-2, 3, size=dim).astype(float)) for k in range(3)]
        params = model.identity_model(dim) if trial < 3 else model.init_model([dim, 5, 3], seed=trial)
        normalize = trial % 3 != 2
        res = evaluate_model(
            params, ds, ranks=self.RANKS, target_fars=self.TARGETS, normalize=normalize,
            verification_pairs=12, distractors=distractors, pair_seed=trial,
        )
        expected = oracle_evaluate(params, ds, distractors, self.RANKS, self.TARGETS, normalize, 12, trial)
        assert list(res.cmc.values) == expected["cmc"]
        assert res.rank_accuracies == expected["ranks"]
        assert list(res.verification.genuine_scores) == expected["genuine"]
        assert list(res.verification.imposter_scores) == expected["imposter"]
        got = [(e.threshold, e.achieved_far, e.gar) for e in res.verification.gar_at_far]
        assert got == expected["gar_at_far"]
        assert res.mean_inter_class_distance == expected["icd"]

    def test_zero_norm_row_survives_normalization(self):
        m = model.identity_model(3)
        gallery = [(0, np.zeros(3)), (1, np.array([3.0, 0.0, 4.0]))]
        probes = [(0, np.array([1.0, 2.0, 2.0])), (1, np.zeros(3)), (2, np.array([0.0, -2.0, 0.0]))]
        expected = oracle_mean_inter_class(
            [(sid, oracle_unit(e)) for sid, e in gallery], [(sid, oracle_unit(e)) for sid, e in probes]
        )
        assert mean_inter_class_distance(gallery, probes, m, normalize=True) == expected

    def test_multi_image_gallery_with_ties(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            dim = int(rng.integers(1, 4))
            gallery = [
                (int(rng.integers(0, 6)), rng.integers(-2, 3, size=dim).astype(float))
                for _ in range(int(rng.integers(1, 15)))
            ]
            gallery.append(gallery[0])  # an exact duplicate image
            probe = rng.integers(-2, 3, size=dim).astype(float)
            assert identify(probe, gallery) == oracle_identify(probe, gallery)
