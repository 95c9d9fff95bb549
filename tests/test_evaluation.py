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
from hypothesis import given, settings
from hypothesis import strategies as st

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
    subject_split,
)
from sclmetric.errors import ConfigError, DataError, DimensionMismatchError, NumericError, ProtocolError
from sclmetric.evaluation import (
    CmcCurve,
    GarFarEntry,
    VerificationReport,
    cmc_curve,
    evaluate_model,
    extend_gallery,
    gar_at_far,
    identify,
    mean_inter_class_distance,
    rank_k_accuracy,
    repeated_evaluation,
)

import exact_identification
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
            *[
                (
                    lambda g=g, p=p, normalize=normalize: mean_inter_class_distance(
                        g, p, model.identity_model(2), normalize
                    ),
                    ProtocolError,
                    "inter-class distance needs at least 2 subjects",
                )
                for g, p in (([], [(0, np.zeros(2)), (1, np.ones(2))]), ([(0, np.zeros(2)), (1, np.ones(2))], []))
                for normalize in (True, False)
            ],
        ],
        ids=[
            "empty-cmc", "ragged-gallery", "no-rankings", "ragged-rankings",
            "zero-pairs-per-label", "no-subject-with-both", "nothing-to-aggregate", "repeated-distractor",
            *[f"no-inter-class-{side}-{norm}" for side in ("gallery", "probes") for norm in ("normalized", "raw")],
        ],
    )
    def test_message(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


# --- embedding extraction ------------------------------------------------------


class TestForwardRows:
    def test_empty(self):
        assert evaluation._forward_rows(model.identity_model(3), []).size == 0

    def test_identity_model(self):
        ds = generate_synthetic(presets.easy_synth_config())
        samples = ds.all_samples()[:5]
        embs = evaluation._forward_rows(model.identity_model(16), [s.embedding for s in samples])
        for s, e in zip(samples, embs):
            assert np.array_equal(e, s.embedding)

    def test_batch_equals_per_sample(self):
        ds = generate_synthetic(presets.easy_synth_config())
        m = model.init_model([16, 8, 4], seed=1)
        samples = ds.all_samples()[:10]
        batch = evaluation._forward_rows(m, [s.embedding for s in samples])
        for s, e in zip(samples, batch):
            single, _ = model.forward(m, s.embedding)
            assert np.array_equal(e, single)

    def test_rows_past_several_chunks_keep_per_sample_bits(self):
        ds = generate_synthetic(replace(presets.easy_synth_config(), n_subjects=129))
        m = model.init_model([16, 8, 4], seed=1)
        samples = ds.all_samples()[:1027]  # two 512-row chunks and three rows
        batch = evaluation._forward_rows(m, [s.embedding for s in samples])
        assert len(batch) == len(samples) == 1027
        single = np.array([model.forward(m, s.embedding)[0] for s in samples])
        assert batch.tobytes() == single.tobytes()


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

    def test_network_embeds_each_test_row_and_distractor_once(self, monkeypatch):
        ds = generate_synthetic(presets.easy_synth_config())
        m = model.init_model([16, 8], seed=0)
        distractors = [(1000 + k, np.random.default_rng(k).normal(size=16)) for k in range(10)]
        rows = []
        forward = model.forward

        def counting_forward(params, x, *args, **kwargs):
            rows.append(len(x))
            return forward(params, x, *args, **kwargs)

        monkeypatch.setattr(model, "forward", counting_forward)
        evaluate_model(m, ds, distractors=distractors)
        assert sum(rows) == len(ds.all_samples()) + len(distractors)

    @staticmethod
    def diverged(kind):
        """The hard preset's untrained 16-32-16 model with its last layer broken."""
        m = model.init_model([16, 32, 16], seed=0)
        vector, last = m.vector.copy(), m.layers[-1]
        if kind == "huge-weights":  # finite outputs whose squared distances overflow
            vector[-last.bias.size - last.weight.size : -last.bias.size] *= 1e155
        else:
            vector[-1] = {"nan-bias": np.nan, "inf-bias": np.inf}[kind]
        return m.with_vector(vector)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["nan-bias", "inf-bias", "huge-weights"])
    def test_diverged_model_is_a_numeric_error(self, kind):
        _, test_ds = subject_split(generate_synthetic(presets.hard_synth_config(0)), SplitSpec(), 0)
        with pytest.raises(NumericError, match="^non-finite distance"):
            evaluate_model(self.diverged(kind), test_ds)



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


# --- screened identification ranks ------------------------------------------------


@st.composite
def identification_inputs(draw):
    """Probe and gallery matrices (enrolled subjects, then distractors) built to
    defeat a loose rank screen: exact ties, duplicate images under ids on both
    sides of the true id, cancellation at a 1e150 offset, mixed and subnormal
    scales, and squared norms above 2^1000, at d = 1 to 512."""
    family = draw(st.sampled_from(["normal", "grid", "offset", "scales", "subnormal", "underflow", "huge"]))
    dim = draw(st.sampled_from([1, 2, 3, 8, 512]))
    n_enrolled, n_distractors, n_probes = draw(st.integers(1, 8)), draw(st.integers(0, 4)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = n_enrolled + n_distractors + n_probes
    grid = rng.integers(-2, 3, size=(rows, dim)).astype(float)
    x = {
        "normal": lambda: rng.normal(size=(rows, dim)),
        "grid": lambda: grid,
        "offset": lambda: 1e150 * (1.0 + 1e-3 * grid),
        "scales": lambda: rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(-150, 150, size=(rows, 1)),
        "subnormal": lambda: grid * 10.0 ** rng.choice([-323.0, -310.0, -160.0], size=(rows, 1)),
        "underflow": lambda: rng.normal(size=(rows, dim)) * 1e-161,  # squares round to few subnormal bits
        "huge": lambda: rng.normal(size=(rows, dim)) * 1e151,
    }[family]()
    for _ in range(draw(st.integers(0, 4))):  # duplicate images, gallery or probe
        x[rng.integers(rows)] = x[rng.integers(rows)]
    gallery_sids = rng.permutation(100)[: n_enrolled + n_distractors]
    probe_sids = rng.choice(gallery_sids[:n_enrolled], size=n_probes)
    return x[-n_probes:], probe_sids, x[:-n_probes], gallery_sids


class TestScreenedIdentification:
    """_identification_cmc, which decides most comparisons from a BLAS
    estimate, equals the exact ranker it replaced (tests/exact_identification.py)
    on every input, at block sizes that split the probes every way."""

    @pytest.mark.parametrize("block", [None, 1, 7])
    @settings(max_examples=80, deadline=None)
    @given(inputs=identification_inputs())
    def test_matches_the_exact_ranker(self, block, inputs):
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(evaluation, "_BLOCK_ELEMENTS", block)
            got = evaluation._identification_cmc(*inputs)
        assert got == exact_identification.identification_cmc(*inputs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("block", [None, 1, 7])
    @pytest.mark.parametrize("where", ["probe", "gallery", "distractor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e200])
    def test_a_non_finite_distance_is_a_numeric_error(self, monkeypatch, block, where, value):
        if block is not None:
            monkeypatch.setattr(evaluation, "_BLOCK_ELEMENTS", block)
        rng = np.random.default_rng(3)
        probes, gallery = rng.normal(size=(9, 4)), rng.normal(size=(6, 4))  # gallery rows 4, 5 are distractors
        probe_sids, gallery_sids = rng.integers(0, 4, size=9), np.arange(6)
        row = {"probe": probes[5], "gallery": gallery[2], "distractor": gallery[5]}[where]
        row[1] = value  # 1e200 is finite, but its squared distances overflow
        inputs = (probes, probe_sids, gallery, gallery_sids)
        for rank in (evaluation._identification_cmc, exact_identification.identification_cmc):
            with pytest.raises(NumericError, match="^non-finite distance"):
                rank(*inputs)

    def test_only_the_true_columns_are_computed_exactly_on_separated_data(self, monkeypatch):
        rng = np.random.default_rng(8)
        probes, gallery = rng.normal(size=(300, 32)), rng.normal(size=(40, 32))
        probe_sids, gallery_sids = rng.integers(0, 40, size=300), rng.permutation(40)
        exact_rows = []
        distances = evaluation._distances

        def counting(a, b):
            exact_rows.append(math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])))
            return distances(a, b)

        monkeypatch.setattr(evaluation, "_distances", counting)
        got = evaluation._identification_cmc(probes, probe_sids, gallery, gallery_sids)
        assert sum(exact_rows) == 300
        assert got == exact_identification.identification_cmc(probes, probe_sids, gallery, gallery_sids)
