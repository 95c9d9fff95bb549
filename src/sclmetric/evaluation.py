"""Identification and verification evaluation over gallery/probe protocols.

Matching uses the plain (non-squared) Euclidean distance; since training
distances are squared, rankings are identical either way (the square root
is monotone).  Galleries are sequences of ``(subject_id, embedding)``
pairs.  The protocol's gallery holds one image per subject and enrolls
every probe's subject; only :func:`identify` takes several images of a
subject, and reduces them to their minimum distance.

Every distance comes from one matrix kernel, :func:`_distances`, the
square root of :func:`sclmetric.losses.squared_distances` (left-to-right
float64 accumulation over the feature axis, the rule of
:func:`sclmetric.losses.squared_euclidean`).  It serves the (gallery,
probe) block for the inter-class statistic, the paired rows of
verification, the row norms of normalization, and identification,
computing large blocks a fixed number of rows at a time.  Identification
only needs each gallery column's order against the probe's true column,
so a BLAS estimate with a certified error bound decides most of those
comparisons (:func:`_screened_ranks`), and the kernel computes each
probe's true distance and every comparison the bound leaves open.  Only
counts leave the estimate, so the ranks do not depend on the BLAS build or
its thread count.
Each sample list is embedded by :func:`sclmetric.model.forward` in 512-row chunks.

Deterministic tie/ordering contracts (tests hold independent scalar
implementations to them bit-exactly):

* subjects rank by (distance, subject_id) ascending; a probe's rank is
  ``#{d < d_true} + #{d == d_true and sid < sid_true}``, counted without
  sorting;
* CMC values and accept rates are plain ``count / n`` fractions;
* FAR and GAR at a threshold are counts of scores ``<=`` it, read off the
  sorted scores with a right-sided binary search;
* :func:`gar_at_far` thresholds come from the observed score grid (the
  union of genuine and imposter scores) - the largest grid value whose
  empirical FAR does not exceed the target, with no interpolation; if even
  the smallest score overshoots the target, the reported operating point
  accepts nothing (FAR 0, GAR 0);
* :func:`mean_inter_class_distance` sums left to right over gallery entries
  (outer) and probes (inner), skipping same-subject pairs, with
  :func:`sclmetric.losses.ordered_sum` carried across row blocks (never
  numpy's pairwise ``np.sum``), then divides once by the pair count;
* aggregate means and stds (population, ddof 0) come from the left-to-right
  column sums of :func:`sclmetric.losses.ordered_sum` over repetitions.

:func:`repeated_evaluation` runs the full protocol: per repetition a
subject-disjoint 70/30 split, training on the train side, then
identification (single-image gallery), verification on balanced sampled
pairs, and the inter-class separation statistic on the test side.  Its
split -> evaluate -> aggregate path, :func:`evaluate_repetitions`, also
scores a fixed model, so a trained checkpoint evaluated on repetition R
reproduces that repetition's protocol result.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from itertools import accumulate

import numpy as np

from . import mining, model, training
from .dataset import Dataset, GalleryProbePartition, Sample, SplitSpec, Subclass, gallery_probe_partition, subject_split
from .errors import ConfigError, DataError, DimensionMismatchError, NumericError, ProtocolError, check_integer_fields
from .losses import ordered_sum, squared_distances

# Distance blocks hold at most this many float64 entries (1 MiB); larger
# cross blocks are computed a slice of rows at a time.
_BLOCK_ELEMENTS = 1 << 17
# The unit roundoff of float64, and the squared norm above which an
# identification block is ranked exactly, since its BLAS estimate could overflow.
_UNIT = 2.0**-53
_NORM_LIMIT = 2.0**1000


@dataclass(frozen=True)
class CmcCurve:
    """Cumulative match rates by rank; ``values[k-1]`` is rank-k accuracy."""

    values: tuple[float, ...]
    n_unenrolled: int = 0

    def __post_init__(self):
        if not self.values:
            raise ProtocolError("CMC curve needs at least rank 1")


@dataclass(frozen=True)
class GarFarEntry:
    target_far: float
    achieved_far: float
    gar: float
    threshold: float


@dataclass(frozen=True)
class VerificationReport:
    genuine_scores: tuple[float, ...]
    imposter_scores: tuple[float, ...]
    gar_at_far: tuple[GarFarEntry, ...] = field(default=())


@dataclass(frozen=True)
class RepetitionResult:
    repetition: int
    rank_accuracies: dict
    cmc: CmcCurve
    verification: VerificationReport
    mean_inter_class_distance: float
    gallery_size: int
    n_probes: int


@dataclass(frozen=True)
class EvalReport:
    """Per-repetition results plus mean/std aggregation and protocol flags."""

    repetitions: tuple[RepetitionResult, ...]
    ranks: tuple[int, ...]
    rank_mean: dict
    rank_std: dict
    mean_cmc: tuple[float, ...]
    gar_mean: dict
    inter_class_mean: float
    extended_gallery: bool
    normalized: bool


@dataclass(frozen=True)
class EvalConfig:
    """What an evaluation reports: the CMC ranks, the GAR@FAR targets,
    whether the inter-class statistic unit-normalizes embeddings, and how
    many verification pairs are sampled per label.

    These fields are declared here only: :func:`evaluate_model` and
    :func:`repeated_evaluation` take them as keyword options and build an
    ``EvalConfig`` from them before any work, so its checks run first.
    """

    ranks: tuple[int, ...] = (1, 5, 10)
    target_fars: tuple[float, ...] = (0.01, 0.1)
    normalize: bool = True
    verification_pairs: int = 50

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(self.ranks))
        check_integer_fields(self)
        object.__setattr__(self, "ranks", tuple(map(int, self.ranks)))
        object.__setattr__(self, "target_fars", tuple(map(float, self.target_fars)))
        if not self.ranks or any(k < 1 for k in self.ranks):
            raise ConfigError(f"ranks must be nonempty and each >= 1, got {self.ranks}")
        if not all(0.0 < far <= 1.0 for far in self.target_fars):
            raise ConfigError(f"target FARs must be in (0, 1], got {self.target_fars}")
        if self.verification_pairs < 1:
            raise ConfigError(f"verification_pairs must be >= 1, got {self.verification_pairs}")


_FORWARD_CHUNK = 512


def _forward_rows(m: model.ModelParams, vectors) -> np.ndarray:
    """The network outputs of equal-length input vectors, as one row batch.
    Rows go through in chunks so that no more than one chunk's activation
    trace is alive; a row gets the same bits in any batch."""
    x = _matrix(vectors)
    if not len(x):
        return x
    return np.concatenate([model.forward(m, x[i : i + _FORWARD_CHUNK])[0] for i in range(0, len(x), _FORWARD_CHUNK)])


def extract_embeddings(m: model.ModelParams, samples) -> list[np.ndarray]:
    """Map samples through the network, preserving order."""
    return list(_forward_rows(m, [s.embedding for s in samples]))


def _matrix(vectors) -> np.ndarray:
    """Stack equal-length vectors into an (n, d) float64 matrix."""
    rows = [np.asarray(v, dtype=np.float64) for v in vectors]
    if not rows:
        return np.empty((0, 0))
    if any(r.ndim != 1 or r.shape != rows[0].shape for r in rows):
        raise DimensionMismatchError(f"embeddings differ in shape: {sorted({r.shape for r in rows})}")
    return np.array(rows).reshape(len(rows), -1)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``a`` and ``b``, broadcast
    over every axis but the last, with the bits of ``squared_euclidean``.
    Raises :class:`NumericError` if a squared distance is not finite: an
    embedding is NaN or infinite, or a distance overflows."""
    squared = squared_distances(a, b)
    if not np.isfinite(squared).all():
        raise NumericError("non-finite distance: an embedding is not finite or a squared distance overflows")
    return np.sqrt(squared, out=squared)


def _cross_blocks(a: np.ndarray, b: np.ndarray):
    """Yield ``(start, block)`` with ``block[i, j]`` the distance from
    ``a[start + i]`` to ``b[j]``, a bounded number of rows at a time."""
    if len(a) == 0 or len(b) == 0:
        return
    step = max(1, _BLOCK_ELEMENTS // len(b))
    bt = b[None, :, :]
    for start in range(0, len(a), step):
        yield start, _distances(a[start : start + step, None, :], bt)


def _normalize(x: np.ndarray) -> np.ndarray:
    """Divide each row by its Euclidean norm; zero-norm rows stay unchanged."""
    norms = _distances(x, np.zeros(x.shape[1]))
    return x / np.where(norms > 0.0, norms, 1.0)[:, None]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in a sorted array.

    (``np.unique`` would do, but its first call imports ``numpy.ma``.)
    """
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def identify(probe_embedding, gallery) -> list[int]:
    """Rank gallery subjects by ascending distance to the probe.

    ``gallery`` is a sequence of (subject_id, embedding); multiple entries
    per subject are reduced by minimum distance.  Ties break by ascending
    subject_id, so the result is a deterministic permutation of the
    distinct gallery subject ids.
    """
    if not gallery:
        raise ProtocolError("identify needs a nonempty gallery")
    sids = np.array([sid for sid, _ in gallery])
    order = np.argsort(sids, kind="stable")
    starts = _run_starts(sids[order])
    d = _distances(_matrix([probe_embedding]), _matrix([emb for _, emb in gallery])[order])
    subjects, d = sids[order][starts], np.minimum.reduceat(d, starts)
    return subjects[np.lexsort((subjects, d))].tolist()


def _curve(hits, n: int, unenrolled: int) -> CmcCurve:
    """The CMC from per-rank hit counts: cumulative ``count / n``."""
    return CmcCurve(tuple(c / n for c in accumulate(hits)), unenrolled)


def cmc_curve(rankings) -> CmcCurve:
    """Fraction of probes whose true subject appears within each rank.

    ``rankings`` pairs each probe's true subject with its ranked id list;
    all lists must cover the same gallery.  Probes whose subject is not
    enrolled count as never matched and are tallied in ``n_unenrolled``.
    """
    rankings = list(rankings)
    if not rankings:
        raise ProtocolError("cmc_curve needs at least one probe ranking")
    gallery_size = len(rankings[0][1])
    hits = [0] * gallery_size
    unenrolled = 0
    for true_subject, ranked in rankings:
        if len(ranked) != gallery_size:
            raise ProtocolError("ranked lists cover differently sized galleries")
        if true_subject in ranked:
            hits[ranked.index(true_subject)] += 1
        else:
            unenrolled += 1
    return _curve(hits, len(rankings), unenrolled)


def _identification_cmc(probe_emb, probe_sids, gallery_emb, gallery_sids) -> CmcCurve:
    """The CMC of every probe, ranks counted per block of probes, against a
    gallery that holds one image per subject and enrolls every probe's subject.

    A block is ranked by :func:`_screened_ranks` when every squared norm is
    at most 2^1000, which keeps every squared distance below 2^1003, and
    otherwise exactly, which raises :class:`NumericError` on a non-finite
    distance."""
    if len(probe_emb) == 0:
        raise ProtocolError("no test subject has both intact and injured samples, so there is no probe")
    order = np.argsort(gallery_sids)
    gallery = gallery_emb[order]
    true_col = np.searchsorted(gallery_sids[order], probe_sids)
    # A non-finite row makes these non-finite and sends its block to the
    # exact path, which gives the warnings and the error.
    with np.errstate(all="ignore"):
        e_true = squared_distances(probe_emb, gallery[true_col])
        p_norms, g_norms = (np.einsum("ij,ij->i", x, x) for x in (probe_emb, gallery))
    screen = bool((g_norms <= _NORM_LIMIT).all())
    step = max(1, _BLOCK_ELEMENTS // len(gallery))
    ranks = []
    for start in range(0, len(probe_emb), step):
        block = slice(start, start + step)
        probes, col = probe_emb[block], true_col[block]
        if screen and (p_norms[block] <= _NORM_LIMIT).all():
            ranks.append(_screened_ranks(probes, gallery, col, e_true[block], p_norms[block], g_norms))
        else:
            d = _distances(probes[:, None, :], gallery[None, :, :])
            d_true = np.take_along_axis(d, col[:, None], axis=1)
            ranks.append(np.count_nonzero(_precedes(d, d_true, np.arange(len(gallery)), col[:, None]), axis=1))
    hits = np.bincount(np.concatenate(ranks), minlength=len(gallery)).tolist()
    return _curve(hits, len(probe_emb), 0)


def _precedes(d, d_true, columns, true_columns) -> np.ndarray:
    """Whether each gallery column ranks before the probe's true column, by
    ``(distance, subject_id)``; the gallery is sorted by subject id."""
    return (d < d_true) | ((d == d_true) & (columns < true_columns))


def _screened_ranks(probes, gallery, col, e_true, p_norms, g_norms) -> np.ndarray:
    """Each probe's rank, with most comparisons decided by the BLAS estimate
    ``s = |p|^2 + |g|^2 - 2 p.g`` of each squared distance ``e``.

    For any summation order, FMA included, a float64 inner product of length
    n is off by at most gamma_n |x|.|y|, with gamma_n = nu / (1 - nu) and
    u = 2^-53 (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., section 3.1).  That bounds both ``s`` and the left-to-right
    ``e`` within about 4 gamma_(d+2) (|p|^2 + |g|^2) of the real distance;
    ``bound`` allows 16 gamma_(d+8) of it, plus ``tiny`` for underflow.  A
    column is certainly before the true one when ``s + bound`` lies below
    ``e_true (1 - 16u) - tiny``, and certainly after it when ``s - bound``
    lies above ``e_true (1 + 16u) + tiny``.  The 16u band keeps the two
    square roots apart, since unequal squares can round to one root, which
    is a tie the column breaks.  Every other entry, the true column among
    them, is computed exactly, so only counts leave the estimate.
    """
    n = gallery.shape[1] + 8
    tiny = n * 2.0**-1020
    bound = p_norms[:, None] + g_norms
    s = np.matmul(probes, gallery.T)
    s *= -2.0
    s += bound
    bound *= 16.0 * n * _UNIT / (1.0 - n * _UNIT)
    bound += tiny
    before = s + bound < (e_true * (1.0 - 16.0 * _UNIT) - tiny)[:, None]
    undecided = ~before & (s - bound <= (e_true * (1.0 + 16.0 * _UNIT) + tiny)[:, None])
    rows, cols = np.nonzero(undecided)
    exact = _precedes(_distances(probes[rows], gallery[cols]), np.sqrt(e_true)[rows], cols, col[rows])
    return np.count_nonzero(before, axis=1) + np.bincount(rows[exact], minlength=len(probes))


def rank_k_accuracy(curve: CmcCurve, k: int) -> float:
    if not 1 <= k <= len(curve.values):
        raise ProtocolError(f"rank {k} outside 1..{len(curve.values)}")
    return curve.values[k - 1]


def _sweep(report: VerificationReport):
    """The sorted score grid with FAR and GAR at each grid threshold."""
    if not report.genuine_scores or not report.imposter_scores:
        raise ProtocolError("gar_at_far needs both genuine and imposter scores")
    genuine = np.sort(np.asarray(report.genuine_scores, dtype=np.float64))
    imposter = np.sort(np.asarray(report.imposter_scores, dtype=np.float64))
    scores = np.sort(np.concatenate([genuine, imposter]))
    grid = scores[_run_starts(scores)]
    far = np.searchsorted(imposter, grid, side="right") / len(imposter)
    gar = np.searchsorted(genuine, grid, side="right") / len(genuine)
    return grid, far, gar


def gar_at_far(report: VerificationReport, target_fars) -> VerificationReport:
    """Fill the GAR@FAR table at the requested target rates.

    Acceptance rule: distance <= threshold.  For each target the threshold
    is the largest observed score whose empirical FAR stays within the
    target (conservative, no interpolation); the achieved FAR is reported
    alongside.
    """
    grid, far, gar = _sweep(report)
    entries = []
    for target in target_fars:
        if not 0.0 < target <= 1.0:
            raise ProtocolError(f"target FAR must be in (0, 1], got {target}")
        i = int(np.searchsorted(far, target, side="right")) - 1
        if i < 0:
            threshold = math.nextafter(float(grid[0]), -math.inf)
            entries.append(GarFarEntry(target, 0.0, 0.0, threshold))
        else:
            entries.append(GarFarEntry(target, float(far[i]), float(gar[i]), float(grid[i])))
    return replace(report, gar_at_far=tuple(entries))


def far_gar_sweep(report: VerificationReport):
    """(threshold, far, gar) at every observed score, for curve export."""
    grid, far, gar = _sweep(report)
    return list(zip(grid.tolist(), far.tolist(), gar.tolist()))


def _inter_class_mean(gallery_sids, gallery_emb, probe_sids, probe_emb, normalize: bool) -> float:
    if normalize:
        gallery_emb = _normalize(gallery_emb)
        probe_emb = _normalize(probe_emb)
    total = 0.0
    count = 0
    for start, block in _cross_blocks(gallery_emb, probe_emb):
        cross = gallery_sids[start : start + len(block), None] != probe_sids[None, :]
        total = ordered_sum(block[cross], total)
        count += int(np.count_nonzero(cross))
    if count == 0:
        raise ProtocolError("inter-class distance needs at least 2 subjects")
    return total / count


def mean_inter_class_distance(gallery, probes, m: model.ModelParams, normalize: bool) -> float:
    """Mean distance between each subject's gallery entries and all other
    subjects' probes.

    ``gallery`` and ``probes`` are (subject_id, embedding) sequences; all
    embeddings are mapped through the model, optionally unit-normalized,
    and the mean runs over cross-subject pairs in (gallery, probe) order.
    """
    gallery = list(gallery)
    probes = list(probes)
    g_emb = _forward_rows(m, [emb for _, emb in gallery])
    p_emb = _forward_rows(m, [emb for _, emb in probes])
    g_sids = np.array([sid for sid, _ in gallery])
    p_sids = np.array([sid for sid, _ in probes])
    return _inter_class_mean(g_sids, g_emb, p_sids, p_emb, normalize)


def extend_gallery(partition: GalleryProbePartition, distractors) -> GalleryProbePartition:
    """Merge distractor subjects (one image each) into the gallery.

    ``distractors`` is a sequence of (subject_id, embedding) whose ids must
    not collide with any subject already in the partition; probes are left
    untouched.
    """
    existing = {s.subject_id for s in partition.gallery} | {s.subject_id for s in partition.probe}
    extra = []
    for subject_id, emb in distractors:
        if subject_id in existing:
            raise DataError(f"distractor subject id {subject_id} collides with the partition")
        existing.add(subject_id)
        extra.append(Sample(subject_id, Subclass.NON_INJURED, 0, emb))
    return replace(partition, gallery=partition.gallery + tuple(extra))


def _pair_rows(ds: Dataset, n_per_label: int, seed: int):
    """The genuine and the imposter ``(first, second)`` rows of a balanced
    verification sample (n of each) into ``ds.all_samples()``, mined with
    replacement so small test sets still fill up."""
    if n_per_label < 1:
        raise ProtocolError("need at least one verification pair per label")
    eligible = sum(1 for r in ds.subjects if r.non_injured and r.injured)
    if eligible == 0:
        raise ProtocolError("no subject has both subclasses; cannot build pairs")
    per_subject = -(-n_per_label // eligible)  # ceil
    return tuple(rows[:n_per_label] for rows in mining.cl_rows(ds, per_subject, seed))


def sample_verification_pairs(ds: Dataset, n_per_label: int, seed: int):
    """The pairs of :func:`_pair_rows` as ``ContrastivePair``s, genuine first."""
    samples = ds.all_samples()
    return [
        mining.ContrastivePair(samples[a], samples[b], label)
        for label, rows in enumerate(_pair_rows(ds, n_per_label, seed))
        for a, b in rows.tolist()
    ]


def evaluate_model(
    params: model.ModelParams,
    test_ds: Dataset,
    *,
    repetition: int = 0,
    distractors=None,
    pair_seed: int = 0,
    **options,
) -> RepetitionResult:
    """Single-split evaluation of a fixed model on a test dataset.

    ``options`` are :class:`EvalConfig` fields.  Identification uses a
    single-image gallery (optionally extended with distractors); requested
    ranks beyond the gallery size are dropped.  The inter-class statistic is
    computed on the unextended gallery so that it stays comparable across
    runs.  The gallery, the probes and the test rows the pairs index are each embedded once.
    """
    conf = EvalConfig(**options)
    part = gallery_probe_partition(test_ds, single_image_gallery=True)
    eval_part = extend_gallery(part, distractors) if distractors else part
    gallery_sids = np.array([s.subject_id for s in eval_part.gallery])
    probe_sids = np.array([s.subject_id for s in part.probe])
    gallery_emb = _forward_rows(params, [s.embedding for s in eval_part.gallery])
    probe_emb = _forward_rows(params, [s.embedding for s in part.probe])

    curve = _identification_cmc(probe_emb, probe_sids, gallery_emb, gallery_sids)
    accuracies = {k: rank_k_accuracy(curve, k) for k in conf.ranks if k <= len(curve.values)}

    pairs = _pair_rows(test_ds, conf.verification_pairs, pair_seed)
    rows = _forward_rows(params, [s.embedding for s in test_ds.all_samples()])
    genuine, imposter = (tuple(_distances(rows[p[:, 0]], rows[p[:, 1]]).tolist()) for p in pairs)
    verification = gar_at_far(VerificationReport(genuine, imposter), conf.target_fars)

    # extend_gallery appends distractors, so the base gallery leads.
    base = len(part.gallery)
    icd = _inter_class_mean(gallery_sids[:base], gallery_emb[:base], probe_sids, probe_emb, conf.normalize)

    return RepetitionResult(
        repetition=repetition,
        rank_accuracies=accuracies,
        cmc=curve,
        verification=verification,
        mean_inter_class_distance=icd,
        gallery_size=len(curve.values),
        n_probes=len(probe_emb),
    )


def _column_stats(rows):
    """The column means and population stds (ddof 0) of a (repetition x value) table."""
    table = np.array(rows, dtype=np.float64)
    mean = ordered_sum(table, axis=0) / len(table)
    # float_power calls C pow, as Python's ``(v - mean) ** 2`` does.
    std = np.sqrt(ordered_sum(np.float_power(table - mean, 2.0), axis=0) / len(table))
    return mean.tolist(), std.tolist()


def aggregate_results(results, conf: EvalConfig, *, extended_gallery: bool = False) -> EvalReport:
    """Mean/std aggregation of repetition results (population std, ddof 0)."""
    results = tuple(results)
    if not results:
        raise ProtocolError("nothing to aggregate")
    ranks = tuple(k for k in conf.ranks if all(k in r.rank_accuracies for r in results))
    min_len = min(len(r.cmc.values) for r in results)
    targets = [e.target_far for e in results[0].verification.gar_at_far]
    rank_mean, rank_std = _column_stats([[r.rank_accuracies[k] for k in ranks] for r in results])
    mean_cmc, _ = _column_stats([r.cmc.values[:min_len] for r in results])
    gar_mean, _ = _column_stats([[e.gar for e in r.verification.gar_at_far] for r in results])
    (icd_mean,), _ = _column_stats([[r.mean_inter_class_distance] for r in results])
    return EvalReport(
        repetitions=results,
        ranks=ranks,
        rank_mean=dict(zip(ranks, rank_mean)),
        rank_std=dict(zip(ranks, rank_std)),
        mean_cmc=tuple(mean_cmc),
        gar_mean=dict(zip(targets, gar_mean)),
        inter_class_mean=icd_mean,
        extended_gallery=extended_gallery,
        normalized=conf.normalize,
    )


def repeated_evaluation(
    ds: Dataset,
    split: SplitSpec,
    train_cfg: training.TrainConfig,
    *,
    distractors=None,
    **options,
) -> EvalReport:
    """The repeated random sub-sampling protocol, end to end.

    ``options`` are :class:`EvalConfig` fields, checked before any training.
    For each repetition: subject-disjoint split, train on the train side
    (seed mixed with the repetition index), evaluate on the test side's
    single-image gallery and injured probes.  Reports mean and population
    std over exactly ``split.repetitions`` repetitions.
    """
    conf = EvalConfig(**options)

    def trained(rep: int, train_ds: Dataset) -> model.ModelParams:
        return training.train(train_ds, training.config_for_repetition(train_cfg, rep))[0]

    return evaluate_repetitions(ds, split, range(split.repetitions), trained, conf, distractors=distractors)


def evaluate_repetitions(
    ds: Dataset, split: SplitSpec, repetitions, params_for, conf: EvalConfig, *, distractors=None
) -> EvalReport:
    """Evaluate the test side of each listed split repetition and aggregate.

    ``params_for(repetition, train_ds)`` returns the model to score on that
    repetition, given its train side.  Verification pairs are sampled with
    a seed derived from ``(split.seed, repetition)``, so a repetition is
    scored identically whether its model was trained here or loaded.
    """
    results = []
    for rep in repetitions:
        train_ds, test_ds = subject_split(ds, split, rep)
        results.append(
            evaluate_model(
                params_for(rep, train_ds),
                test_ds,
                repetition=rep,
                distractors=distractors,
                pair_seed=training.derive_seed(split.seed, rep, 7),
                **asdict(conf),
            )
        )
    return aggregate_results(results, conf, extended_gallery=distractors is not None)
