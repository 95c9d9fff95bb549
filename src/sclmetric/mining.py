"""Mining of training units from a subclass-structured dataset.

Four unit shapes are produced, all by uniform sampling with a seeded
generator (no hard-negative or semi-hard selection):

* :class:`GenuineSet` - two pairs of the same subject i sharing the injured
  sample b: ``{a=N_i, b=I_i}`` and ``{b=I_i, c=I_i}``, label 0.
* :class:`ImposterSet` - two cross-subject pairs sharing the foreign
  injured sample b: ``{a=N_i, b=I_j}`` and ``{b=I_j, c=I_i}`` with j != i,
  label 1.
* :class:`ContrastivePair` / :class:`Triplet` - the conventional baseline
  units over the same N/I structure.

Subjects that cannot supply a unit's required samples are skipped with a
warning; a subject with a single injured sample yields degenerate sets
(c absent, second pair omitted) rather than a zero-distance q == r pair.
Mining is pure: every emitted Sample is an object from the source dataset,
and a fixed seed reproduces the exact output.

Units as row indices
--------------------
The miners :func:`genuine_rows`, :func:`imposter_rows`, :func:`cl_rows` and
:func:`triplet_rows` return units as int64 arrays of row indices into
``Dataset.all_samples()`` (subjects by id, intact before injured samples,
each by sample index), one column per slot: (a, b, c), (first, second) or
(anchor, positive, negative).  A degenerate set repeats b in column c, and
no full set has c == b, so ``rows[:, 2] != rows[:, 1]`` is the has-c mask.
:func:`batch_order` packs two such pools into batches.  The ``build_*``
functions and :func:`make_batches` return the same units as the dataclasses
above, holding the dataset's own Sample objects.

Draws
-----
Each miner draws from ``numpy.random.default_rng(seed)`` as a loop over its
subjects in dataset order and ``per_subject`` units each would, with one
``Generator.integers(n)`` call per sample or donor picked; a genuine set
picks its (b, c) pair with ``Generator.choice(n, 2, replace=False)``, which
is Floyd's algorithm: ``integers(n-1)`` then ``integers(n)``, a repeat
taking n - 1, then the ``integers(2)`` of numpy's shuffle, which swaps the
pair on 0.  The miners make all those calls as one
``Generator.integers(0, bounds)`` over a (unit, draw) array of bounds, which
draws element by element in row-major order as the scalar calls would, a
bound of 1 drawing nothing.  Every bound is fixed by the data except a
donor's injured sample, bounded by the count of the donor drawn just before
it.  That column is drawn at the largest count, then redrawn until every
unit's sample was drawn at the count of the donor it drew; that draw is the
sequential one.  Where donors mix one and several injured samples, the
miner makes the scalar ``Generator.integers`` calls instead.  The output is
the same either way, and only as long as numpy keeps these algorithms: the
per-call builders this replaced are kept in the tests as the oracle.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .dataset import Dataset, Sample, Subclass
from .errors import ConfigError, MiningError


@dataclass(frozen=True)
class GenuineSet:
    """Same-subject set {a=N, b=I} + {b, c=I}; the shared b ties both pairs."""

    a: Sample
    b: Sample
    c: Optional[Sample]
    label: ClassVar[int] = 0

    def __post_init__(self):
        if self.a.subclass is not Subclass.NON_INJURED:
            raise MiningError("genuine set slot a must be non-injured")
        if self.b.subclass is not Subclass.INJURED:
            raise MiningError("genuine set slot b must be injured")
        if not (self.a.subject_id == self.b.subject_id):
            raise MiningError("genuine set spans two subjects")
        if self.c is not None:
            if self.c.subclass is not Subclass.INJURED or self.c.subject_id != self.a.subject_id:
                raise MiningError("genuine set slot c must be an injured sample of the same subject")
            if self.c.sample_index == self.b.sample_index:
                raise MiningError("genuine set would pair an injured sample with itself")


@dataclass(frozen=True)
class ImposterSet:
    """Cross-subject set {a=N_i, b=I_j} + {b, c=I_i}; b belongs to subject j != i."""

    a: Sample
    b: Sample
    c: Optional[Sample]
    label: ClassVar[int] = 1

    def __post_init__(self):
        if self.a.subclass is not Subclass.NON_INJURED:
            raise MiningError("imposter set slot a must be non-injured")
        if self.b.subclass is not Subclass.INJURED:
            raise MiningError("imposter set slot b must be injured")
        if self.a.subject_id == self.b.subject_id:
            raise MiningError("imposter set requires b from a different subject")
        if self.c is not None:
            if self.c.subclass is not Subclass.INJURED or self.c.subject_id != self.a.subject_id:
                raise MiningError("imposter set slot c must be an injured sample of subject i")


@dataclass(frozen=True)
class ContrastivePair:
    """A labelled (intact, injured) pair: label 0 iff both sides share a subject."""

    first: Sample
    second: Sample
    label: int

    def __post_init__(self):
        same = self.first.subject_id == self.second.subject_id
        if self.label not in (0, 1) or (self.label == 0) != same:
            raise MiningError("contrastive pair label inconsistent with subject ids")


@dataclass(frozen=True)
class Triplet:
    """Anchor (intact), positive (injured, same subject), negative (injured, other)."""

    anchor: Sample
    positive: Sample
    negative: Sample

    def __post_init__(self):
        if self.anchor.subclass is not Subclass.NON_INJURED:
            raise MiningError("triplet anchor must be non-injured")
        if self.positive.subclass is not Subclass.INJURED or self.negative.subclass is not Subclass.INJURED:
            raise MiningError("triplet positive/negative must be injured")
        if self.anchor.subject_id != self.positive.subject_id:
            raise MiningError("triplet positive must match the anchor's subject")
        if self.anchor.subject_id == self.negative.subject_id:
            raise MiningError("triplet negative must come from another subject")


@dataclass(frozen=True)
class Batch:
    """One optimizer step's worth of units, kept per label for ~1:1 composition."""

    genuine_sets: tuple
    imposter_sets: tuple

    @property
    def size(self) -> int:
        return len(self.genuine_sets) + len(self.imposter_sets)

    @property
    def units(self) -> tuple:
        return self.genuine_sets + self.imposter_sets


class _Subjects:
    """Per subject, in dataset order: intact and injured counts, the first
    row of each in ``ds.all_samples()``, and its position among the donors
    (the subjects with injured samples), or ``n_donors`` if it is none.
    Given ``use``, fewer than two donors raise :class:`MiningError`, as no
    cross-subject unit can then be formed."""

    def __init__(self, ds: Dataset, use: str | None = None):
        self.ds = ds
        self.non, self.inj = ds.counts.T
        self.first = (self.non + self.inj).cumsum() - self.non - self.inj
        donor = self.inj > 0
        self.donor_rows = (self.first + self.non)[donor]
        self.donor_counts = self.inj[donor]
        self.n_donors = len(self.donor_counts)
        self.own = np.where(donor, donor.cumsum() - 1, self.n_donors)
        if use is not None and self.n_donors < 2:
            raise MiningError(f"{use} needs >= 2 subjects with injured samples, found {self.n_donors}")

    def units(self, kind: str, per_subject: int, need_injured: bool = True):
        """Per unit: intact count, injured count, first intact row, first
        injured row and donor position of its subject.

        Subjects lacking an intact sample, or with ``need_injured`` an
        injured one, are skipped with one warning naming ``kind``,
        attributed to the first caller outside this module.
        """
        eligible = (self.ds.counts if need_injured else self.ds.counts[:, :1]).all(axis=1)
        if not eligible.all():
            reason = "missing a subclass" if need_injured else "no non-injured samples"
            skipped = [(self.ds.subjects[pos].subject_id, reason) for pos in np.flatnonzero(~eligible).tolist()]
            frame, level = sys._getframe(1), 2
            while frame.f_globals.get("__name__") == __name__:
                frame, level = frame.f_back, level + 1
            warnings.warn(f"{kind} mining skipped subjects: {skipped}", stacklevel=level)
        at = np.flatnonzero(eligible).repeat(per_subject)
        return self.non[at], self.inj[at], self.first[at], self.first[at] + self.non[at], self.own[at]


def _draw(seed: int, bounds: np.ndarray, donor=None) -> np.ndarray:
    """Entry ``[u, j]``: what the j-th ``Generator.integers(bounds[u, j])``
    call of unit u returns, with every unit's calls made in column order,
    unit after unit, on ``default_rng(seed)``.

    ``donor = (pick, sample, own, counts)`` makes column ``pick`` choose a
    donor other than the unit's own position ``own[u]`` among the donors,
    holding the chosen donor's position, and column ``sample`` an injured
    sample of it: its bound is that donor's entry of ``counts``, and
    ``bounds[:, sample]`` is overwritten.
    """
    if donor is None:
        return np.random.default_rng(seed).integers(0, bounds)
    pick, sample, own, counts = donor
    many = counts > 1
    if many.all() or not many.any():
        # Guess every donor sample's bound, draw, and redraw at the bounds of the
        # donors drawn until the two agree.  A self-consistent draw is the
        # sequential one: by induction over units, each unit's leading draws
        # are the scalar calls', so its donor, and so its bound, are too.  Each
        # redraw fixes the bound of at least the first unit still wrong, so the
        # loop ends; with donors of equal counts the first draw agrees.
        bounds[:, sample] = counts.max(initial=1)
        while True:
            values = np.random.default_rng(seed).integers(0, bounds)
            values[:, pick] += values[:, pick] >= own
            implied = counts[values[:, pick]]
            if (implied == bounds[:, sample]).all():
                return values
            bounds[:, sample] = implied
    # Donors of one and of several samples: a bound of 1 draws nothing, so each
    # fix would shift the stream after it and the redraws grow quadratically.
    rng = np.random.default_rng(seed)
    rows = bounds.tolist()
    for u, row in enumerate(rows):
        for j, bound in enumerate(row):
            v = int(rng.integers(counts[row[pick]] if j == sample else bound))
            row[j] = v + (v >= own[u]) if j == pick else v
    return np.array(rows, dtype=np.int64).reshape(bounds.shape)


def genuine_rows(ds: Dataset, per_subject: int, seed: int) -> np.ndarray:
    """The (a, b, c) rows of :func:`build_genuine_sets`' units."""
    non, inj, first, first_inj, _ = _Subjects(ds).units("genuine-set", per_subject)
    pair = inj > 1
    bounds = np.stack([non, np.where(pair, inj - 1, 1), np.where(pair, inj, 1), np.where(pair, 2, 1)], axis=1)
    a, q, r, keep = _draw(seed, bounds).T
    # Floyd: a repeated second draw takes the top index; the shuffle swaps the pair on 0.
    r = np.where(r == q, inj - 1, r)
    q, r = np.where(keep == 0, r, q), np.where(keep == 0, q, r)
    return np.stack([first + a, first_inj + q, first_inj + r], axis=1)


def imposter_rows(ds: Dataset, per_subject: int, seed: int) -> np.ndarray:
    """The (a, b, c) rows of :func:`build_imposter_sets`' units."""
    subjects = _Subjects(ds, "imposter mining")
    non, inj, first, first_inj, own = subjects.units("imposter-set", per_subject, need_injured=False)
    n_donors = subjects.n_donors
    bounds = np.stack([non, n_donors - (own < n_donors), np.ones_like(non), np.maximum(inj, 1)], axis=1)
    a, d, b, c = _draw(seed, bounds, (1, 2, own, subjects.donor_counts)).T
    b = subjects.donor_rows[d] + b
    return np.stack([first + a, b, np.where(inj > 0, first_inj + c, b)], axis=1)


def cl_rows(ds: Dataset, per_subject: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (first, second) rows of :func:`build_cl_pairs`' genuine units and
    of its imposter units, each in mining order."""
    subjects = _Subjects(ds, "imposter pairing" if per_subject > 0 else None)
    non, inj, first, first_inj, own = subjects.units("contrastive-pair", per_subject)
    bounds = np.stack([non, inj, np.full_like(non, subjects.n_donors - 1), non, np.ones_like(non)], axis=1)
    a, p, d, a2, n = _draw(seed, bounds, (2, 4, own, subjects.donor_counts)).T
    genuine = np.stack([first + a, first_inj + p], axis=1)
    return genuine, np.stack([first + a2, subjects.donor_rows[d] + n], axis=1)


def triplet_rows(ds: Dataset, per_subject: int, seed: int) -> np.ndarray:
    """The (anchor, positive, negative) rows of :func:`build_triplets`' units."""
    subjects = _Subjects(ds, "triplet mining" if per_subject > 0 else None)
    non, inj, first, first_inj, own = subjects.units("triplet", per_subject)
    bounds = np.stack([non, inj, np.full_like(non, subjects.n_donors - 1), np.ones_like(non)], axis=1)
    a, p, d, n = _draw(seed, bounds, (2, 3, own, subjects.donor_counts)).T
    return np.stack([first + a, first_inj + p, subjects.donor_rows[d] + n], axis=1)


def _sets(unit, ds: Dataset, rows: np.ndarray) -> list:
    samples = ds.all_samples()
    return [unit(samples[a], samples[b], samples[c] if c != b else None) for a, b, c in rows.tolist()]


def build_genuine_sets(ds: Dataset, per_subject: int, seed: int) -> list[GenuineSet]:
    """Mine ``per_subject`` genuine sets per eligible subject, uniformly.

    Eligible subjects have >= 1 intact and >= 1 injured sample; with exactly
    one injured sample the sets are degenerate (c absent).
    """
    return _sets(GenuineSet, ds, genuine_rows(ds, per_subject, seed))


def build_imposter_sets(ds: Dataset, per_subject: int, seed: int) -> list[ImposterSet]:
    """Mine ``per_subject`` imposter sets per subject with an intact anchor.

    The foreign injured sample b is drawn uniformly over other subjects that
    have injured samples, and the same b occupies both pairs of the set.
    Raises :class:`MiningError` when fewer than two subjects have injured
    samples, since no cross-subject pair can then exist.
    """
    return _sets(ImposterSet, ds, imposter_rows(ds, per_subject, seed))


def build_cl_pairs(ds: Dataset, per_subject: int, seed: int) -> list[ContrastivePair]:
    """Mine balanced contrastive pairs: per subject, ``per_subject`` genuine
    (N_i, I_i) pairs and ``per_subject`` imposter (N_i, I_j) pairs."""
    samples = ds.all_samples()
    genuine, imposter = cl_rows(ds, per_subject, seed)
    out: list[ContrastivePair] = []
    for (a, b), (a2, b2) in zip(genuine.tolist(), imposter.tolist()):
        out += [ContrastivePair(samples[a], samples[b], 0), ContrastivePair(samples[a2], samples[b2], 1)]
    return out


def build_triplets(ds: Dataset, per_subject: int, seed: int) -> list[Triplet]:
    """Mine ``per_subject`` triplets per eligible subject, negatives uniform
    over other subjects' injured samples."""
    return _sets(Triplet, ds, triplet_rows(ds, per_subject, seed))


def batch_order(n_genuine: int, n_imposter: int, batch_size: int, seed: int):
    """Shuffle both unit pools and pack them into ~1:1 batches.

    Returns ``(order, sizes)``: ``order`` indexes the genuine pool followed
    by the imposter pool and lists every batch's units back to back, its
    genuine units first, and ``sizes`` holds each batch's (genuine,
    imposter) counts.  Each full batch takes ``ceil(batch_size/2)`` genuine
    and the rest imposter units; once one side is exhausted the other fills
    the gap, and a final short batch is allowed.
    """
    if batch_size < 2:
        raise ConfigError("batch_size must be >= 2")
    rng = np.random.default_rng(seed)
    g, m = rng.permutation(n_genuine), n_genuine + rng.permutation(n_imposter)
    parts, sizes = [g[:0]], []  # g[:0]: an int array to concatenate when there are no batches
    gi = mi = 0
    while gi < n_genuine or mi < n_imposter:
        g_take = min(batch_size - min(batch_size // 2, n_imposter - mi), n_genuine - gi)
        m_take = min(batch_size - g_take, n_imposter - mi)
        parts += [g[gi : gi + g_take], m[mi : mi + m_take]]
        sizes.append((g_take, m_take))
        gi += g_take
        mi += m_take
    return np.concatenate(parts), sizes


def make_batches(genuine: list, imposter: list, batch_size: int, seed: int) -> list[Batch]:
    """The batches of :func:`batch_order`, holding the units themselves."""
    units = [*genuine, *imposter]
    order, sizes = batch_order(len(genuine), len(imposter), batch_size, seed)
    batches: list[Batch] = []
    end = 0
    for g_take, m_take in sizes:
        chosen = [units[i] for i in order[end : end + g_take + m_take].tolist()]
        batches.append(Batch(tuple(chosen[:g_take]), tuple(chosen[g_take:])))
        end += g_take + m_take
    return batches
