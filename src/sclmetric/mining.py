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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .dataset import Dataset, Sample, Subclass, SubjectRecord
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


def _donors(ds: Dataset, use: str, required: bool = True) -> list[SubjectRecord]:
    """Subjects with injured samples, the pool foreign injured samples come
    from; raises :class:`MiningError` when ``required`` and fewer than two
    exist, since no cross-subject unit can then be formed."""
    donors = [r for r in ds.subjects if r.injured]
    if required and len(donors) < 2:
        raise MiningError(f"{use} needs >= 2 subjects with injured samples, found {len(donors)}")
    return donors


def _anchors(ds: Dataset, kind: str, donors=None, need_injured: bool = True):
    """The subjects a builder mines from, in dataset order, each paired with
    its candidate donors (``donors`` minus itself, or None without donors).

    Subjects lacking an intact sample, or with ``need_injured`` an injured
    one, are skipped with one warning naming ``kind``.
    """
    out = []
    skipped: list[tuple[int, str]] = []
    reason = "missing a subclass" if need_injured else "no non-injured samples"
    for record in ds.subjects:
        if not record.non_injured or need_injured and not record.injured:
            skipped.append((record.subject_id, reason))
            continue
        candidates = None if donors is None else [d for d in donors if d.subject_id != record.subject_id]
        out.append((record, candidates))
    if skipped:
        warnings.warn(f"{kind} mining skipped subjects: {skipped}", stacklevel=3)
    return out


def build_genuine_sets(ds: Dataset, per_subject: int, seed: int) -> list[GenuineSet]:
    """Mine ``per_subject`` genuine sets per eligible subject, uniformly.

    Eligible subjects have >= 1 intact and >= 1 injured sample; with exactly
    one injured sample the sets are degenerate (c absent).
    """
    rng = np.random.default_rng(seed)
    out: list[GenuineSet] = []
    for record, _ in _anchors(ds, "genuine-set"):
        non, inj = record.non_injured, record.injured
        for _ in range(per_subject):
            a = non[rng.integers(len(non))]
            if len(inj) == 1:
                out.append(GenuineSet(a, inj[0], None))
            else:
                q, r = rng.choice(len(inj), size=2, replace=False)
                out.append(GenuineSet(a, inj[q], inj[r]))
    return out


def build_imposter_sets(ds: Dataset, per_subject: int, seed: int) -> list[ImposterSet]:
    """Mine ``per_subject`` imposter sets per subject with an intact anchor.

    The foreign injured sample b is drawn uniformly over other subjects that
    have injured samples, and the same b occupies both pairs of the set.
    Raises :class:`MiningError` when fewer than two subjects have injured
    samples, since no cross-subject pair can then exist.
    """
    rng = np.random.default_rng(seed)
    donors = _donors(ds, "imposter mining")
    out: list[ImposterSet] = []
    for record, candidates in _anchors(ds, "imposter-set", donors, need_injured=False):
        non = record.non_injured
        for _ in range(per_subject):
            a = non[rng.integers(len(non))]
            donor = candidates[rng.integers(len(candidates))]
            b = donor.injured[rng.integers(len(donor.injured))]
            c = record.injured[rng.integers(len(record.injured))] if record.injured else None
            out.append(ImposterSet(a, b, c))
    return out


def build_cl_pairs(ds: Dataset, per_subject: int, seed: int) -> list[ContrastivePair]:
    """Mine balanced contrastive pairs: per subject, ``per_subject`` genuine
    (N_i, I_i) pairs and ``per_subject`` imposter (N_i, I_j) pairs."""
    rng = np.random.default_rng(seed)
    donors = _donors(ds, "imposter pairing", required=per_subject > 0)
    out: list[ContrastivePair] = []
    for record, candidates in _anchors(ds, "contrastive-pair", donors):
        non, inj = record.non_injured, record.injured
        for _ in range(per_subject):
            out.append(ContrastivePair(non[rng.integers(len(non))], inj[rng.integers(len(inj))], 0))
            donor = candidates[rng.integers(len(candidates))]
            out.append(
                ContrastivePair(
                    non[rng.integers(len(non))], donor.injured[rng.integers(len(donor.injured))], 1
                )
            )
    return out


def build_triplets(ds: Dataset, per_subject: int, seed: int) -> list[Triplet]:
    """Mine ``per_subject`` triplets per eligible subject, negatives uniform
    over other subjects' injured samples."""
    rng = np.random.default_rng(seed)
    donors = _donors(ds, "triplet mining", required=per_subject > 0)
    out: list[Triplet] = []
    for record, candidates in _anchors(ds, "triplet", donors):
        non, inj = record.non_injured, record.injured
        for _ in range(per_subject):
            anchor = non[rng.integers(len(non))]
            positive = inj[rng.integers(len(inj))]
            donor = candidates[rng.integers(len(candidates))]
            negative = donor.injured[rng.integers(len(donor.injured))]
            out.append(Triplet(anchor, positive, negative))
    return out


def make_batches(genuine: list, imposter: list, batch_size: int, seed: int) -> list[Batch]:
    """Shuffle both unit lists and pack them into ~1:1 batches.

    Each full batch takes ``ceil(batch_size/2)`` genuine and the rest
    imposter units; once one side is exhausted the other fills the gap, and
    a final short batch is allowed.
    """
    if batch_size < 2:
        raise ConfigError("batch_size must be >= 2")
    rng = np.random.default_rng(seed)
    g = [genuine[i] for i in rng.permutation(len(genuine))]
    m = [imposter[i] for i in rng.permutation(len(imposter))]
    batches: list[Batch] = []
    gi = mi = 0
    while gi < len(g) or mi < len(m):
        g_take = min(batch_size - min(batch_size // 2, len(m) - mi), len(g) - gi)
        m_take = min(batch_size - g_take, len(m) - mi)
        batches.append(Batch(tuple(g[gi : gi + g_take]), tuple(m[mi : mi + m_take])))
        gi += g_take
        mi += m_take
    return batches
