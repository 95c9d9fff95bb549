"""The scalar miners and batcher that the index miners of
:mod:`sclmetric.mining` replaced, kept as a test oracle.

Each builder walks the subjects in dataset order and makes one scalar
``Generator.integers`` or ``Generator.choice`` call per draw, building the
unit dataclasses as it goes.  The index miners replay the same draw stream in
bulk; the differential tests require unit-for-unit object identity with
these loops.
"""

from __future__ import annotations

import warnings

import numpy as np

from sclmetric.errors import ConfigError, MiningError
from sclmetric.mining import Batch, ContrastivePair, GenuineSet, ImposterSet, Triplet


def _donors(ds, use, required=True):
    donors = [r for r in ds.subjects if r.injured]
    if required and len(donors) < 2:
        raise MiningError(f"{use} needs >= 2 subjects with injured samples, found {len(donors)}")
    return donors


def _anchors(ds, kind, donors=None, need_injured=True):
    out = []
    skipped = []
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


def build_genuine_sets(ds, per_subject, seed):
    rng = np.random.default_rng(seed)
    out = []
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


def build_imposter_sets(ds, per_subject, seed):
    rng = np.random.default_rng(seed)
    donors = _donors(ds, "imposter mining")
    out = []
    for record, candidates in _anchors(ds, "imposter-set", donors, need_injured=False):
        non = record.non_injured
        for _ in range(per_subject):
            a = non[rng.integers(len(non))]
            donor = candidates[rng.integers(len(candidates))]
            b = donor.injured[rng.integers(len(donor.injured))]
            c = record.injured[rng.integers(len(record.injured))] if record.injured else None
            out.append(ImposterSet(a, b, c))
    return out


def build_cl_pairs(ds, per_subject, seed):
    rng = np.random.default_rng(seed)
    donors = _donors(ds, "imposter pairing", required=per_subject > 0)
    out = []
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


def build_triplets(ds, per_subject, seed):
    rng = np.random.default_rng(seed)
    donors = _donors(ds, "triplet mining", required=per_subject > 0)
    out = []
    for record, candidates in _anchors(ds, "triplet", donors):
        non, inj = record.non_injured, record.injured
        for _ in range(per_subject):
            anchor = non[rng.integers(len(non))]
            positive = inj[rng.integers(len(inj))]
            donor = candidates[rng.integers(len(candidates))]
            negative = donor.injured[rng.integers(len(donor.injured))]
            out.append(Triplet(anchor, positive, negative))
    return out


def make_batches(genuine, imposter, batch_size, seed):
    if batch_size < 2:
        raise ConfigError("batch_size must be >= 2")
    rng = np.random.default_rng(seed)
    g = [genuine[i] for i in rng.permutation(len(genuine))]
    m = [imposter[i] for i in rng.permutation(len(imposter))]
    batches = []
    gi = mi = 0
    while gi < len(g) or mi < len(m):
        g_take = min(batch_size - min(batch_size // 2, len(m) - mi), len(g) - gi)
        m_take = min(batch_size - g_take, len(m) - mi)
        batches.append(Batch(tuple(g[gi : gi + g_take]), tuple(m[mi : mi + m_take])))
        gi += g_take
        mi += m_take
    return batches
