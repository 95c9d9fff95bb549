"""The exact identification ranker that the BLAS screen of
:func:`sclmetric.evaluation._identification_cmc` replaced, kept as a test
oracle.

It computes every (probe, gallery) distance with the left-to-right kernel,
a bounded block of probes at a time, and counts each probe's rank by the
``(distance, subject_id)`` rule.  The differential tests require the screened
ranker to return the same :class:`~sclmetric.evaluation.CmcCurve`, or to raise
the same :class:`~sclmetric.errors.NumericError`.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from sclmetric.errors import ProtocolError
from sclmetric.evaluation import CmcCurve, _distances

_BLOCK_ELEMENTS = 1 << 17


def _cross_blocks(a: np.ndarray, b: np.ndarray):
    if len(a) == 0 or len(b) == 0:
        return
    step = max(1, _BLOCK_ELEMENTS // len(b))
    bt = b[None, :, :]
    for start in range(0, len(a), step):
        yield start, _distances(a[start : start + step, None, :], bt)


def identification_cmc(probe_emb, probe_sids, gallery_emb, gallery_sids) -> CmcCurve:
    """The CMC of every probe, ranks counted per block, against a gallery that
    holds one image per subject and enrolls every probe's subject."""
    if len(probe_emb) == 0:
        raise ProtocolError("no test subject has both intact and injured samples, so there is no probe")
    order = np.argsort(gallery_sids)
    true_col = np.searchsorted(gallery_sids[order], probe_sids)[:, None]
    columns = np.arange(len(order))
    ranks = []
    for start, d in _cross_blocks(probe_emb, gallery_emb[order]):
        col = true_col[start : start + len(d)]
        d_true = np.take_along_axis(d, col, axis=1)
        ranks.append(np.count_nonzero((d < d_true) | ((d == d_true) & (columns < col)), axis=1))
    hits = np.bincount(np.concatenate(ranks), minlength=len(order)).tolist()
    n = len(probe_emb)
    return CmcCurve(tuple(c / n for c in accumulate(hits)), 0)
