"""The per-sample synthetic generator that the block draws of
:func:`sclmetric.dataset.generate_synthetic` replaced, kept as a test oracle.

It makes one ``rng.normal`` call per sample and builds each
:class:`~sclmetric.dataset.Sample` from its own expression.  The differential
tests require the block generator to return the same keys and embedding
bytes.
"""

from __future__ import annotations

import math

import numpy as np

from sclmetric.dataset import Dataset, Sample, Subclass, SubjectRecord, SynthConfig


def _random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        norm = math.sqrt(float(v @ v))
        if norm > 1e-12:
            return v / norm


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Draw a deterministic synthetic dataset per the generator model above.

    For a fixed seed the result is bit-identical across calls.  Injured
    samples cycle through the subject's injury-mode directions by sample
    index, so every mode is exercised whenever ``n_injured >= n_injury_modes``.
    """
    rng = np.random.default_rng(cfg.seed)
    records = []
    for sid in range(cfg.n_subjects):
        mean = _random_unit_vector(rng, cfg.dim) * cfg.subject_radius
        modes = [_random_unit_vector(rng, cfg.dim) for _ in range(cfg.n_injury_modes)]
        non = tuple(
            Sample(sid, Subclass.NON_INJURED, k, mean + rng.normal(0.0, cfg.sigma_n, cfg.dim))
            for k in range(cfg.n_non_injured)
        )
        inj = tuple(
            Sample(
                sid,
                Subclass.INJURED,
                k,
                mean + modes[k % cfg.n_injury_modes] * cfg.injury_shift + rng.normal(0.0, cfg.sigma_i, cfg.dim),
            )
            for k in range(cfg.n_injured)
        )
        records.append(SubjectRecord(sid, non, inj))
    return Dataset(cfg.dim, tuple(records))
