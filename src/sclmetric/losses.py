"""Margin losses over embedding vectors, with closed-form gradients.

All losses are pure functions of their input embeddings and return a
:class:`LossValue` holding the scalar and a gradient per input slot
(keys ``"a"``, ``"b"``, ``"c"``; a slot is present iff the input was).
Conventions shared by every loss here:

* distances are squared Euclidean unless stated otherwise;
* a hinge term ``max(0, margin - dist)`` is *active* only while
  ``dist < margin``; at and beyond the margin its value and its gradient
  contribution are exactly zero;
* degenerate sets (slot c absent) simply omit the second pair's term.

Each loss kind has one implementation, a row kernel over (n, d) slot
matrices (:func:`scl_loss_rows`, :func:`contrastive_loss_rows`,
:func:`triplet_loss_rows`); training calls it once per batch, and the
scalar functions validate one unit and run it as a one-row call.  Masks
select the active hinges, so every row has the bits of the scalar
definition and an inactive term is an exact zero.

The subclass-aware set losses operate on the mined units of
:mod:`sclmetric.mining`:

* intra loss (genuine set, label 0):  ``|a-b|^2 + |b-c|^2`` pulls the intact
  anchor toward the subject's injured samples and those injured samples
  toward each other;
* inter loss (imposter set, label 1):
  ``max(0, alpha1 - |a-b|^2) + max(0, alpha2 - |b-c|^2)`` pushes the foreign
  injured sample b away from both of subject i's sides.

Squared distances come from one kernel, :func:`squared_distances`, shared
with the evaluation distance blocks: left-to-right float64 accumulation
over the feature axis, so independently written reference code produces
bit-identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatchError

DEFAULT_ALPHA1 = 2.0
DEFAULT_ALPHA2 = 3.1
DEFAULT_CL_MARGIN = 2.0
DEFAULT_TL_MARGIN = 0.4
_SMALL_BLOCK = 1 << 12  # squared_distances squares this many differences at once


@dataclass(frozen=True)
class SclConfig:
    """Margins of the inter-class hinges; both must be strictly positive.

    ``alpha1`` separates an intact sample from other subjects' injured
    samples, ``alpha2`` separates injured samples of different subjects.
    """

    alpha1: float = DEFAULT_ALPHA1
    alpha2: float = DEFAULT_ALPHA2

    def __post_init__(self):
        if not (self.alpha1 > 0 and self.alpha2 > 0):
            raise ConfigError(f"margins must be > 0, got alpha1={self.alpha1}, alpha2={self.alpha2}")


@dataclass(frozen=True)
class LossValue:
    """A finite non-negative scalar plus one gradient vector per input slot."""

    value: float
    gradients: dict

    def gradient(self, slot: str) -> np.ndarray:
        return self.gradients[slot]


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    return arr


def squared_distances(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``u`` and ``v``,
    broadcast over every axis but the last (the feature axis), with the bits
    of ``total += (u_k - v_k) * (u_k - v_k)`` over k from ``total = 0.0``.

    Small blocks square every difference at once and add them up with the
    strictly sequential ``np.add.accumulate``; large blocks loop over the
    features with in-place ufuncs to bound memory, on feature-major copies
    of both operands so that each feature's entries are contiguous.
    """
    if u.shape[-1] != v.shape[-1]:
        raise DimensionMismatchError(f"embedding dimensions differ: {u.shape[-1]} vs {v.shape[-1]}")
    shape = u.shape[:-1] if u.shape == v.shape else np.broadcast_shapes(u.shape[:-1], v.shape[:-1])
    if 0 < math.prod(shape) * u.shape[-1] <= _SMALL_BLOCK:
        squares = u - v
        np.multiply(squares, squares, out=squares)
        return np.add.accumulate(squares, axis=-1)[..., -1]
    u, v = (np.ascontiguousarray(np.moveaxis(x, -1, 0)) for x in (u, v))
    total = np.zeros(shape)
    diff = np.empty(shape)
    for k in range(len(u)):
        np.subtract(u[k], v[k], out=diff)
        np.multiply(diff, diff, out=diff)
        np.add(total, diff, out=total)
    return total


def ordered_sum(values, start: float = 0.0, axis=None):
    """``start`` plus each entry of ``values`` in turn, with the bits of ``total += v``
    but for a NaN's sign and payload, and no warnings; ``axis=0`` gives each column's
    sum of a 2-D table.  ``np.cumsum`` never regroups a sum, while ``np.sum`` is
    pairwise and Python's ``sum`` is compensated from 3.12."""
    with np.errstate(over="ignore", invalid="ignore"):
        if axis is None:
            return float(np.cumsum(np.concatenate(([start], np.ravel(values))))[-1])
        return np.cumsum(np.vstack((np.full(np.shape(values)[1], start), values)), axis=0)[-1]


def squared_euclidean(u, v) -> float:
    """Sum of squared coordinate differences, accumulated left to right."""
    return float(squared_distances(_as_vector(u, "u"), _as_vector(v, "v")))


def euclidean_distance(u, v) -> float:
    """Plain (non-squared) Euclidean distance."""
    return math.sqrt(squared_euclidean(u, v))


def scl_loss_rows(a, b, c, labels, has_c, cfg: SclConfig = SclConfig()):
    """Set loss (1-Y) * intra + Y * inter of each row of the (n, d) slot
    matrices; ``has_c`` is false for degenerate sets, whose c row must
    repeat b.  Returns the values and the gradient rows ``(ga, gb, gc)``."""
    d_ab = squared_distances(a, b)
    d_bc = np.where(has_c, squared_distances(b, c), 0.0)
    two_ab = 2.0 * (a - b)
    two_bc = 2.0 * (b - c)
    first = d_ab < cfg.alpha1
    second = has_c & (d_bc < cfg.alpha2)
    inter = np.where(first, cfg.alpha1 - d_ab, 0.0) + np.where(second, cfg.alpha2 - d_bc, 0.0)
    push_ab = np.where(first[:, None], two_ab, 0.0)
    push_bc = np.where(second[:, None], two_bc, 0.0)
    genuine = labels == 0
    rows = genuine[:, None]
    ga = np.where(rows, two_ab, -push_ab)
    gb = np.where(rows, two_bc - two_ab, push_ab - push_bc)
    gc = np.where(rows, -two_bc, push_bc)
    return np.where(genuine, d_ab + d_bc, inter), (ga, gb, gc)


def contrastive_loss_rows(x1, x2, labels, margin: float = DEFAULT_CL_MARGIN):
    """Contrastive loss of each row pair; returns the values and the
    gradient rows ``(g1, g2)``.  The squared hinge is ``np.float_power``, which
    calls C ``pow`` as Python's ``float ** 2`` does; ``t * t`` and ``np.power``
    can round differently."""
    d2 = squared_distances(x1, x2)
    dist = np.sqrt(d2)
    diff = x1 - x2
    genuine = labels == 0
    hinge = ~genuine & ~(dist >= margin)
    slack = margin - dist
    squared = np.float_power(slack, 2.0, out=np.zeros(len(slack)), where=hinge)
    pull = hinge & (dist != 0.0)
    coef = np.divide(-slack, dist, out=np.zeros(len(dist)), where=pull)
    push = np.where(pull[:, None], coef[:, None] * diff, 0.0)
    rows = genuine[:, None]
    return np.where(genuine, 0.5 * d2, 0.5 * squared), (np.where(rows, diff, push), np.where(rows, -diff, -push))


def triplet_loss_rows(a, p, n, margin: float = DEFAULT_TL_MARGIN):
    """Triplet hinge of each row; returns the values and the gradient rows
    ``(ga, gp, gn)``."""
    arg = squared_distances(a, p) - squared_distances(a, n) + margin
    active = ~(arg <= 0)
    grads = (2.0 * (n - p), 2.0 * (p - a), 2.0 * (a - n))
    return np.where(active, arg, 0.0), tuple(np.where(active[:, None], g, 0.0) for g in grads)


def _one_row(values, grads, slots: str) -> LossValue:
    return LossValue(float(values[0]), {slot: g[0] for slot, g in zip(slots, grads)})


def _scl_one(label: int, a, b, c, cfg: SclConfig) -> LossValue:
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    has_c = c is not None
    c = _as_vector(c, "c") if has_c else b
    rows = scl_loss_rows(a[None], b[None], c[None], np.array([label]), np.array([has_c]), cfg)
    return _one_row(*rows, "abc" if has_c else "ab")


def scl_intra_loss(a, b, c=None) -> LossValue:
    """Genuine-set attraction: ``|a-b|^2`` plus ``|b-c|^2`` when c is present.

    Gradients: d/da = 2(a-b), d/db = 2(b-a) + 2(b-c), d/dc = 2(c-b); the
    c-dependent pieces vanish for degenerate sets.
    """
    return _scl_one(0, a, b, c, SclConfig())


def scl_inter_loss(a, b, c=None, cfg: SclConfig = SclConfig()) -> LossValue:
    """Imposter-set repulsion: two independent hinges on squared distances.

    ``max(0, alpha1 - |a-b|^2) + max(0, alpha2 - |b-c|^2)``; each active
    hinge contributes -2/(+2) difference gradients, an inactive hinge
    contributes exactly zero.
    """
    return _scl_one(1, a, b, c, cfg)


def scl_set_loss(sample_set, a, b, c=None, cfg: SclConfig = SclConfig()) -> LossValue:
    """Binary-labelled set loss: (1-Y) * intra + Y * inter.

    ``sample_set`` supplies the label (0 for genuine sets, 1 for imposter
    sets); the embeddings fill the set's a/b/c slots.  A batch loss is the
    plain sum of per-set values in index order.
    """
    if sample_set.label not in (0, 1):
        raise ConfigError(f"set label must be 0 or 1, got {sample_set.label!r}")
    return _scl_one(sample_set.label, a, b, c, cfg)


def contrastive_loss(x1, x2, label: int, margin: float = DEFAULT_CL_MARGIN) -> LossValue:
    """Siamese pair loss on the non-squared distance D with squared hinge.

    Genuine (label 0): ``D^2 / 2``.  Imposter (label 1):
    ``max(0, margin - D)^2 / 2``.  The imposter gradient is singular at
    D = 0 (coincident points); that point is mapped to a zero gradient.
    """
    if margin <= 0:
        raise ConfigError(f"contrastive margin must be > 0, got {margin}")
    if label not in (0, 1):
        raise ConfigError(f"pair label must be 0 or 1, got {label!r}")
    x1 = _as_vector(x1, "x1")[None]
    x2 = _as_vector(x2, "x2")[None]
    return _one_row(*contrastive_loss_rows(x1, x2, np.array([label]), margin), "ab")


def triplet_loss(anchor, positive, negative, margin: float = DEFAULT_TL_MARGIN) -> LossValue:
    """Squared-distance triplet hinge ``max(0, |a-p|^2 - |a-n|^2 + margin)``.

    Inactive triplets (argument <= 0) return zero value and zero gradients.
    """
    if margin <= 0:
        raise ConfigError(f"triplet margin must be > 0, got {margin}")
    a = _as_vector(anchor, "anchor")[None]
    p = _as_vector(positive, "positive")[None]
    n = _as_vector(negative, "negative")[None]
    return _one_row(*triplet_loss_rows(a, p, n, margin), "abc")
