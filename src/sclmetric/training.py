"""Adam and the epoch loop wiring mining -> forward -> loss -> update.

Every epoch re-mines its training units with an epoch-derived seed, as row
indices into one matrix of the dataset's samples stacked once per
:func:`train` call, packs them into ~1:1 batches, and takes one Adam step
per batch on the parameter vector, whose layout Adam's moments share; the
updated vector becomes the next model in one copy.  A batch's slot rows,
gathered from that matrix in (unit, slot) order, go through one forward
pass, the row kernel of the run's loss kind and one backward pass.  The
backward pass drops the inactive slots, whose rows would add only exact
zeros, and sums the rest in order with one exact-product reduce per layer,
so the parameters are bit for bit those of a per-unit loop that skips
them.  Training is fully deterministic: (dataset, config, seed) fix the
returned parameters bit-exactly, and a frozen layer prefix never changes.

The :class:`TrainConfig` defaults are the reference regime, learning rate
3e-6 over 30 epochs, for fine-tuning a large pretrained backbone; that
regime also freezes the first layer (``freeze=1``), while the default
trains every layer.  :func:`sclmetric.presets.synthetic_regime` (1e-3,
120 epochs) is sized so a fresh small network visibly learns on generated
data.

The per-epoch log is exported as CSV with columns
``epoch,sum_loss,mean_genuine,mean_imposter,seconds``.  For triplet runs,
which have no genuine/imposter split, both mean columns carry the overall
mean unit loss.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import losses, mining, model
from .dataset import Dataset
from .errors import ConfigError, NumericError, check_integer_fields

LOSS_KINDS = ("scl", "cl", "tl")


def derive_seed(*parts: int) -> int:
    """Stable 32-bit seed mixed from integer parts (seed, epoch, stream...)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam's moment vectors, laid out like ``ModelParams.vector``, and its step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_model(cls, params: model.ModelParams):
        return cls(np.zeros_like(params.vector), np.zeros_like(params.vector))


def adam_step(params: model.ModelParams, grads, state: AdamState, lr: float):
    """One bias-corrected Adam update; returns (new params, new state).

    Elementwise on the parameter vector, in this order: m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g*g;
    m_hat, v_hat <- m/(1-b1^t), v/(1-b2^t); theta <- theta - lr*m_hat/(sqrt(v_hat) + eps).  An entry
    whose gradient has always been zero keeps its bits, so frozen parameters never move."""
    g = params.join(grads)
    t = state.t + 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    m = b1 * params._fits(state.m) + (1.0 - b1) * g
    v = b2 * params._fits(state.v) + (1.0 - b2) * g * g
    m_hat, v_hat = m / (1.0 - b1**t), v / (1.0 - b2**t)
    theta = params.vector - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params.with_vector(theta), AdamState(m, v, t)


@dataclass(frozen=True)
class TrainConfig:
    """Everything the training loop needs.  The defaults are the reference
    fine-tuning regime, except ``freeze``: that regime freezes the first layer
    of a pretrained backbone, while a fresh network trains every layer."""

    loss: str = "scl"
    learning_rate: float = 3e-6
    epochs: int = 30
    batch_size: int = 50
    alpha1: float = losses.DEFAULT_ALPHA1
    alpha2: float = losses.DEFAULT_ALPHA2
    cl_margin: float = losses.DEFAULT_CL_MARGIN
    tl_margin: float = losses.DEFAULT_TL_MARGIN
    per_subject: int = 4
    seed: int = 0
    freeze: int = 0
    hidden_dims: tuple[int, ...] = (32, 16)

    def __post_init__(self):
        check_integer_fields(self)
        if self.loss not in LOSS_KINDS:
            raise ConfigError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        if not math.isfinite(self.learning_rate):
            raise ConfigError("learning_rate must be finite")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.epochs < 1 or self.batch_size < 2 or self.per_subject < 0:
            raise ConfigError("epochs >= 1, batch_size >= 2 and per_subject >= 0 required")
        if not all(m > 0 for m in (self.alpha1, self.alpha2, self.cl_margin, self.tl_margin)):  # NaN too
            raise ConfigError("all margins must be > 0")
        if math.inf in (self.alpha1, self.alpha2, self.cl_margin, self.tl_margin):
            raise ConfigError("all margins must be finite")
        if self.freeze < 0:
            raise ConfigError("freeze must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not self.hidden_dims or any(d < 1 for d in self.hidden_dims):
            raise ConfigError(f"hidden_dims must be positive, got {self.hidden_dims}")
        if self.freeze > len(self.hidden_dims):
            raise ConfigError(f"freeze={self.freeze} exceeds the model's {len(self.hidden_dims)} layers")
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    sum_loss: float
    mean_genuine: float
    mean_imposter: float
    seconds: float


@dataclass(frozen=True)
class TrainLog:
    entries: tuple[EpochStats, ...] = field(default=())

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(f.name for f in fields(EpochStats)) + "\n")
            fh.writelines(",".join(map(repr, astuple(e))) + "\n" for e in self.entries)


def _mine_epoch(ds: Dataset, cfg: TrainConfig, epoch: int):
    """Re-mine this epoch's units as row-index arrays, split into label-0/label-1 pools."""
    s_gen = derive_seed(cfg.seed, epoch, 1)
    s_imp = derive_seed(cfg.seed, epoch, 2)
    if cfg.loss == "scl":
        return mining.genuine_rows(ds, cfg.per_subject, s_gen), mining.imposter_rows(ds, cfg.per_subject, s_imp)
    if cfg.loss == "cl":
        return mining.cl_rows(ds, cfg.per_subject, s_gen)
    triplets = mining.triplet_rows(ds, cfg.per_subject, s_gen)
    return triplets, triplets[:0]


def _loss_rows(cfg: TrainConfig, units, labels, slots):
    """Per-unit values and per-slot gradient rows of ``slots``, one (unit, dim) matrix each."""
    if cfg.loss == "scl":
        has_c = units[:, 2] != units[:, 1]  # a set without c repeats b there
        return losses.scl_loss_rows(*slots, labels, has_c, losses.SclConfig(cfg.alpha1, cfg.alpha2))
    if cfg.loss == "cl":
        return losses.contrastive_loss_rows(*slots, labels, cfg.cl_margin)
    return losses.triplet_loss_rows(*slots, cfg.tl_margin)


def train(ds_train: Dataset, cfg: TrainConfig) -> tuple[model.ModelParams, TrainLog]:
    """Train an embedding network on the dataset under the given config.

    Architecture is ``dataset dim -> cfg.hidden_dims``; the first
    ``cfg.freeze`` layers stay bit-identical to their initialization.
    Raises :class:`NumericError` with a diagnostic if a batch loss goes
    non-finite.
    """
    params = model.init_model([ds_train.dimension, *cfg.hidden_dims], cfg.seed)
    freeze = model.FreezeMask(cfg.freeze)
    adam = AdamState.for_model(params)
    samples = np.array([s.embedding for s in ds_train.all_samples()], dtype=np.float64)
    samples = samples.reshape(-1, ds_train.dimension)
    entries: list[EpochStats] = []

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        label0, label1 = _mine_epoch(ds_train, cfg, epoch)
        seed = derive_seed(cfg.seed, epoch, 3)
        order, sizes = mining.batch_order(len(label0), len(label1), cfg.batch_size, seed)
        units = np.concatenate([label0, label1])[order]
        kept = [np.empty(0)]
        end = 0
        for bi, (n0, n1) in enumerate(sizes):
            batch, end = units[end : end + n0 + n1], end + n0 + n1
            labels = np.repeat([0, 1], [n0, n1])
            # A degenerate set's missing c repeats b; the kernel gives it a zero gradient.
            embedded, trace = model.forward(params, samples[batch.ravel()])
            slots = embedded.reshape(*batch.shape, -1).transpose(1, 0, 2)
            values, slot_grads = _loss_rows(cfg, batch, labels, slots)
            grads = model.backward(params, trace, np.stack(slot_grads, axis=1).reshape(embedded.shape), freeze)
            batch_loss = losses.ordered_sum(values)
            kept.append(values)
            if not math.isfinite(batch_loss):
                raise NumericError(
                    f"non-finite loss {batch_loss} at epoch {epoch}, batch {bi} (loss={cfg.loss})"
                )
            params, adam = adam_step(params, grads, adam, cfg.learning_rate)
        values, label = np.concatenate(kept), order >= len(label0)
        sums = [losses.ordered_sum(values[mask]) for mask in (~label, label)]
        means = [s / n if n else 0.0 for s, n in zip(sums, (len(label0), len(label1)))]
        if cfg.loss == "tl":  # every triplet is label 0: both columns carry the overall mean
            means[1] = means[0]
        entries.append(EpochStats(epoch, sums[0] + sums[1], *means, time.perf_counter() - started))
    return params, TrainLog(tuple(entries))


def config_for_repetition(cfg: TrainConfig, repetition: int) -> TrainConfig:
    """The per-repetition training config used by the repeated protocol:
    identical hyperparameters, seed mixed with the repetition index."""
    return replace(cfg, seed=derive_seed(cfg.seed, repetition))
