"""Optimizers and the epoch loop wiring mining -> forward -> loss -> update.

Every epoch re-mines its training units with an epoch-derived seed, packs
them into ~1:1 batches, and takes one Adam step per batch.  A batch's slot
rows, in (unit, slot) order, go through one forward pass, the row kernel
of the run's loss kind and one backward pass that sums the gradient over
rows in order; inactive slots add exact zeros, so the parameters are bit
for bit those of a per-unit loop that skips them.  Training is fully
deterministic: (dataset, config, seed) fix the returned parameters
bit-exactly, and a frozen layer prefix never changes.

Two regimes are commonly used (see :mod:`sclmetric.presets`): the reference
regime with learning rate 3e-6 over 30 epochs mirrors fine-tuning a large
pretrained backbone, while the synthetic regime (1e-3, ~100+ epochs) is
sized so a fresh small network visibly learns on generated data.

The per-epoch log is exported as CSV with columns
``epoch,sum_loss,mean_genuine,mean_imposter,seconds``.  For triplet runs,
which have no genuine/imposter split, both mean columns carry the overall
mean unit loss.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import losses, mining, model
from .dataset import Dataset
from .errors import ConfigError, NumericError

LOSS_KINDS = ("scl", "cl", "tl")


def derive_seed(*parts: int) -> int:
    """Stable 32-bit seed mixed from integer parts (seed, epoch, stream...)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass
class AdamState:
    """First/second moment accumulators mirroring the parameter shapes."""

    m: tuple
    v: tuple
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_model(cls, params: model.ModelParams, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        return cls(model.zero_gradients(params), model.zero_gradients(params), 0, beta1, beta2, eps)


def _check_grad_shapes(params: model.ModelParams, grads) -> None:
    if len(grads) != len(params.layers):
        raise ConfigError("gradient structure does not match model depth")
    for layer, (gw, gb) in zip(params.layers, grads):
        if gw.shape != layer.weight.shape or gb.shape != layer.bias.shape:
            raise ConfigError(
                f"gradient shapes {gw.shape}/{gb.shape} do not match layer "
                f"{layer.weight.shape}/{layer.bias.shape}"
            )


def adam_step(params: model.ModelParams, grads, state: AdamState, lr: float):
    """One bias-corrected Adam update; returns (new params, new state).

    m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2;  with bias-corrected
    m_hat, v_hat the update is theta <- theta - lr * m_hat / (sqrt(v_hat) + eps).
    Frozen parameters arrive with zero gradients and are left bit-identical.
    """
    _check_grad_shapes(params, grads)
    t = state.t + 1
    b1, b2, eps = state.beta1, state.beta2, state.eps

    def update(theta, g, m, v):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat, v_hat = m / (1.0 - b1**t), v / (1.0 - b2**t)
        return theta - lr * m_hat / (np.sqrt(v_hat) + eps), m, v

    steps = [
        (update(layer.weight, gw, mw, vw), update(layer.bias, gb, mb, vb))
        for layer, (gw, gb), (mw, mb), (vw, vb) in zip(params.layers, grads, state.m, state.v)
    ]
    layers = tuple(model.Layer(w[0], b[0], layer.activation) for (w, b), layer in zip(steps, params.layers))
    m = tuple((w[1], b[1]) for w, b in steps)
    v = tuple((w[2], b[2]) for w, b in steps)
    return model.ModelParams(layers), AdamState(m, v, t, b1, b2, eps)


def sgd_step(params: model.ModelParams, grads, lr: float) -> model.ModelParams:
    """Plain gradient descent: theta <- theta - lr * g."""
    _check_grad_shapes(params, grads)
    new_layers = [
        model.Layer(layer.weight - lr * gw, layer.bias - lr * gb, layer.activation)
        for layer, (gw, gb) in zip(params.layers, grads)
    ]
    return model.ModelParams(tuple(new_layers))


@dataclass(frozen=True)
class TrainConfig:
    """Everything the training loop needs; defaults mirror the reference regime."""

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
        if self.loss not in LOSS_KINDS:
            raise ConfigError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.epochs < 1 or self.batch_size < 2 or self.per_subject < 0:
            raise ConfigError("epochs >= 1, batch_size >= 2 and per_subject >= 0 required")
        if min(self.alpha1, self.alpha2, self.cl_margin, self.tl_margin) <= 0:
            raise ConfigError("all margins must be > 0")
        if self.freeze < 0:
            raise ConfigError("freeze must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not self.hidden_dims or any(d < 1 for d in self.hidden_dims):
            raise ConfigError(f"hidden_dims must be positive, got {self.hidden_dims}")
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
            fh.write("epoch,sum_loss,mean_genuine,mean_imposter,seconds\n")
            for e in self.entries:
                fh.write(
                    f"{e.epoch},{repr(e.sum_loss)},{repr(e.mean_genuine)},"
                    f"{repr(e.mean_imposter)},{repr(e.seconds)}\n"
                )


def _mine_epoch(ds: Dataset, cfg: TrainConfig, epoch: int):
    """Re-mine this epoch's units and split them into label-0/label-1 pools."""
    s_gen = derive_seed(cfg.seed, epoch, 1)
    s_imp = derive_seed(cfg.seed, epoch, 2)
    if cfg.loss == "scl":
        genuine = mining.build_genuine_sets(ds, cfg.per_subject, s_gen)
        return genuine, mining.build_imposter_sets(ds, cfg.per_subject, s_imp)
    if cfg.loss == "cl":
        pairs = mining.build_cl_pairs(ds, cfg.per_subject, s_gen)
        return [p for p in pairs if p.label == 0], [p for p in pairs if p.label == 1]
    return mining.build_triplets(ds, cfg.per_subject, s_gen), []


# The unit fields each loss kind feeds through the network, in slot order.
_SLOTS = {"scl": ("a", "b", "c"), "cl": ("first", "second"), "tl": ("anchor", "positive", "negative")}


def _loss_rows(cfg: TrainConfig, units, labels, slots):
    """Per-unit values and per-slot gradient rows of ``slots``, one (unit, dim) matrix each."""
    if cfg.loss == "scl":
        has_c = np.array([unit.c is not None for unit in units])
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
    if freeze.frozen_layer_count > len(params.layers):
        raise ConfigError(
            f"freeze={cfg.freeze} exceeds the model's {len(params.layers)} layers"
        )
    adam = AdamState.for_model(params)
    names = _SLOTS[cfg.loss]
    entries: list[EpochStats] = []

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        label0, label1 = _mine_epoch(ds_train, cfg, epoch)
        batches = mining.make_batches(label0, label1, cfg.batch_size, derive_seed(cfg.seed, epoch, 3))
        sums = {0: 0.0, 1: 0.0}
        counts = {0: 0, 1: 0}
        for bi, batch in enumerate(batches):
            # make_batches keeps the label-0 units ahead of the label-1 units.
            labels = np.repeat([0, 1], [len(batch.genuine_sets), len(batch.imposter_sets)])
            # A degenerate set's missing c repeats b; the kernel gives it a zero gradient.
            rows = np.array([(getattr(u, name) or u.b).embedding for u in batch.units for name in names])
            embedded, trace = model.forward(params, rows)
            slots = embedded.reshape(len(batch.units), len(names), -1).transpose(1, 0, 2)
            values, slot_grads = _loss_rows(cfg, batch.units, labels, slots)
            grads = model.backward(params, trace, np.stack(slot_grads, axis=1).reshape(embedded.shape), freeze)
            batch_loss = 0.0
            for value, label in zip(values.tolist(), labels.tolist()):
                batch_loss += value
                sums[label] += value
                counts[label] += 1
            if not math.isfinite(batch_loss):
                raise NumericError(
                    f"non-finite loss {batch_loss} at epoch {epoch}, batch {bi} (loss={cfg.loss})"
                )
            params, adam = adam_step(params, grads, adam, cfg.learning_rate)
        means = [sums[k] / counts[k] if counts[k] else 0.0 for k in (0, 1)]
        if cfg.loss == "tl":  # every triplet is label 0: both columns carry the overall mean
            means[1] = means[0]
        entries.append(EpochStats(epoch, sums[0] + sums[1], *means, time.perf_counter() - started))
    return params, TrainLog(tuple(entries))


def config_for_repetition(cfg: TrainConfig, repetition: int) -> TrainConfig:
    """The per-repetition training config used by the repeated protocol:
    identical hyperparameters, seed mixed with the repetition index."""
    return replace(cfg, seed=derive_seed(cfg.seed, repetition))
