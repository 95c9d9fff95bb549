"""Optimizers and the epoch loop wiring mining -> forward -> loss -> update.

Every epoch re-mines its training units with an epoch-derived seed, packs
them into ~1:1 batches, accumulates summed gradients over each batch in
fixed index order, and takes one Adam step per batch.  Training is
fully deterministic: (dataset, config, seed) fix the returned parameters
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
from .losses import SclConfig

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
    new_layers = []
    new_m = []
    new_v = []
    for layer, (gw, gb), (mw, mb), (vw, vb) in zip(params.layers, grads, state.m, state.v):
        mw = b1 * mw + (1.0 - b1) * gw
        mb = b1 * mb + (1.0 - b1) * gb
        vw = b2 * vw + (1.0 - b2) * gw * gw
        vb = b2 * vb + (1.0 - b2) * gb * gb
        mw_hat = mw / (1.0 - b1**t)
        mb_hat = mb / (1.0 - b1**t)
        vw_hat = vw / (1.0 - b2**t)
        vb_hat = vb / (1.0 - b2**t)
        weight = layer.weight - lr * mw_hat / (np.sqrt(vw_hat) + eps)
        bias = layer.bias - lr * mb_hat / (np.sqrt(vb_hat) + eps)
        new_layers.append(model.Layer(weight, bias, layer.activation))
        new_m.append((mw, mb))
        new_v.append((vw, vb))
    return (
        model.ModelParams(tuple(new_layers)),
        AdamState(tuple(new_m), tuple(new_v), t, b1, b2, eps),
    )


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

    def scl_config(self) -> SclConfig:
        return SclConfig(self.alpha1, self.alpha2)


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
        return (
            mining.build_genuine_sets(ds, cfg.per_subject, s_gen),
            mining.build_imposter_sets(ds, cfg.per_subject, s_imp),
        )
    if cfg.loss == "cl":
        pairs = mining.build_cl_pairs(ds, cfg.per_subject, s_gen)
        return [p for p in pairs if p.label == 0], [p for p in pairs if p.label == 1]
    return mining.build_triplets(ds, cfg.per_subject, s_gen), []


def _unit_slots(unit):
    """The (slot_name, sample) inputs a unit feeds through the network."""
    if isinstance(unit, (mining.GenuineSet, mining.ImposterSet)):
        slots = [("a", unit.a), ("b", unit.b)]
        if unit.c is not None:
            slots.append(("c", unit.c))
        return slots
    if isinstance(unit, mining.ContrastivePair):
        return [("a", unit.first), ("b", unit.second)]
    return [("a", unit.anchor), ("b", unit.positive), ("c", unit.negative)]


def _unit_loss(unit, embeddings: dict, cfg: TrainConfig) -> losses.LossValue:
    if isinstance(unit, (mining.GenuineSet, mining.ImposterSet)):
        return losses.scl_set_loss(
            unit, embeddings["a"], embeddings["b"], embeddings.get("c"), cfg.scl_config()
        )
    if isinstance(unit, mining.ContrastivePair):
        return losses.contrastive_loss(embeddings["a"], embeddings["b"], unit.label, cfg.cl_margin)
    return losses.triplet_loss(embeddings["a"], embeddings["b"], embeddings["c"], cfg.tl_margin)


def _unit_label(unit) -> int:
    return getattr(unit, "label", 0)


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
    entries: list[EpochStats] = []

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        label0, label1 = _mine_epoch(ds_train, cfg, epoch)
        batches = mining.make_batches(label0, label1, cfg.batch_size, derive_seed(cfg.seed, epoch, 3))
        sums = {0: 0.0, 1: 0.0}
        counts = {0: 0, 1: 0}
        for bi, batch in enumerate(batches):
            grads = model.zero_gradients(params)
            batch_loss = 0.0
            for unit in batch.units:
                embeddings = {}
                traces = {}
                for slot, sample in _unit_slots(unit):
                    embeddings[slot], traces[slot] = model.forward(params, sample.embedding)
                lv = _unit_loss(unit, embeddings, cfg)
                batch_loss += lv.value
                label = _unit_label(unit)
                sums[label] += lv.value
                counts[label] += 1
                for slot, grad_emb in lv.gradients.items():
                    if grad_emb.any():
                        grads = model.add_gradients(
                            grads, model.backward(params, traces[slot], grad_emb, freeze)
                        )
            if not math.isfinite(batch_loss):
                raise NumericError(
                    f"non-finite loss {batch_loss} at epoch {epoch}, batch {bi} (loss={cfg.loss})"
                )
            params, adam = adam_step(params, grads, adam, cfg.learning_rate)
        total_units = counts[0] + counts[1]
        overall = (sums[0] + sums[1]) / total_units if total_units else 0.0
        if cfg.loss == "tl":
            mean_genuine = mean_imposter = overall
        else:
            mean_genuine = sums[0] / counts[0] if counts[0] else 0.0
            mean_imposter = sums[1] / counts[1] if counts[1] else 0.0
        entries.append(
            EpochStats(
                epoch=epoch,
                sum_loss=sums[0] + sums[1],
                mean_genuine=mean_genuine,
                mean_imposter=mean_imposter,
                seconds=time.perf_counter() - started,
            )
        )
    return params, TrainLog(tuple(entries))


def config_for_repetition(cfg: TrainConfig, repetition: int) -> TrainConfig:
    """The per-repetition training config used by the repeated protocol:
    identical hyperparameters, seed mixed with the repetition index."""
    return replace(cfg, seed=derive_seed(cfg.seed, repetition))
