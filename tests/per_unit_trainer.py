"""The per-unit training loop that the batched trainer replaced, kept as a
test oracle for :func:`sclmetric.training.train`.

It walks each batch unit by unit and slot by slot: one ``W @ x`` forward
per slot, the loss of the unit in scalar form, one ``np.outer`` /
``W.T @ dz`` backward per slot whose loss gradient is nonzero, gradients
summed from zero in (unit, slot) order, and one Adam step per batch.  The
network, the losses, the backward pass and Adam are written out here and
share no code with the library; the units come from the library's miners
and batcher with the trainer's seeds, because they are the input of the
loop, not what it computes.
"""

from __future__ import annotations

import math

import numpy as np

from sclmetric import mining


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def init_layers(dims, seed):
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        scale = np.sqrt(6.0 / (fan_in + fan_out))
        layers.append([rng.uniform(-scale, scale, size=(fan_out, fan_in)), np.zeros(fan_out)])
    return layers


def forward(layers, x):
    inputs, preacts = [], []
    a = x
    for li, (w, b) in enumerate(layers):
        inputs.append(a)
        z = w @ a + b
        preacts.append(z)
        a = z if li == len(layers) - 1 else np.maximum(z, 0.0)
    return a, (inputs, preacts)


def backward(layers, trace, g, frozen):
    inputs, preacts = trace
    grads = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        dz = g if li == len(layers) - 1 else g * (preacts[li] > 0.0)
        if li < frozen:
            grads[li] = (np.zeros_like(w), np.zeros(w.shape[0]))
        else:
            grads[li] = (np.outer(dz, inputs[li]), dz.copy())
        g = w.T @ dz
    return grads


def sq(u, v) -> float:
    total = 0.0
    for uk, vk in zip(u.tolist(), v.tolist()):
        d = uk - vk
        total += d * d
    return total


def scl_loss(label, e, alpha1, alpha2):
    a, b, c = e["a"], e["b"], e.get("c")
    if label == 0:
        if c is None:
            return sq(a, b), {"a": 2.0 * (a - b), "b": 2.0 * (b - a)}
        return sq(a, b) + sq(b, c), {"a": 2.0 * (a - b), "b": 2.0 * (b - a) + 2.0 * (b - c), "c": 2.0 * (c - b)}
    grads = {"a": np.zeros_like(a), "b": np.zeros_like(b)}
    value = 0.0
    d_ab = sq(a, b)
    if d_ab < alpha1:
        value += alpha1 - d_ab
        grads["a"] = grads["a"] - 2.0 * (a - b)
        grads["b"] = grads["b"] + 2.0 * (a - b)
    if c is not None:
        grads["c"] = np.zeros_like(c)
        d_bc = sq(b, c)
        if d_bc < alpha2:
            value += alpha2 - d_bc
            grads["b"] = grads["b"] - 2.0 * (b - c)
            grads["c"] = grads["c"] + 2.0 * (b - c)
    return value, grads


def cl_loss(label, e, margin):
    x1, x2 = e["a"], e["b"]
    diff = x1 - x2
    d2 = sq(x1, x2)
    dist = math.sqrt(d2)
    if label == 0:
        return 0.5 * d2, {"a": diff.copy(), "b": -diff}
    zeros = {"a": np.zeros_like(x1), "b": np.zeros_like(x2)}
    if dist >= margin:
        return 0.0, zeros
    value = 0.5 * (margin - dist) ** 2
    if dist == 0.0:
        return value, zeros
    coef = -(margin - dist) / dist
    return value, {"a": coef * diff, "b": -coef * diff}


def tl_loss(e, margin):
    a, p, n = e["a"], e["b"], e["c"]
    arg = sq(a, p) - sq(a, n) + margin
    if arg <= 0:
        return 0.0, {"a": np.zeros_like(a), "b": np.zeros_like(p), "c": np.zeros_like(n)}
    return arg, {"a": 2.0 * (n - p), "b": 2.0 * (p - a), "c": 2.0 * (a - n)}


def unit_slots(loss, unit):
    if loss == "scl":
        slots = [("a", unit.a), ("b", unit.b)]
        return slots + [("c", unit.c)] if unit.c is not None else slots
    if loss == "cl":
        return [("a", unit.first), ("b", unit.second)]
    return [("a", unit.anchor), ("b", unit.positive), ("c", unit.negative)]


def unit_loss(cfg, label, e):
    if cfg.loss == "scl":
        return scl_loss(label, e, cfg.alpha1, cfg.alpha2)
    if cfg.loss == "cl":
        return cl_loss(label, e, cfg.cl_margin)
    return tl_loss(e, cfg.tl_margin)


def mine_epoch(ds, cfg, epoch):
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


def train(ds, cfg):
    """Parameters as ``[[W, b], ...]`` and per-epoch
    ``(sum_loss, mean_genuine, mean_imposter)``."""
    layers = init_layers([ds.dimension, *cfg.hidden_dims], cfg.seed)
    m = [[np.zeros_like(w), np.zeros_like(b)] for w, b in layers]
    v = [[np.zeros_like(w), np.zeros_like(b)] for w, b in layers]
    b1, b2, eps, t = 0.9, 0.999, 1e-8, 0
    log = []
    for epoch in range(cfg.epochs):
        genuine, imposter = mine_epoch(ds, cfg, epoch)
        batches = mining.make_batches(genuine, imposter, cfg.batch_size, derive_seed(cfg.seed, epoch, 3))
        sums, counts = [0.0, 0.0], [0, 0]
        for batch in batches:
            grads = [[np.zeros_like(w), np.zeros_like(b)] for w, b in layers]
            for label, units in ((0, batch.genuine_sets), (1, batch.imposter_sets)):
                for unit in units:
                    embedded, traces = {}, {}
                    for slot, sample in unit_slots(cfg.loss, unit):
                        embedded[slot], traces[slot] = forward(layers, sample.embedding)
                    value, slot_grads = unit_loss(cfg, label, embedded)
                    sums[label] += value
                    counts[label] += 1
                    for slot, g in slot_grads.items():
                        if g.any():
                            for total, part in zip(grads, backward(layers, traces[slot], g, cfg.freeze)):
                                total[0] = total[0] + part[0]
                                total[1] = total[1] + part[1]
            t += 1
            for li, (w, b) in enumerate(layers):
                for k, (param, g) in enumerate(((w, grads[li][0]), (b, grads[li][1]))):
                    m[li][k] = b1 * m[li][k] + (1.0 - b1) * g
                    v[li][k] = b2 * v[li][k] + (1.0 - b2) * g * g
                    m_hat = m[li][k] / (1.0 - b1**t)
                    v_hat = v[li][k] / (1.0 - b2**t)
                    layers[li][k] = param - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        total = counts[0] + counts[1]
        if cfg.loss == "tl":
            mean_genuine = mean_imposter = (sums[0] + sums[1]) / total if total else 0.0
        else:
            mean_genuine = sums[0] / counts[0] if counts[0] else 0.0
            mean_imposter = sums[1] / counts[1] if counts[1] else 0.0
        log.append((sums[0] + sums[1], mean_genuine, mean_imposter))
    return layers, log
