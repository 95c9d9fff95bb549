"""Shared test utilities: finite-difference oracles, the sequential-sum
reference, and parameter flattening.

The central-difference gradient check is the independent oracle backing
every analytic-gradient assertion in the suite.  All loss values here are
piecewise quadratic, so away from hinge kinks the central difference is
exact up to float roundoff; the random-instance generators below resample
until every hinge argument sits clear of its kink.
"""

from __future__ import annotations

import numpy as np

from sclmetric import model

FD_STEP = 1e-5


def loop_sum(values, start=0.0):
    """``start`` plus each value in turn: the left-to-right float reference.
    (Python's ``sum`` of floats is compensated from 3.12, so it is not one.)"""
    total = start
    for v in values:
        total += v
    return total


def central_difference(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Per-coordinate (f(x+h e_k) - f(x-h e_k)) / 2h."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for k in range(x.size):
        up = x.copy()
        down = x.copy()
        up[k] += h
        down[k] -= h
        grad[k] = (f(up) - f(down)) / (2.0 * h)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max-norm difference scaled by the larger of 1 and the gradients."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(1.0, np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0))
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def flatten_params(m: model.ModelParams) -> np.ndarray:
    chunks = []
    for layer in m.layers:
        chunks.append(layer.weight.ravel())
        chunks.append(layer.bias)
    return np.concatenate(chunks)


def unflatten_params(m: model.ModelParams, flat: np.ndarray) -> model.ModelParams:
    layers = []
    offset = 0
    for layer in m.layers:
        w_size = layer.weight.size
        weight = flat[offset : offset + w_size].reshape(layer.weight.shape)
        offset += w_size
        bias = flat[offset : offset + layer.out_dim]
        offset += layer.out_dim
        layers.append(model.Layer(weight, bias, layer.activation))
    return model.ModelParams(tuple(layers))


def flatten_grads(grads) -> np.ndarray:
    chunks = []
    for gw, gb in grads:
        chunks.append(gw.ravel())
        chunks.append(gb)
    return np.concatenate(chunks)


def away_from(value: float, kinks, clearance: float = 1e-3) -> bool:
    """True when `value` is at least `clearance` from every kink point."""
    return all(abs(value - k) > clearance for k in kinks)
