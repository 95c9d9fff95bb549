"""A small fully connected embedding network with explicit backprop.

The map is a chain of affine layers with ReLU between them and an identity
output, initialized with Glorot-uniform weights and zero biases.  Forward
returns both the embedding and an activation trace; backward consumes the
trace and a gradient w.r.t. the output and produces per-layer parameter
gradients, zeroing the leading ``frozen_layer_count`` layers so a frozen
prefix never moves under any optimizer.

Checkpoints are a versioned binary format::

    magic   8 bytes   b"SCLCKPT\\x00"
    version u32 LE    currently 1
    layers  u32 LE    layer count, then per layer: out u32, in u32, act u8
    data    ModelParams.vector, float64 LE: per layer, row-major weight then bias
    meta    u32 LE byte length + UTF-8 JSON (epoch, seed, loss history, ...)

Loading refuses unknown versions and raises on truncated or mangled files
and on non-finite parameters; a save/load round trip reproduces parameters
bit-exactly.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, ConfigError, DataError, DimensionMismatchError

_MAGIC = b"SCLCKPT\x00"
CHECKPOINT_VERSION = 1
_ACT_CODES = {"identity": 0, "relu": 1}
_ACT_NAMES = {code: name for name, code in _ACT_CODES.items()}


def _immutable(a: np.ndarray) -> bool:
    """Whether nothing can write ``a``'s memory: every array down its base chain
    is read-only and the chain ends in ``bytes``."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return isinstance(a.obj if isinstance(a, memoryview) else a, bytes)


@dataclass(frozen=True, eq=False)
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise DataError(f"layer shapes inconsistent: weight {w.shape}, bias {b.shape}")
        if self.activation not in _ACT_CODES:
            raise DataError(f"unknown activation {self.activation!r}")
        for name, a in (("weight", w), ("bias", b)):
            # A copy backed by bytes, so the caller's array stays writable and unshared and nothing
            # can make the copy writable again.
            a = a if _immutable(a) else np.frombuffer(a.tobytes()).reshape(a.shape)
            object.__setattr__(self, name, a)

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


def _split(vector: np.ndarray, shapes) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """``(weight, bias, activation)`` per layer of the given ``(out, in, activation)`` shapes, with
    weight and bias views of ``vector`` in the checkpoint's data layout, which no other code knows."""
    views, at = [], 0
    for out_dim, in_dim, act in shapes:
        end = at + out_dim * in_dim
        views.append((vector[at:end].reshape(out_dim, in_dim), vector[end : end + out_dim], act))
        at = end + out_dim
    return views


@dataclass(frozen=True, eq=False)
class ModelParams:
    """The network.  ``vector`` is a read-only copy of every parameter in checkpoint
    order; the layers' weights and biases are views into it."""

    layers: tuple[Layer, ...]
    vector: np.ndarray = field(init=False, repr=False)
    _shapes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not self.layers:
            raise DataError("model needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise DataError(f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}")
        if self.layers[-1].activation != "identity":
            raise DataError("final layer activation must be identity")
        object.__setattr__(self, "_shapes", tuple((l.out_dim, l.in_dim, l.activation) for l in self.layers))
        self._hold(self.join([(l.weight, l.bias) for l in self.layers]))

    def _hold(self, vector: np.ndarray) -> ModelParams:
        """Hold one bytes-backed copy of ``vector``, which nothing can write, and the layers as views of it."""
        vector = np.frombuffer(np.asarray(vector, dtype=np.float64).tobytes())
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "layers", tuple(Layer(*view) for view in _split(vector, self._shapes)))
        return self

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    def _fits(self, vector: np.ndarray) -> np.ndarray:
        if np.shape(vector) != self.vector.shape:
            raise ConfigError(f"vector shape {np.shape(vector)} does not match parameter vector {self.vector.shape}")
        return vector

    def split(self, vector: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per-layer ``(weight, bias)`` views of a vector laid out like ``self.vector``."""
        return tuple((w, b) for w, b, _ in _split(self._fits(vector), self._shapes))

    def join(self, pairs) -> np.ndarray:
        """A new vector laid out like ``self.vector`` from ``(weight, bias)`` pairs shaped like the layers."""
        if len(pairs) != len(self._shapes):
            raise ConfigError("gradient structure does not match model depth")
        vector = np.empty(sum(out_dim * in_dim + out_dim for out_dim, in_dim, _ in self._shapes))
        for (w, b, _), (pw, pb) in zip(_split(vector, self._shapes), pairs):
            if pw.shape != w.shape or pb.shape != b.shape:
                raise ConfigError(f"gradient shapes {pw.shape}/{pb.shape} do not match layer {w.shape}/{b.shape}")
            w[...], b[...] = pw, pb
        return vector

    def with_vector(self, vector: np.ndarray) -> ModelParams:
        """The same architecture, unchecked again, holding a read-only copy of ``vector``."""
        params = object.__new__(ModelParams)
        object.__setattr__(params, "_shapes", self._shapes)
        return params._hold(self._fits(vector))

    def __eq__(self, other):
        if not isinstance(other, ModelParams):
            return NotImplemented
        return self._shapes == other._shapes and np.array_equal(self.vector, other.vector)


@dataclass(frozen=True)
class FreezeMask:
    """How many leading layers are excluded from parameter updates."""

    frozen_layer_count: int = 0

    def __post_init__(self):
        if self.frozen_layer_count < 0:
            raise ConfigError("frozen_layer_count must be >= 0")


@dataclass(frozen=True)
class ForwardTrace:
    """Per-layer inputs and pre-activations retained for the backward pass."""

    inputs: tuple[np.ndarray, ...]
    preacts: tuple[np.ndarray, ...]
    output: np.ndarray


@dataclass(frozen=True)
class Checkpoint:
    format_version: int
    params: ModelParams
    metadata: dict


def init_model(dims: list[int], seed: int) -> ModelParams:
    """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases.

    ``dims`` lists layer widths input-first, e.g. ``[4, 8, 3]`` builds two
    layers (8x4 relu, 3x8 identity).  Deterministic per seed.
    """
    if len(dims) < 2:
        raise ConfigError("dims must list at least input and output widths")
    if any(d < 1 for d in dims):
        raise ConfigError(f"layer widths must be positive, got {dims}")
    rng = np.random.default_rng(seed)
    layers = []
    for li, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        scale = np.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-scale, scale, size=(fan_out, fan_in))
        activation = "identity" if li == len(dims) - 2 else "relu"
        layers.append(Layer(weight, np.zeros(fan_out), activation))
    return ModelParams(tuple(layers))


def identity_model(dim: int) -> ModelParams:
    """A single identity layer; handy wherever raw inputs should pass through."""
    return ModelParams((Layer(np.eye(dim), np.zeros(dim), "identity"),))


def forward(m: ModelParams, x) -> tuple[np.ndarray, ForwardTrace]:
    """Apply the network to one input vector or to each row of an (n, in)
    matrix, keeping the activation trace.  Each layer is ``np.matmul(W, a[..., None])``,
    one BLAS gemv per row, so a row gets the same bits alone or in any batch
    (plain ``X @ W.T`` is a gemm and rounds differently)."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape[-1] != m.input_dim:
        raise DimensionMismatchError(
            f"input shape {a.shape} does not match model input dim {m.input_dim}"
        )
    inputs = []
    preacts = []
    for layer in m.layers:
        inputs.append(a)
        z = np.matmul(layer.weight, a[..., None])[..., 0] + layer.bias
        preacts.append(z)
        a = np.maximum(z, 0.0) if layer.activation == "relu" else z
    return a, ForwardTrace(tuple(inputs), tuple(preacts), a)


def _fold(dz: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(dW, db)``, the sums of ``dz[r] (x[r], 1)^T`` in row order from +0.0: each
    entry of the C-ordered einsum block is one exact product, and ``np.add.reduce``
    on axis 0 adds rows >= 2 wide in order.  256 KiB blocks, carry in row 0."""
    x1 = np.concatenate((x, np.ones((len(x), 1))), axis=1)
    total = np.zeros((dz.shape[1], x1.shape[1]))
    step = max(1, (1 << 15) // total.size)
    for start in range(0, len(dz), step):
        block = np.einsum("ro,ri->roi", dz[start : start + step], x1[start : start + step], order="C")
        block[0] += total
        total = np.add.reduce(block, axis=0)
    return total[:, :-1], total[:, -1]


def backward(m: ModelParams, trace: ForwardTrace, grad_out, freeze: FreezeMask = FreezeMask()):
    """Chain-rule the output gradient into per-layer (dW, db) pairs.

    For a trace of rows ``grad_out`` has one row each; every parameter gradient
    sums per-row outer products in row order from +0.0 (a lone vector returns its
    products as they are), and ``np.matmul(W.T, dz[..., None])`` sends the gradient
    down, one gemv per row.  Rows with an all-zero ``grad_out`` are skipped, exact
    for a finite trace: they add only +-0.0 (an ``inf`` activation in one made NaN).
    Frozen layers get exactly-zero gradients; the trace must come from this model.
    """
    if freeze.frozen_layer_count > len(m.layers):
        raise ConfigError(
            f"cannot freeze {freeze.frozen_layer_count} of {len(m.layers)} layers"
        )
    if len(trace.inputs) != len(m.layers):
        raise DataError("trace does not match model depth")
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != trace.inputs[0].shape[:-1] + (m.output_dim,):
        raise DimensionMismatchError(f"grad_out shape {g.shape} does not match output dim {m.output_dim}")
    rows = (g != 0.0).any(axis=1) if g.ndim == 2 else slice(None)
    g = g[rows]
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(m.layers)
    for li in range(len(m.layers) - 1, -1, -1):
        layer = m.layers[li]
        x_in, z = trace.inputs[li], trace.preacts[li]
        if x_in.shape[-1] != layer.in_dim or z.shape[-1] != layer.out_dim:
            raise DataError("trace shapes do not match model layer shapes")
        if li < freeze.frozen_layer_count:
            grads[li] = (np.zeros_like(layer.weight), np.zeros_like(layer.bias))
            continue
        dz = g * (z[rows] > 0.0) if layer.activation == "relu" else g
        grads[li] = _fold(dz, x_in[rows]) if g.ndim == 2 else (dz[:, None] * x_in, dz.copy())
        if li > freeze.frozen_layer_count:
            g = np.matmul(layer.weight.T, dz[..., None])[..., 0]
    return tuple(grads)


def zero_gradients(m: ModelParams):
    """An all-zero gradient structure shaped like the model's parameters."""
    return m.split(np.zeros_like(m.vector))


def add_gradients(total, extra):
    """Accumulate two gradient structures (elementwise sum)."""
    return tuple((tw + ew, tb + eb) for (tw, tb), (ew, eb) in zip(total, extra))


def save_checkpoint(m: ModelParams, metadata: dict, path) -> None:
    """Write the versioned binary checkpoint described in the module docs."""
    meta_bytes = json.dumps(metadata, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(m.layers)))
        fh.write(b"".join(struct.pack("<IIB", o, i, _ACT_CODES[act]) for o, i, act in m._shapes))
        fh.write(np.ascontiguousarray(m.vector, dtype="<f8").tobytes())
        fh.write(struct.pack("<I", len(meta_bytes)) + meta_bytes)


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read_exact(fh, n: int, what: str) -> bytes:
    # Checked before reading, so a mangled size never turns into a huge read.
    if n > _bytes_left(fh):
        raise CheckpointError(f"corrupt checkpoint: truncated while reading {what}")
    return fh.read(n)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint, refusing unknown versions and mangled files.

    The layer sizes the header declares are checked against the bytes left
    in the file before any weight is read, so a mangled header fails as
    :class:`CheckpointError` instead of asking for a huge read.
    """
    with open(path, "rb") as fh:
        if _read_exact(fh, len(_MAGIC), "magic") != _MAGIC:
            raise CheckpointError("corrupt checkpoint: bad magic string")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}"
            )
        (n_layers,) = struct.unpack("<I", _read_exact(fh, 4, "layer count"))
        if n_layers == 0:
            raise CheckpointError("corrupt checkpoint: zero layers")
        shapes = []
        for li in range(n_layers):
            out_dim, in_dim, act = struct.unpack("<IIB", _read_exact(fh, 9, f"layer {li} header"))
            if act not in _ACT_NAMES or out_dim == 0 or in_dim == 0:
                raise CheckpointError(f"corrupt checkpoint: bad layer {li} header")
            shapes.append((out_dim, in_dim, _ACT_NAMES[act]))
        declared = sum(8 * out_dim * in_dim + 8 * out_dim for out_dim, in_dim, _ in shapes)
        if declared + 4 > _bytes_left(fh):
            raise CheckpointError(
                f"corrupt checkpoint: truncated, layers declare {declared} bytes, {_bytes_left(fh)} left"
            )
        vector = np.frombuffer(fh.read(declared), dtype="<f8")
        bad = np.flatnonzero(~np.isfinite(vector))
        if bad.size:
            raise CheckpointError(f"corrupt checkpoint: non-finite parameter {vector[bad[0]]} at index {bad[0]}")
        (meta_len,) = struct.unpack("<I", _read_exact(fh, 4, "metadata length"))
        meta_bytes = _read_exact(fh, meta_len, "metadata")
        trailing = fh.read(1)
        if trailing:
            raise CheckpointError("corrupt checkpoint: trailing bytes after metadata")
    try:
        metadata = json.loads(meta_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint: bad metadata ({exc})") from None
    try:
        params = ModelParams(tuple(Layer(*view) for view in _split(vector, shapes)))
    except DataError as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from None
    return Checkpoint(version, params, metadata)
