"""Embedding network: init, forward/backward, freezing, and checkpoints."""

import struct

import numpy as np
import pytest

from sclmetric import losses, model
from sclmetric.errors import CheckpointError, ConfigError, DataError, DimensionMismatchError
from sclmetric.model import FreezeMask, backward, forward, identity_model, init_model

from helpers import central_difference, flatten_grads, flatten_params, relative_error, unflatten_params


def reference_forward(m: model.ModelParams, x):
    """Independent straightforward evaluator: explicit loops, no shared code."""
    a = [float(v) for v in x]
    for layer in m.layers:
        out = []
        for row, b in zip(layer.weight.tolist(), layer.bias.tolist()):
            z = b
            for w, xi in zip(row, a):
                z += w * xi
            out.append(max(z, 0.0) if layer.activation == "relu" else z)
        a = out
    return np.array(a)


class TestInitModel:
    def test_shapes(self):
        m = init_model([4, 8, 3], seed=0)
        assert len(m.layers) == 2
        assert m.layers[0].weight.shape == (8, 4)
        assert m.layers[1].weight.shape == (3, 8)
        assert m.input_dim == 4 and m.output_dim == 3

    def test_deterministic(self):
        assert init_model([4, 8, 3], seed=3) == init_model([4, 8, 3], seed=3)
        assert init_model([4, 8, 3], seed=3) != init_model([4, 8, 3], seed=4)

    def test_glorot_bounds_and_zero_bias(self):
        m = init_model([6, 10, 2], seed=1)
        for layer in m.layers:
            bound = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
            assert np.all(np.abs(layer.weight) <= bound)
            assert not layer.bias.any()

    def test_activations(self):
        m = init_model([4, 8, 8, 3], seed=0)
        assert [l.activation for l in m.layers] == ["relu", "relu", "identity"]

    def test_rejects_empty_dims(self):
        with pytest.raises(ConfigError):
            init_model([4], seed=0)


class TestForward:
    def test_identity_model_passes_through(self):
        m = identity_model(3)
        x = np.array([1.5, -2.0, 0.25])
        y, trace = forward(m, x)
        assert np.array_equal(y, x)
        assert np.array_equal(trace.output, x)

    def test_relu_zeroes_negative_preactivations(self):
        layer = model.Layer(-np.eye(3), np.zeros(3), "relu")
        out = model.Layer(np.eye(3), np.zeros(3), "identity")
        m = model.ModelParams((layer, out))
        y, _ = forward(m, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(y, np.zeros(3))

    def test_matches_independent_evaluator(self):
        rng = np.random.default_rng(17)
        for seed in range(10):
            m = init_model([5, 7, 4], seed=seed)
            x = rng.normal(size=5)
            y, _ = forward(m, x)
            assert np.allclose(y, reference_forward(m, x), rtol=1e-12, atol=1e-12)

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            forward(init_model([4, 3], seed=0), np.zeros(5))

    def test_pure(self):
        m = init_model([4, 6, 3], seed=2)
        x = np.array([0.5, 1.0, -1.0, 2.0])
        y1, _ = forward(m, x)
        y2, _ = forward(m, x)
        assert np.array_equal(y1, y2)


class TestBackward:
    def test_identity_layer_gradients(self):
        m = identity_model(3)
        x = np.array([1.0, 2.0, 3.0])
        g = np.array([0.1, -0.2, 0.3])
        _, trace = forward(m, x)
        (dw, db), = backward(m, trace, g)
        assert np.array_equal(dw, np.outer(g, x))
        assert np.array_equal(db, g)

    def test_full_freeze_zeroes_everything(self):
        m = init_model([4, 6, 3], seed=0)
        _, trace = forward(m, np.ones(4))
        grads = backward(m, trace, np.ones(3), FreezeMask(2))
        for dw, db in grads:
            assert not dw.any() and not db.any()

    def test_partial_freeze_zeroes_prefix_only(self):
        m = init_model([4, 6, 3], seed=0)
        _, trace = forward(m, np.ones(4))
        grads = backward(m, trace, np.ones(3), FreezeMask(1))
        assert not grads[0][0].any()
        assert grads[1][0].any()

    def test_freeze_beyond_depth_rejected(self):
        m = init_model([4, 3], seed=0)
        _, trace = forward(m, np.ones(4))
        with pytest.raises(ConfigError):
            backward(m, trace, np.ones(3), FreezeMask(5))

    def test_trace_model_mismatch(self):
        m1 = init_model([4, 6, 3], seed=0)
        m2 = init_model([4, 3], seed=0)
        _, trace = forward(m1, np.ones(4))
        with pytest.raises(DataError):
            backward(m2, trace, np.ones(3))

    def _loss_through_net(self, m, xa, xb, xc):
        ea, ta = forward(m, xa)
        eb, tb = forward(m, xb)
        ec, tc = forward(m, xc)
        lv = losses.scl_intra_loss(ea, eb, ec)
        grads = model.zero_gradients(m)
        for slot, trace in (("a", ta), ("b", tb), ("c", tc)):
            grads = model.add_gradients(grads, backward(m, trace, lv.gradient(slot)))
        return lv.value, grads

    def test_loss_through_network_finite_difference(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 20:
            m = init_model([8, 6, 4], seed=int(rng.integers(10_000)))
            xa, xb, xc = rng.normal(size=(3, 8))
            # keep every relu pre-activation clear of its kink so the
            # central difference stays exact for this piecewise-quadratic map
            clear = True
            for x in (xa, xb, xc):
                _, trace = forward(m, x)
                for z in trace.preacts[:-1]:
                    if np.abs(z).min() < 1e-3:
                        clear = False
            if not clear:
                continue
            _, grads = self._loss_through_net(m, xa, xb, xc)
            flat = flatten_params(m)

            def f(theta):
                m2 = unflatten_params(m, theta)
                value, _ = self._loss_through_net(m2, xa, xb, xc)
                return value

            fd = central_difference(f, flat)
            assert relative_error(flatten_grads(grads), fd) < 1e-4
            checked += 1


class TestRows:
    """A matrix of rows gives exactly the bits of one pass per row."""

    DIMS = ([5, 7, 4], [16, 32, 16], [6, 3, 1], [3, 1])

    @staticmethod
    def row_layouts(rng, n, width):
        base = rng.normal(size=(2 * n + 3, width))
        yield base[:n]
        yield base[rng.permutation(len(base))[:n]]  # gathered rows
        yield base[1 : 2 * n + 1 : 2]  # strided rows
        yield np.asfortranarray(base[:n])  # column-major rows
        yield rng.normal(size=(n, 2 * width))[:, ::2]  # strided columns

    def test_forward_equals_per_row(self):
        rng = np.random.default_rng(31)
        for dims in self.DIMS:
            m = init_model(dims, seed=int(rng.integers(1000)))
            for n in (1, 2, 9, 150):
                for x in self.row_layouts(rng, n, dims[0]):
                    y, trace = forward(m, x)
                    for i, row in enumerate(x):
                        y_row, trace_row = forward(m, np.array(row))
                        assert y[i].tobytes() == y_row.tobytes()
                        for z, z_row in zip(trace.preacts, trace_row.preacts):
                            assert z[i].tobytes() == z_row.tobytes()

    @pytest.mark.parametrize("frozen", [0, 1, 2])
    def test_backward_equals_fold_of_per_row_backward(self, frozen):
        rng = np.random.default_rng(37 + frozen)
        for dims in self.DIMS:
            if frozen > len(dims) - 1:
                continue
            m = init_model(dims, seed=int(rng.integers(1000)))
            for n in (1, 2, 9, 150):
                x = next(self.row_layouts(rng, n, dims[0]))
                g = rng.normal(size=(n, dims[-1])) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
                g[rng.random(n) < 0.3] = 0.0  # rows with a zero loss gradient
                _, trace = forward(m, x)
                grads = backward(m, trace, g, FreezeMask(frozen))
                folded = model.zero_gradients(m)
                for row, g_row in zip(x, g):
                    _, trace_row = forward(m, np.array(row))
                    folded = model.add_gradients(folded, backward(m, trace_row, g_row, FreezeMask(frozen)))
                for li, ((gw, gb), (fw, fb)) in enumerate(zip(grads, folded)):
                    assert gw.tobytes() == fw.tobytes() and gb.tobytes() == fb.tobytes()
                    if li < frozen:
                        assert not gw.any() and not gb.any()

    def test_no_rows_give_zero_gradients(self):
        m = init_model([5, 7, 4], seed=3)
        _, trace = forward(m, np.zeros((0, 5)))
        for (gw, gb), layer in zip(backward(m, trace, np.zeros((0, 4))), m.layers):
            assert gw.shape == layer.weight.shape and not gw.any() and not gb.any()

    def test_wrong_widths_rejected(self):
        m = init_model([5, 7, 4], seed=3)
        for bad in (np.zeros((3, 6)), np.zeros((3, 4)), np.zeros((2, 3, 5))):
            with pytest.raises(DimensionMismatchError):
                forward(m, bad)
        _, trace = forward(m, np.zeros((3, 5)))
        for bad in (np.zeros((3, 5)), np.zeros((2, 4)), np.zeros(4)):
            with pytest.raises(DimensionMismatchError):
                backward(m, trace, bad)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        m = init_model([5, 8, 4], seed=9)
        meta = {"epoch": 30, "seed": 9, "loss_history": [3.0, 2.0, 1.5]}
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(m, meta, path)
        ckpt = model.load_checkpoint(path)
        assert ckpt.params == m
        assert ckpt.metadata == meta
        assert ckpt.format_version == model.CHECKPOINT_VERSION

    def test_truncated_file_is_corrupt(self, tmp_path):
        m = init_model([5, 8, 4], seed=9)
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(m, {}, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            model.load_checkpoint(path)

    def test_version_bump_rejected(self, tmp_path):
        m = init_model([5, 4], seed=0)
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(m, {}, path)
        data = bytearray(path.read_bytes())
        data[8] = 99  # version field follows the 8-byte magic
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            model.load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            model.load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        m = init_model([3, 2], seed=0)
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(m, {}, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CheckpointError, match="trailing"):
            model.load_checkpoint(path)


class TestCheckpointFuzz:
    """Every truncation and every mangled header size fails as CheckpointError,
    before the loader asks for more bytes than the file holds."""

    HEADER = 16  # magic, version, layer count; then 9 bytes per layer

    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(init_model([5, 8, 4], seed=9), {"epoch": 3}, path)
        return path, path.read_bytes()

    def test_truncated_at_every_offset(self, saved):
        path, data = saved
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(CheckpointError):
                model.load_checkpoint(path)

    def test_mangled_layer_dimensions(self, saved):
        path, data = saved
        big = 2**32 - 1
        for li, (out_dim, in_dim) in enumerate([(8, 5), (4, 8)]):
            offset = self.HEADER + 9 * li
            for dims in [
                (big, big), (big, in_dim), (out_dim, big), (in_dim, out_dim),
                (out_dim + 1, in_dim), (out_dim, in_dim + 1), (out_dim - 1, in_dim), (out_dim, in_dim - 1),
            ]:
                mangled = bytearray(data)
                mangled[offset : offset + 8] = struct.pack("<II", *dims)
                path.write_bytes(bytes(mangled))
                with pytest.raises(CheckpointError):
                    model.load_checkpoint(path)

    def test_mangled_layer_count(self, saved):
        path, data = saved
        for n_layers in (1, 3, 2**16, 2**32 - 1):
            mangled = bytearray(data)
            mangled[12:16] = struct.pack("<I", n_layers)
            path.write_bytes(bytes(mangled))
            with pytest.raises(CheckpointError):
                model.load_checkpoint(path)

    def test_mangled_metadata_length(self, saved):
        path, data = saved
        meta_at = self.HEADER + 18 + 8 * (8 * 5 + 8 + 4 * 8 + 4)
        for meta_len in (0, 2**32 - 1):
            mangled = bytearray(data)
            mangled[meta_at : meta_at + 4] = struct.pack("<I", meta_len)
            path.write_bytes(bytes(mangled))
            with pytest.raises(CheckpointError):
                model.load_checkpoint(path)
