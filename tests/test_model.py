"""Embedding network: init, forward/backward, freezing, and checkpoints."""

import re
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


def loop_backward(m: model.ModelParams, trace, grad_out, frozen: int = 0):
    """The per-row oracle: each layer's gradients are ``total = total + dz[r]
    (x) x[r]`` over every row in order from +0.0, zero rows included, and the
    gradient goes down one row at a time as ``W.T @ dz[r]``."""
    g = np.atleast_2d(np.asarray(grad_out, dtype=np.float64))
    grads = [None] * len(m.layers)
    for li in range(len(m.layers) - 1, -1, -1):
        layer = m.layers[li]
        x_in, z = np.atleast_2d(trace.inputs[li]), np.atleast_2d(trace.preacts[li])
        dz = g * (z > 0.0) if layer.activation == "relu" else g
        total_w, total_b = np.zeros(layer.weight.shape), np.zeros(layer.out_dim)
        for r in range(len(dz) if li >= frozen else 0):
            total_w = total_w + np.multiply.outer(dz[r], x_in[r])
            total_b = total_b + dz[r]
        grads[li] = (total_w, total_b)
        g = np.array([layer.weight.T @ row for row in dz]).reshape(len(dz), layer.in_dim)
    return grads


def fold_steps(dims):
    """Rows per block of each layer's fold: 256 KiB of out x (in + 1) products."""
    return [max(1, (1 << 15) // (out * (inp + 1))) for inp, out in zip(dims, dims[1:])]


class TestFoldDifferential:
    """``backward`` against :func:`loop_backward`, compared by ``tobytes()``."""

    DIMS = ([1, 1], [3, 1], [1, 4], [4, 1, 3], [6, 9, 5])

    @staticmethod
    def batch(rng, n, width, zero_rows=True):
        g = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-4, 5, size=(n, width))
        if zero_rows:
            pick = rng.random(n)
            g[pick < 0.25] = 0.0
            g[(pick >= 0.25) & (pick < 0.4)] = -0.0
        return g

    def assert_same(self, m, trace, g, frozen=0):
        grads = backward(m, trace, g, FreezeMask(frozen))
        for (gw, gb), (lw, lb) in zip(grads, loop_backward(m, trace, g, frozen)):
            assert gw.tobytes() == lw.tobytes() and gb.tobytes() == lb.tobytes()
        return grads

    @pytest.mark.parametrize("dims", DIMS, ids=str)
    def test_row_counts_around_the_block_step(self, dims):
        rng = np.random.default_rng(sum(dims))
        m = init_model(dims, seed=len(dims))
        counts = {1, 2}
        for step in fold_steps(dims):
            counts |= {step - 1, step, step + 1, 3 * step + 2}
        for n in sorted(c for c in counts if c > 0):
            x = rng.normal(size=(n, dims[0])) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
            _, trace = forward(m, x)
            self.assert_same(m, trace, self.batch(rng, n, dims[-1]))

    @pytest.mark.parametrize("frozen", [0, 1])
    def test_column_major_and_gathered_rows(self, frozen):
        rng = np.random.default_rng(41 + frozen)
        for dims in self.DIMS:
            m = init_model(dims, seed=int(rng.integers(1000)))
            n = min(3 * min(fold_steps(dims)) + 2, 2000)
            base = rng.normal(size=(2 * n, dims[0]))
            for x in (np.asfortranarray(base[:n]), base[rng.permutation(2 * n)[:n]]):
                _, trace = forward(m, x)
                self.assert_same(m, trace, np.asfortranarray(self.batch(rng, n, dims[-1])), frozen)

    def test_fold_orders_column_major_rows(self):
        rng = np.random.default_rng(53)
        dz = np.asfortranarray(self.batch(rng, 300, 3))
        x = np.asfortranarray(rng.normal(size=(300, 2)) * 10.0 ** rng.integers(-4, 5, size=(300, 1)))
        total_w, total_b = np.zeros((3, 2)), np.zeros(3)
        for r in range(300):
            total_w = total_w + np.multiply.outer(dz[r], x[r])
            total_b = total_b + dz[r]
        dw, db = model._fold(dz, x)
        assert dw.tobytes() == total_w.tobytes() and db.tobytes() == total_b.tobytes()

    def test_negative_zero_rows_and_all_zero_batch(self):
        rng = np.random.default_rng(43)
        for dims in self.DIMS:
            m = init_model(dims, seed=7)
            _, trace = forward(m, rng.normal(size=(20, dims[0])))
            for g in (np.full((20, dims[-1]), -0.0), np.zeros((20, dims[-1]))):
                for gw, gb in self.assert_same(m, trace, g):
                    assert not gw.any() and not np.signbit(gw).any()
                    assert not gb.any() and not np.signbit(gb).any()

    def test_single_vector_matches_a_one_row_batch(self):
        rng = np.random.default_rng(47)
        for dims in self.DIMS:
            m = init_model(dims, seed=11)
            x = rng.normal(size=dims[0])
            g = self.batch(rng, 1, dims[-1], zero_rows=False)[0]
            g[0] = -0.0
            _, trace = forward(m, x)
            _, trace_rows = forward(m, x[None, :])
            grads = backward(m, trace, g)
            batch = backward(m, trace_rows, g[None, :])
            for (gw, gb), (rw, rb), (lw, lb) in zip(grads, batch, loop_backward(m, trace, g)):
                # a lone vector's gradients are its products: a -0.0 product stays -0.0
                assert (gw + 0.0).tobytes() == rw.tobytes() == lw.tobytes()
                assert (gb + 0.0).tobytes() == rb.tobytes() == lb.tobytes()

    def test_inactive_row_with_inf_activation_is_skipped(self):
        m = init_model([3, 4, 2], seed=5)
        x = np.array([[1.0, -2.0, 0.5], [np.inf, 1.0, 1.0], [0.25, 0.5, -1.0]])
        with np.errstate(invalid="ignore"):
            _, trace = forward(m, x)
        g = np.array([[0.5, -1.0], [0.0, -0.0], [2.0, 0.25]])
        _, trace_kept = forward(m, x[[0, 2]])
        for (gw, gb), (kw, kb) in zip(backward(m, trace, g), backward(m, trace_kept, g[[0, 2]])):
            assert gw.tobytes() == kw.tobytes() and gb.tobytes() == kb.tobytes()
            assert np.isfinite(gw).all() and np.isfinite(gb).all()


class TestParameterVector:
    def test_layers_are_read_only_views_in_checkpoint_order(self, tmp_path):
        m = init_model([5, 8, 4], seed=9)
        assert not m.vector.flags.writeable and m.vector.dtype == np.float64
        for layer in m.layers:
            for a in (layer.weight, layer.bias):
                assert np.shares_memory(a, m.vector) and not a.flags.writeable
        expected = np.concatenate([np.concatenate((l.weight.ravel(), l.bias)) for l in m.layers])
        assert m.vector.tobytes() == expected.tobytes()
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(m, {}, path)
        assert m.vector.astype("<f8").tobytes() in path.read_bytes()
        loaded = model.load_checkpoint(path).params
        assert all(np.shares_memory(l.weight, loaded.vector) and np.shares_memory(l.bias, loaded.vector) for l in loaded.layers)

    def test_writable_input_is_copied_not_frozen(self):
        base = np.eye(2).ravel().copy()
        bias = np.zeros(2)
        layer = model.Layer(base.reshape(2, 2), bias, "identity")
        m = model.ModelParams((layer,))
        assert base.flags.writeable and bias.flags.writeable
        base[0] = 7.0
        bias[1] = 5.0
        assert layer.weight.tolist() == [[1.0, 0.0], [0.0, 1.0]] and layer.bias.tolist() == [0.0, 0.0]
        assert m.layers[0].weight.tolist() == [[1.0, 0.0], [0.0, 1.0]] and m.layers[0].bias.tolist() == [0.0, 0.0]
        assert m.vector.tolist() == [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]

    def test_copy_of_writable_input_cannot_be_made_writable(self):
        layer = model.Layer(np.eye(2), np.zeros(2), "identity")
        for a in (layer.weight, layer.bias):
            with pytest.raises(ValueError):
                a.setflags(write=True)

    def test_no_memory_shared_with_read_only_input(self):
        weight = np.frombuffer(np.arange(6.0).tobytes()).reshape(2, 3)
        bias = np.frombuffer(np.ones(2).tobytes())
        m = model.ModelParams((model.Layer(weight, bias, "identity"),))
        assert not np.shares_memory(m.vector, weight) and not np.shares_memory(m.vector, bias)
        assert m.layers[0].weight.tolist() == weight.tolist()

    def test_split_and_join_round_trip(self):
        m = init_model([3, 4, 2], seed=1)
        pairs = m.split(np.arange(m.vector.size, dtype=np.float64))
        assert [(w.shape, b.shape) for w, b in pairs] == [((4, 3), (4,)), ((2, 4), (2,))]
        assert pairs[0][1].tolist() == [12.0, 13.0, 14.0, 15.0] and pairs[1][0][0, 0] == 16.0
        assert m.join(pairs).tolist() == list(range(m.vector.size))
        assert m.join([(l.weight, l.bias) for l in m.layers]).tobytes() == m.vector.tobytes()

    @pytest.mark.parametrize(
        "reshape, shape",
        [(lambda v: np.append(v, 9.0), "(27,)"), (lambda v: v[:-1], "(25,)"), (lambda v: v.reshape(1, -1), "(1, 26)")],
        ids=["extra-entry", "missing-entry", "row-matrix"],
    )
    def test_vector_of_another_shape_rejected(self, reshape, shape):
        m = init_model([3, 4, 2], seed=0)
        message = f"vector shape {shape} does not match parameter vector (26,)"
        for call in (m.with_vector, m.split):
            with pytest.raises(ConfigError) as info:
                call(reshape(m.vector))
            assert str(info.value) == message

    def test_with_vector_holds_one_read_only_copy(self, tmp_path):
        m = init_model([3, 4, 2], seed=0)
        arg = m.vector * 2.0
        stepped = m.with_vector(arg)
        assert type(stepped.vector.base) is bytes and not stepped.vector.flags.writeable
        with pytest.raises(ValueError):
            stepped.vector.setflags(write=True)
        expected = np.concatenate([np.concatenate((l.weight.ravel(), l.bias)) for l in stepped.layers])
        assert stepped.vector.tobytes() == expected.tobytes() == arg.tobytes()
        for layer in stepped.layers:
            for a in (layer.weight, layer.bias):
                assert np.shares_memory(a, stepped.vector) and not a.flags.writeable
        assert arg.flags.writeable and not np.shares_memory(arg, stepped.vector)
        arg[0] = 7.0
        assert stepped.vector[0] == m.vector[0] * 2.0
        built = model.ModelParams(tuple(model.Layer(l.weight * 2.0, l.bias * 2.0, l.activation) for l in m.layers))
        model.save_checkpoint(stepped, {"epoch": 1}, tmp_path / "stepped.ckpt")
        model.save_checkpoint(built, {"epoch": 1}, tmp_path / "built.ckpt")
        assert (tmp_path / "stepped.ckpt").read_bytes() == (tmp_path / "built.ckpt").read_bytes()

    def test_equality_compares_architecture_and_values(self):
        m = init_model([3, 4, 2], seed=1)
        assert m.with_vector(m.vector) == m
        assert m.with_vector(m.vector + 1.0) != m
        # The same 26 numbers as one 2x12 layer, and with an identity first layer.
        one_layer = model.ModelParams((model.Layer(m.vector[:24].reshape(2, 12), m.vector[24:], "identity"),))
        identity_first = model.ModelParams((model.Layer(m.layers[0].weight, m.layers[0].bias, "identity"), m.layers[1]))
        for other in (one_layer, identity_first):
            assert other.vector.tobytes() == m.vector.tobytes() and other != m

    def test_read_only_view_of_writable_memory_is_copied(self):
        base = np.eye(2).ravel().copy()
        view = base.view()
        view.setflags(write=False)
        layer = model.Layer(view.reshape(2, 2), np.zeros(2), "identity")
        base[0] = 7.0
        assert layer.weight.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert not np.shares_memory(layer.weight, base)

    def test_read_only_view_of_a_bytearray_is_copied(self):
        buffer = bytearray(np.eye(2).tobytes())
        weight = np.frombuffer(buffer).reshape(2, 2)
        weight.setflags(write=False)
        layer = model.Layer(weight, np.zeros(2), "identity")
        buffer[:8] = np.float64(7.0).tobytes()
        assert layer.weight.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_views_of_bytes_are_kept_and_the_vector_stays_read_only(self):
        weight = np.frombuffer(np.arange(4.0).tobytes()).reshape(2, 2)
        assert model.Layer(weight, np.zeros(2), "identity").weight is weight
        m = init_model([3, 2], seed=0)
        with pytest.raises(ValueError):
            m.vector.setflags(write=True)


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


def write_raw_checkpoint(path, layers, meta=b"{}"):
    """A version-1 checkpoint with the given (out, in, act code) layer headers,
    zero parameters of the sizes they declare, and raw metadata bytes."""
    data = b"SCLCKPT\x00" + struct.pack("<II", model.CHECKPOINT_VERSION, len(layers))
    data += b"".join(struct.pack("<IIB", *layer) for layer in layers)
    data += bytes(sum(8 * out_dim * in_dim + 8 * out_dim for out_dim, in_dim, _ in layers))
    path.write_bytes(data + struct.pack("<I", len(meta)) + meta)
    return path


class TestCheckpointErrors:
    """The exact CheckpointError text of each mangled file the loader refuses
    after its size checks pass."""

    @pytest.mark.parametrize(
        "layers, meta, message",
        [
            ([], b"{}", "corrupt checkpoint: zero layers"),
            (
                [(4, 3, 0)], b"\xff{}",
                "corrupt checkpoint: bad metadata ('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)",
            ),
            ([(4, 3, 0)], b"x", "corrupt checkpoint: bad metadata (Expecting value: line 1 column 1 (char 0))"),
            ([(4, 3, 1), (2, 5, 0)], b"{}", "corrupt checkpoint: layer dims do not chain: 4 -> 5"),
            ([(4, 3, 1), (2, 4, 1)], b"{}", "corrupt checkpoint: final layer activation must be identity"),
        ],
        ids=["zero-layers", "metadata-not-utf8", "metadata-not-json", "dims-do-not-chain", "relu-last-layer"],
    )
    def test_message(self, tmp_path, layers, meta, message):
        path = write_raw_checkpoint(tmp_path / "model.ckpt", layers, meta)
        with pytest.raises(CheckpointError) as info:
            model.load_checkpoint(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter(self, tmp_path, value):
        path = write_raw_checkpoint(tmp_path / "model.ckpt", [(4, 3, 1), (2, 4, 0)])
        data = bytearray(path.read_bytes())
        at = 16 + 2 * 9 + 8 * 5  # the sixth parameter, after the two layer headers
        data[at : at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError) as info:
            model.load_checkpoint(path)
        assert str(info.value) == f"corrupt checkpoint: non-finite parameter {value} at index 5"

    def test_valid_raw_checkpoint_loads(self, tmp_path):
        ckpt = model.load_checkpoint(write_raw_checkpoint(tmp_path / "model.ckpt", [(4, 3, 1), (2, 4, 0)], b'{"a": 1}'))
        assert ckpt.params == model.ModelParams(
            (model.Layer(np.zeros((4, 3)), np.zeros(4), "relu"), model.Layer(np.zeros((2, 4)), np.zeros(2), "identity"))
        )
        assert ckpt.metadata == {"a": 1}


class TestConstructionErrors:
    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: model.Layer(np.zeros((2, 3)), np.zeros(3), "relu"),
                "layer shapes inconsistent: weight (2, 3), bias (3,)",
            ),
            (lambda: model.Layer(np.zeros((2, 3)), np.zeros(2), "tanh"), "unknown activation 'tanh'"),
            (lambda: model.ModelParams(()), "model needs at least one layer"),
            (
                # The trace of a 3-5-2 network fed to a 3-4-2 one.
                lambda: backward(init_model([3, 4, 2], 0), forward(init_model([3, 5, 2], 0), np.ones(3))[1], np.ones(2)),
                "trace shapes do not match model layer shapes",
            ),
        ],
        ids=["layer-shapes", "activation", "no-layers", "trace-of-another-width"],
    )
    def test_documented_errors(self, call, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            call()

    def test_negative_freeze_mask(self):
        with pytest.raises(ConfigError, match=r"^frozen_layer_count must be >= 0$"):
            FreezeMask(-1)

    def test_zero_layer_width(self):
        with pytest.raises(ConfigError, match=r"^layer widths must be positive, got \[4, 0, 2\]$"):
            init_model([4, 0, 2], seed=0)
