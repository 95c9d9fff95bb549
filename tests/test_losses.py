"""Loss values, closed-form identities, and finite-difference gradient checks."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclmetric import losses
from sclmetric.errors import ConfigError, DimensionMismatchError
from sclmetric.losses import SclConfig

import per_unit_trainer
from helpers import away_from, central_difference, loop_sum, relative_error

PAPER_MARGINS = SclConfig(alpha1=2.0, alpha2=3.1)


class TestSquaredEuclidean:
    def test_hand_values(self):
        assert losses.squared_euclidean([0, 0], [3, 4]) == 25.0
        assert losses.squared_euclidean([1, 2, 3], [2, 0, 3]) == 5.0

    def test_identity_is_zero(self):
        v = np.array([0.3, -1.2, 7.0])
        assert losses.squared_euclidean(v, v) == 0.0

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u, v = rng.normal(size=(2, 6))
            assert losses.squared_euclidean(u, v) == losses.squared_euclidean(v, u)
            assert losses.squared_euclidean(u, v) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            losses.squared_euclidean([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_matches_sequential_reference(self):
        # the documented contract: left-to-right float accumulation
        rng = np.random.default_rng(11)
        for _ in range(50):
            u, v = rng.normal(size=(2, 16))
            reference = loop_sum((a - b) * (a - b) for a, b in zip(u.tolist(), v.tolist()))
            assert losses.squared_euclidean(u, v) == reference


    @pytest.mark.parametrize("shape_u, shape_v", [((8,), (8,)), ((50, 16), (50, 16)), ((300, 16), (300, 16)),
                                                  ((40, 1, 9), (1, 30, 9)), ((3, 1, 40), (1, 50, 40))])
    def test_squared_distances_match_scalar_loop_on_both_sides_of_the_block_switch(self, shape_u, shape_v):
        # Blocks up to 4096 differences are summed at once, larger ones feature by feature.
        rng = np.random.default_rng(13)
        u = rng.normal(size=shape_u) * 10.0 ** rng.integers(-4, 4, size=shape_u)
        v = rng.normal(size=shape_v)
        got = losses.squared_distances(u, v)
        ub, vb = np.broadcast_arrays(u, v)
        for index in np.ndindex(got.shape):
            reference = loop_sum((a - b) * (a - b) for a, b in zip(ub[index].tolist(), vb[index].tolist()))
            assert got[index] == reference

    @pytest.mark.parametrize("case", ["swapped-broadcast", "equal-2d", "d=1", "transposed", "row-slice"])
    def test_feature_major_large_path_matches_scalar_loop(self, case):
        # Every case has more than 4096 differences, so it takes the feature loop
        # over feature-major copies, whatever the operands' shapes and strides.
        rng = np.random.default_rng(17)
        u, v = {
            "swapped-broadcast": lambda: (rng.normal(size=(1, 30, 9)), rng.normal(size=(40, 1, 9))),
            "equal-2d": lambda: (rng.normal(size=(600, 16)), rng.normal(size=(600, 16))),
            "d=1": lambda: (rng.normal(size=(70, 1, 1)), rng.normal(size=(1, 80, 1))),
            "transposed": lambda: (rng.normal(size=(16, 600)).T, rng.normal(size=(600, 16))),
            "row-slice": lambda: (rng.normal(size=(1200, 16))[::2], rng.normal(size=(1, 16))),
        }[case]()
        got = losses.squared_distances(u, v)
        ub, vb = np.broadcast_arrays(u, v)
        assert got.shape == ub.shape[:-1] and got.size * u.shape[-1] > 4096
        for index in np.ndindex(got.shape):
            reference = loop_sum((a - b) * (a - b) for a, b in zip(ub[index].tolist(), vb[index].tolist()))
            assert got[index] == reference


class TestOrderedSum:
    SPECIAL = (-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, math.inf, -math.inf, math.nan,
               1e308, -1e308, 1e16, -1e16, 1.0, 0.1)

    @classmethod
    def random_values(cls, rng, shape):
        scales = 10.0 ** rng.integers(-320, 300, size=shape)
        values = rng.normal(size=shape) * scales
        special = rng.random(shape) < 0.4
        values[special] = rng.choice(cls.SPECIAL, size=int(special.sum()))
        return values

    @staticmethod
    def assert_same_bits(got, expected, context):
        # IEEE 754 leaves a NaN result's sign and payload open, and CPython's
        # float add returns another operand's NaN on some paths (3.10, or 3.11
        # under a trace function), so a NaN only has to be a NaN.
        if math.isnan(expected):
            assert math.isnan(got), context
        else:
            assert np.float64(got).tobytes() == np.float64(expected).tobytes(), context

    def test_matches_the_sequential_loop_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for trial in range(300):
            values = self.random_values(rng, int(rng.integers(0, 40)))
            start = float(rng.choice(self.SPECIAL)) if trial % 2 else 0.0
            expected = loop_sum(values.tolist(), start)
            got = losses.ordered_sum(values, start)
            assert type(got) is float
            self.assert_same_bits(got, expected, (trial, values, start))

    def test_columns_match_the_sequential_loop_bit_for_bit(self):
        rng = np.random.default_rng(1)
        for trial in range(300):
            shape = ((0, 1, 7)[trial % 3], (0, 1, 5)[trial // 3 % 3])
            table = self.random_values(rng, shape)
            start = float(rng.choice(self.SPECIAL)) if trial % 2 else 0.0
            got = losses.ordered_sum(table, start, axis=0)
            assert got.shape == (shape[1],) and got.dtype == np.float64
            for j in range(shape[1]):
                self.assert_same_bits(float(got[j]), loop_sum(table[:, j].tolist(), start), (trial, table, start, j))

    def test_never_regroups(self):
        values = [1e16, 1.0, -1e16, 1.0]
        assert losses.ordered_sum(values) == loop_sum(values) == 1.0
        assert losses.ordered_sum(values) != math.fsum(values)
        assert losses.ordered_sum(np.reshape(values, (2, 2)), 1.0) == loop_sum(values, 1.0) == 1.0
        assert losses.ordered_sum([]) == 0.0 and losses.ordered_sum([], -0.5) == -0.5


class TestIntraLoss:
    def test_coincident_inputs_zero(self):
        v = np.array([1.0, -2.0, 0.5])
        lv = losses.scl_intra_loss(v, v, v)
        assert lv.value == 0.0
        for g in lv.gradients.values():
            assert np.array_equal(g, np.zeros(3))

    def test_hand_gradients(self):
        lv = losses.scl_intra_loss([0.0, 0.0], [1.0, 0.0], [1.0, 1.0])
        assert lv.value == 2.0
        assert np.array_equal(lv.gradient("a"), [-2.0, 0.0])
        assert np.array_equal(lv.gradient("b"), [2.0, -2.0])
        assert np.array_equal(lv.gradient("c"), [0.0, 2.0])

    def test_degenerate_set_drops_second_term(self):
        a, b = np.array([0.0, 1.0]), np.array([2.0, 1.0])
        lv = losses.scl_intra_loss(a, b)
        assert lv.value == losses.squared_euclidean(a, b)
        assert set(lv.gradients) == {"a", "b"}

    def test_finite_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b, c = rng.normal(size=(3, 8))
            lv = losses.scl_intra_loss(a, b, c)
            for slot, base in (("a", a), ("b", b), ("c", c)):
                def f(x, slot=slot):
                    parts = {"a": a, "b": b, "c": c} | {slot: x}
                    return losses.scl_intra_loss(parts["a"], parts["b"], parts["c"]).value

                assert relative_error(lv.gradient(slot), central_difference(f, base)) < 1e-6

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_and_zero_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = rng.normal(size=(3, 5))
        lv = losses.scl_intra_loss(a, b, c)
        assert lv.value >= 0.0
        assert (lv.value == 0.0) == (np.array_equal(a, b) and np.array_equal(b, c))

    @given(st.integers(0, 2**32 - 1), st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_translation_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        a, b, c = rng.normal(size=(3, 5))
        t = np.full(5, shift)
        base = losses.scl_intra_loss(a, b, c).value
        moved = losses.scl_intra_loss(a + t, b + t, c + t).value
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)


class TestInterLoss:
    def test_coincident_inputs_equal_margin_sum(self):
        v = np.array([0.4, 0.4])
        lv = losses.scl_inter_loss(v, v, v, PAPER_MARGINS)
        assert lv.value == 5.1
        assert lv.value == PAPER_MARGINS.alpha1 + PAPER_MARGINS.alpha2

    def test_both_hinges_inactive(self):
        # |a-b|^2 = 4 >= alpha1, |b-c|^2 = 9 >= alpha2
        lv = losses.scl_inter_loss([0.0, 0.0], [2.0, 0.0], [5.0, 0.0], PAPER_MARGINS)
        assert lv.value == 0.0
        for g in lv.gradients.values():
            assert not g.any()

    def test_one_active_hinge(self):
        # |a-b|^2 = 1 < alpha1=2; |b-c|^2 = 4 >= alpha2=3.1
        lv = losses.scl_inter_loss([0.0, 0.0], [1.0, 0.0], [3.0, 0.0], PAPER_MARGINS)
        assert lv.value == 1.0
        assert lv.gradient("c").any() is np.False_
        assert lv.gradient("a").any()

    def test_inactive_at_exact_margin(self):
        # distance^2 == alpha1 exactly: hinge value 0, gradient 0
        cfg = SclConfig(alpha1=4.0, alpha2=3.1)
        lv = losses.scl_inter_loss([0.0, 0.0], [2.0, 0.0], [100.0, 0.0], cfg)
        assert lv.value == 0.0
        assert not lv.gradient("a").any()

    def test_degenerate_set_has_first_hinge_only(self):
        v = np.zeros(3)
        lv = losses.scl_inter_loss(v, v, None, PAPER_MARGINS)
        assert lv.value == PAPER_MARGINS.alpha1
        assert set(lv.gradients) == {"a", "b"}

    def test_rejects_nonpositive_margins(self):
        with pytest.raises(ConfigError):
            SclConfig(alpha1=0.0, alpha2=1.0)
        with pytest.raises(ConfigError):
            SclConfig(alpha1=1.0, alpha2=-2.0)

    def test_finite_difference_away_from_kinks(self):
        rng = np.random.default_rng(19)
        cfg = PAPER_MARGINS
        checked = 0
        while checked < 100:
            a, b, c = rng.normal(scale=0.8, size=(3, 8))
            if not away_from(losses.squared_euclidean(a, b), [cfg.alpha1]):
                continue
            if not away_from(losses.squared_euclidean(b, c), [cfg.alpha2]):
                continue
            lv = losses.scl_inter_loss(a, b, c, cfg)
            for slot, base in (("a", a), ("b", b), ("c", c)):
                def f(x, slot=slot):
                    parts = {"a": a, "b": b, "c": c} | {slot: x}
                    return losses.scl_inter_loss(parts["a"], parts["b"], parts["c"], cfg).value

                assert relative_error(lv.gradient(slot), central_difference(f, base)) < 1e-6
            checked += 1


class TestSetLoss:
    def _stub(self, label):
        class _Set:
            pass

        s = _Set()
        s.label = label
        return s

    def test_genuine_matches_intra_and_ignores_margins(self):
        rng = np.random.default_rng(23)
        a, b, c = rng.normal(size=(3, 6))
        got = losses.scl_set_loss(self._stub(0), a, b, c, SclConfig(0.5, 9.0))
        expect = losses.scl_intra_loss(a, b, c)
        assert got.value == expect.value
        for slot in expect.gradients:
            assert np.array_equal(got.gradient(slot), expect.gradient(slot))

    def test_imposter_matches_inter(self):
        rng = np.random.default_rng(29)
        a, b, c = rng.normal(scale=0.5, size=(3, 6))
        got = losses.scl_set_loss(self._stub(1), a, b, c, PAPER_MARGINS)
        expect = losses.scl_inter_loss(a, b, c, PAPER_MARGINS)
        assert got.value == expect.value

    def test_batch_sum_equals_independent_summation(self):
        rng = np.random.default_rng(31)
        units = []
        for i in range(3):
            a, b, c = rng.normal(size=(3, 4))
            units.append((self._stub(i % 2), a, b, c))
        batch_total = 0.0
        for s, a, b, c in units:
            batch_total += losses.scl_set_loss(s, a, b, c, PAPER_MARGINS).value
        # independent: recompute each component loss directly
        expected = (
            losses.scl_intra_loss(*[u for u in units[0][1:]]).value
            + losses.scl_inter_loss(*units[1][1:], PAPER_MARGINS).value
            + losses.scl_intra_loss(*[u for u in units[2][1:]]).value
        )
        assert batch_total == expected

    def test_bad_label_rejected(self):
        with pytest.raises(ConfigError):
            losses.scl_set_loss(self._stub(2), np.zeros(2), np.zeros(2))


class TestContrastiveLoss:
    def test_genuine_identical_inputs(self):
        v = np.array([1.0, 2.0])
        assert losses.contrastive_loss(v, v, 0).value == 0.0

    def test_imposter_beyond_margin(self):
        lv = losses.contrastive_loss([0.0, 0.0], [3.0, 0.0], 1, 2.0)
        assert lv.value == 0.0
        assert not lv.gradient("a").any()

    def test_imposter_hand_value(self):
        lv = losses.contrastive_loss([0.0, 0.0], [1.0, 0.0], 1, 2.0)
        assert lv.value == 0.5

    def test_imposter_coincident_singularity_maps_to_zero_gradient(self):
        v = np.array([0.7, -0.1])
        lv = losses.contrastive_loss(v, v, 1, 2.0)
        assert lv.value == 2.0  # 0.5 * margin^2
        assert not lv.gradient("a").any()
        assert not lv.gradient("b").any()

    def test_finite_difference(self):
        rng = np.random.default_rng(37)
        checked = 0
        margin = 2.0
        while checked < 100:
            x1, x2 = rng.normal(size=(2, 8))
            label = int(rng.integers(2))
            dist = losses.euclidean_distance(x1, x2)
            if label == 1 and (not away_from(dist, [margin]) or dist < 1e-3):
                continue
            lv = losses.contrastive_loss(x1, x2, label, margin)
            for slot, base in (("a", x1), ("b", x2)):
                def f(x, slot=slot):
                    parts = {"a": x1, "b": x2} | {slot: x}
                    return losses.contrastive_loss(parts["a"], parts["b"], label, margin).value

                assert relative_error(lv.gradient(slot), central_difference(f, base)) < 1e-5
            checked += 1

    def test_rejects_bad_margin(self):
        with pytest.raises(ConfigError):
            losses.contrastive_loss([0.0], [1.0], 0, margin=0.0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: losses.contrastive_loss(np.zeros((1, 2)), np.zeros(2), 0),
            DimensionMismatchError,
            "x1 must be a 1-d vector, got shape (1, 2)",
        ),
        (lambda: losses.contrastive_loss(np.zeros(2), np.ones(2), 2), ConfigError, "pair label must be 0 or 1, got 2"),
        (lambda: losses.triplet_loss(*np.eye(3), margin=0), ConfigError, "triplet margin must be > 0, got 0"),
    ],
    ids=["2d-vector", "pair-label-2", "triplet-margin-0"],
)
def test_documented_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestTripletLoss:
    def test_equal_pos_neg_gives_margin(self):
        a = np.array([5.0, -1.0])
        p = np.array([0.0, 0.0])
        lv = losses.triplet_loss(a, p, p, 0.4)
        assert lv.value == 0.4

    def test_inactive(self):
        lv = losses.triplet_loss([0.0, 0.0], [0.0, 0.0], [1.0, 0.0], 0.4)
        assert lv.value == 0.0
        for g in lv.gradients.values():
            assert not g.any()

    def test_finite_difference(self):
        rng = np.random.default_rng(41)
        margin = 0.4
        checked = 0
        while checked < 100:
            a, p, n = rng.normal(size=(3, 8))
            arg = (
                losses.squared_euclidean(a, p)
                - losses.squared_euclidean(a, n)
                + margin
            )
            if not away_from(arg, [0.0]):
                continue
            lv = losses.triplet_loss(a, p, n, margin)
            for slot, base in (("a", a), ("b", p), ("c", n)):
                def f(x, slot=slot):
                    parts = {"a": a, "b": p, "c": n} | {slot: x}
                    return losses.triplet_loss(parts["a"], parts["b"], parts["c"], margin).value

                assert relative_error(lv.gradient(slot), central_difference(f, base)) < 1e-6
            checked += 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_all_losses_nonnegative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = rng.normal(scale=2.0, size=(3, 4))
    assert losses.scl_intra_loss(a, b, c).value >= 0.0
    assert losses.scl_inter_loss(a, b, c, PAPER_MARGINS).value >= 0.0
    assert losses.contrastive_loss(a, b, 0).value >= 0.0
    assert losses.contrastive_loss(a, b, 1).value >= 0.0
    assert losses.triplet_loss(a, b, c).value >= 0.0


class TestRowKernels:
    """Each row of a kernel call equals the scalar definition (written out
    independently in ``per_unit_trainer``) exactly."""

    @staticmethod
    def assert_rows_equal(values, grads, reference):
        for i, (ref_value, ref_grads) in enumerate(reference):
            assert values[i] == ref_value
            for k, slot in enumerate("abc"[: len(grads)]):
                expected = ref_grads.get(slot, np.zeros(grads[k].shape[1]))
                assert np.array_equal(grads[k][i], expected)

    def test_scl_rows(self):
        rng = np.random.default_rng(51)
        n = 400
        a, b, c = rng.normal(size=(3, n, 5)) * 0.5
        labels = rng.integers(2, size=n)
        has_c = rng.random(n) < 0.7
        c[~has_c] = b[~has_c]
        values, grads = losses.scl_loss_rows(a, b, c, labels, has_c, PAPER_MARGINS)
        reference = [
            per_unit_trainer.scl_loss(
                labels[i], {"a": a[i], "b": b[i], **({"c": c[i]} if has_c[i] else {})}, 2.0, 3.1
            )
            for i in range(n)
        ]
        self.assert_rows_equal(values, grads, reference)
        assert 0 < sum(v == 0.0 for v in values[labels == 1]) < sum(labels == 1)  # hinges both ways

    def test_contrastive_rows_round_like_python_pow(self):
        rng = np.random.default_rng(53)
        n = 4000
        x1, x2 = rng.normal(size=(2, n, 3)) * 0.8
        labels = rng.integers(2, size=n)
        values, grads = losses.contrastive_loss_rows(x1, x2, labels, 2.0)
        reference = [per_unit_trainer.cl_loss(labels[i], {"a": x1[i], "b": x2[i]}, 2.0) for i in range(n)]
        self.assert_rows_equal(values, grads, reference)
        slack = [2.0 - math.sqrt(per_unit_trainer.sq(x1[i], x2[i])) for i in range(n) if labels[i] == 1]
        # Some active hinges round differently under t * t, so the kernel must use **.
        assert any(0 < t and t * t != t**2 for t in slack)

    @given(
        st.lists(
            st.tuples(*[st.floats(-1e150, 1e150, allow_nan=False)] * 4), min_size=1, max_size=40
        ),
        st.floats(5e-324, 1e150),
    )
    @settings(max_examples=200, deadline=None)
    def test_contrastive_imposter_values_are_python_pow_bits(self, rows, margin):
        x = np.array(rows).reshape(-1, 2, 2)
        x1, x2 = x[:, 0], x[:, 1]
        values, _ = losses.contrastive_loss_rows(x1, x2, np.ones(len(x), dtype=int), margin)
        dist = np.sqrt(losses.squared_distances(x1, x2))
        slack = (margin - dist).tolist()
        expected = 0.5 * np.array([t**2 if d < margin else 0.0 for t, d in zip(slack, dist.tolist())])
        assert values.tobytes() == expected.tobytes()

    def test_triplet_rows(self):
        rng = np.random.default_rng(57)
        n = 400
        a, p, m = rng.normal(size=(3, n, 4))
        values, grads = losses.triplet_loss_rows(a, p, m, 0.4)
        reference = [per_unit_trainer.tl_loss({"a": a[i], "b": p[i], "c": m[i]}, 0.4) for i in range(n)]
        self.assert_rows_equal(values, grads, reference)
        assert 0 < np.count_nonzero(values) < n
