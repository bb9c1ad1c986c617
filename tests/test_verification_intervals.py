"""Tests for interval arithmetic and interval bound propagation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.network import MLP
from repro.systems.sets import Box
from repro.verification.intervals import Interval, network_output_bounds_batch


def network_output_bounds(network, box):
    """IBP bounds of one box, as a one-row stack."""

    lower, upper = network_output_bounds_batch(network, box.low[None, :], box.high[None, :])
    return Interval(lower[0], upper[0])


class TestConstruction:
    def test_basic(self):
        interval = Interval([0.0, -1.0], [1.0, 2.0])
        np.testing.assert_allclose(interval.width, [1.0, 3.0])
        np.testing.assert_allclose(interval.center, [0.5, 0.5])

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval([1.0], [0.0])

    def test_point(self):
        interval = Interval.point([2.0, 3.0])
        np.testing.assert_allclose(interval.width, [0.0, 0.0])

    def test_box_roundtrip(self):
        box = Box([-1, 0], [1, 2])
        assert Interval.from_box(box).to_box() == box

    def test_getitem_and_len(self):
        interval = Interval([0, 1, 2], [1, 2, 3])
        assert len(interval) == 3
        sub = interval[1]
        np.testing.assert_allclose(sub.lower, [1.0])


class TestArithmeticSoundness:
    """Interval operations must enclose the corresponding pointwise results."""

    @given(
        lo1=st.floats(-5, 5), w1=st.floats(0, 3),
        lo2=st.floats(-5, 5), w2=st.floats(0, 3),
        t1=st.floats(0, 1), t2=st.floats(0, 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_add_sub_mul_enclose_samples(self, lo1, w1, lo2, w2, t1, t2):
        a = Interval([lo1], [lo1 + w1])
        b = Interval([lo2], [lo2 + w2])
        x = lo1 + t1 * w1
        y = lo2 + t2 * w2
        assert (a + b).contains([x + y])
        assert (a - b).contains([x - y])
        assert (a * b).contains([x * y])

    @given(lo=st.floats(-4, 4), w=st.floats(0, 3), t=st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_unary_operations_enclose_samples(self, lo, w, t):
        interval = Interval([lo], [lo + w])
        x = lo + t * w
        assert interval.square().contains([x**2])
        assert interval.sin().contains([np.sin(x)])
        assert interval.cos().contains([np.cos(x)])
        assert (-interval).contains([-x])
        assert interval.scale(-2.5).contains([-2.5 * x])

    def test_square_nonnegative(self):
        interval = Interval([-2.0], [1.0])
        squared = interval.square()
        assert squared.lower[0] == pytest.approx(0.0)
        assert squared.upper[0] == pytest.approx(4.0)

    def test_sin_covers_extremum(self):
        interval = Interval([0.0], [np.pi])
        result = interval.sin()
        assert result.upper[0] == pytest.approx(1.0)
        assert result.lower[0] == pytest.approx(0.0, abs=1e-12)

    def test_sin_full_period(self):
        result = Interval([0.0], [10.0]).sin()
        np.testing.assert_allclose([result.lower[0], result.upper[0]], [-1.0, 1.0])

    def test_cos_at_zero(self):
        result = Interval([-0.1], [0.1]).cos()
        assert result.upper[0] == pytest.approx(1.0)

    def test_clip(self):
        interval = Interval([-5.0], [5.0]).clip(-1.0, 1.0)
        np.testing.assert_allclose([interval.lower[0], interval.upper[0]], [-1.0, 1.0])

    def test_scalar_operands(self):
        interval = Interval([1.0], [2.0])
        assert (interval + 1.0).contains([2.5])
        assert (3.0 - interval).contains([1.5])
        assert (2.0 * interval).contains([3.0])


class TestNetworkOutputBounds:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_ibp_encloses_sampled_outputs(self, activation):
        net = MLP(2, 2, hidden_sizes=(16, 16), activation=activation, seed=0)
        box = Box([-1, -1], [1, 1])
        bounds = network_output_bounds(net, box)
        outputs = net.predict(box.sample(np.random.default_rng(0), count=300))
        assert np.all(outputs >= bounds.lower - 1e-9)
        assert np.all(outputs <= bounds.upper + 1e-9)

    def test_smaller_box_gives_tighter_bounds(self):
        net = MLP(2, 1, hidden_sizes=(8,), seed=1)
        wide = network_output_bounds(net, Box([-2, -2], [2, 2]))
        narrow = network_output_bounds(net, Box([-0.1, -0.1], [0.1, 0.1]))
        assert np.all(narrow.width <= wide.width + 1e-12)
