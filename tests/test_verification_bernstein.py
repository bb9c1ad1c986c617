"""Tests for the Bernstein-polynomial approximation of neural controllers."""

import math

import numpy as np
import pytest

from repro.nn.lipschitz import network_lipschitz
from repro.nn.network import MLP
from repro.systems.sets import Box
from repro.verification.bernstein import (
    BernsteinApproximation,
    _binomials,
    bernstein_error_bound,
    degrees_for_error,
)


class TestErrorBound:
    def test_decreases_with_degree(self):
        box = Box([-1, -1], [1, 1])
        errors = [bernstein_error_bound(5.0, box, [d, d]) for d in (1, 2, 4, 8, 16)]
        assert all(errors[i] > errors[i + 1] for i in range(len(errors) - 1))

    def test_scales_linearly_with_lipschitz_constant(self):
        box = Box([-1], [1])
        assert bernstein_error_bound(10.0, box, [4]) == pytest.approx(2.0 * bernstein_error_bound(5.0, box, [4]))

    def test_scales_with_box_width(self):
        narrow = bernstein_error_bound(3.0, Box([-0.5], [0.5]), [4])
        wide = bernstein_error_bound(3.0, Box([-2.0], [2.0]), [4])
        assert wide > narrow

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            bernstein_error_bound(1.0, Box([-1], [1]), [0])

    def test_degrees_for_error_meets_target(self):
        box = Box([-1, -1], [1, 1])
        lipschitz = 4.0
        target = 0.5
        degrees = degrees_for_error(lipschitz, box, target, max_degree=256)
        assert bernstein_error_bound(lipschitz, box, degrees) <= target + 1e-9

    def test_degrees_for_error_higher_for_larger_lipschitz(self):
        box = Box([-1, -1], [1, 1])
        low = degrees_for_error(2.0, box, 0.3, max_degree=10_000)[0]
        high = degrees_for_error(8.0, box, 0.3, max_degree=10_000)[0]
        assert high > low

    def test_degrees_for_error_invalid_target(self):
        with pytest.raises(ValueError):
            degrees_for_error(1.0, Box([-1], [1]), 0.0)


class TestBinomials:
    @pytest.mark.parametrize("degree", range(31))
    def test_equal_scipy_comb_bitwise_through_degree_30(self, degree):
        from scipy.special import comb

        expected = comb(degree, np.arange(degree + 1))
        assert _binomials(degree).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("degree", [31, 40, 52])
    def test_exact_beyond_degree_30(self, degree):
        table = _binomials(degree)
        # Every C(n, k) with n <= 52 is an integer below 2**53, so exact
        # entries are symmetric and sum to 2**n with no rounding.
        assert np.array_equal(table, table[::-1])
        assert table.sum() == 2.0**degree
        assert table[degree // 2] == math.comb(degree, degree // 2)


class TestApproximationQuality:
    def test_exactly_reproduces_linear_function(self):
        box = Box([-1, -2], [1, 2])
        approx = BernsteinApproximation(lambda x: 2.0 * x[:, 0] - x[:, 1] + 0.5, box, degrees=2, lipschitz_constant=3.0)
        for point in box.sample(np.random.default_rng(0), count=50):
            expected = 2.0 * point[0] - point[1] + 0.5
            assert approx.evaluate(point)[0] == pytest.approx(expected, abs=1e-9)

    def test_empirical_error_below_analytic_bound_for_network(self):
        net = MLP(2, 1, hidden_sizes=(8, 8), activation="tanh", seed=0)
        box = Box([-1, -1], [1, 1])
        approx = BernsteinApproximation(net, box, degrees=4)
        assert approx.empirical_error(samples=200, rng=0) <= approx.error_bound() + 1e-9

    def test_error_shrinks_with_degree(self):
        net = MLP(2, 1, hidden_sizes=(8, 8), activation="tanh", seed=1)
        box = Box([-1, -1], [1, 1])
        coarse = BernsteinApproximation(net, box, degrees=2).empirical_error(samples=200, rng=0)
        fine = BernsteinApproximation(net, box, degrees=8).empirical_error(samples=200, rng=0)
        assert fine <= coarse + 1e-9

    def test_vector_valued_function(self):
        box = Box([-1], [1])
        approx = BernsteinApproximation(lambda x: np.stack([x[:, 0], -x[:, 0]], axis=1), box, degrees=3, lipschitz_constant=1.5)
        assert approx.output_dim == 2
        value = approx.evaluate([0.3])
        np.testing.assert_allclose(value, [0.3, -0.3], atol=1e-9)

    def test_lipschitz_constant_inferred_for_mlp(self):
        net = MLP(2, 1, hidden_sizes=(4,), seed=0)
        approx = BernsteinApproximation(net, Box([-1, -1], [1, 1]), degrees=2)
        assert approx.lipschitz_constant == pytest.approx(network_lipschitz(net))

    def test_error_bound_requires_lipschitz_constant(self):
        approx = BernsteinApproximation(lambda x: x[:, :1], Box([-1], [1]), degrees=2)
        with pytest.raises(ValueError):
            approx.error_bound()

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            BernsteinApproximation(lambda x: x[:, :1], Box([-1], [1]), degrees=0)
        with pytest.raises(ValueError):
            BernsteinApproximation(lambda x: x[:, :1], Box([-1, -1], [1, 1]), degrees=[2, 2, 2])


class TestRangeEnclosure:
    def test_encloses_sampled_network_outputs(self):
        net = MLP(2, 1, hidden_sizes=(8,), activation="tanh", seed=2)
        box = Box([-0.5, -0.5], [0.5, 0.5])
        approx = BernsteinApproximation(net, box, degrees=4)
        enclosure = approx.range_enclosure(include_error=True)
        outputs = net.predict(box.sample(np.random.default_rng(1), count=300))
        assert np.all(outputs >= enclosure.lower - 1e-9)
        assert np.all(outputs <= enclosure.upper + 1e-9)

    def test_enclosure_without_error_is_tighter(self):
        net = MLP(2, 1, hidden_sizes=(8,), seed=3)
        approx = BernsteinApproximation(net, Box([-1, -1], [1, 1]), degrees=3)
        with_error = approx.range_enclosure(include_error=True)
        without_error = approx.range_enclosure(include_error=False)
        assert np.all(without_error.width <= with_error.width + 1e-12)

    def test_num_coefficients(self):
        approx = BernsteinApproximation(lambda x: x[:, :1], Box([-1, -1], [1, 1]), degrees=[2, 3], lipschitz_constant=1.0)
        assert approx.num_coefficients() == 3 * 4
