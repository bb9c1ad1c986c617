"""Tests for the Bernstein-polynomial approximation of neural controllers.

The kernels run on one-row box stacks; the scalar point evaluator and the
binomial table it uses live in ``verification_reference.py``.
"""

import math

import numpy as np
import pytest
from verification_reference import BernsteinApproximation, binomials

from repro.nn.lipschitz import network_lipschitz
from repro.nn.network import MLP
from repro.systems.sets import Box
from repro.verification.bernstein import (
    bernstein_coefficients_batch,
    bernstein_enclosure_batch,
    bernstein_error_bound_batch,
)


def bernstein_error_bound(lipschitz_constant, box, degrees):
    """The error bound of ``box`` as a one-row stack."""

    return bernstein_error_bound_batch(lipschitz_constant, box.low[None, :], box.high[None, :], degrees)[0]


def one_box_enclosure(function, box, degrees, lipschitz_constant=None):
    """Range enclosure of ``box`` as a one-row stack, inflated by its error
    bound when a Lipschitz constant is given."""

    coefficients = bernstein_coefficients_batch(function, box.low[None, :], box.high[None, :], degrees)
    errors = None
    if lipschitz_constant is not None:
        errors = bernstein_error_bound_batch(lipschitz_constant, box.low[None, :], box.high[None, :], degrees)
    lower, upper = bernstein_enclosure_batch(coefficients, errors)
    return lower[0], upper[0]


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


class TestBinomials:
    @pytest.mark.parametrize("degree", range(31))
    def test_equal_scipy_comb_bitwise_through_degree_30(self, degree):
        from scipy.special import comb

        expected = comb(degree, np.arange(degree + 1))
        assert binomials(degree).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("degree", [31, 40, 52])
    def test_exact_beyond_degree_30(self, degree):
        table = binomials(degree)
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
        lower, upper = one_box_enclosure(net, box, 4, lipschitz_constant=network_lipschitz(net))
        outputs = net.predict(box.sample(np.random.default_rng(1), count=300))
        assert np.all(outputs >= lower - 1e-9)
        assert np.all(outputs <= upper + 1e-9)

    def test_enclosure_without_error_is_tighter(self):
        net = MLP(2, 1, hidden_sizes=(8,), seed=3)
        box = Box([-1, -1], [1, 1])
        with_lower, with_upper = one_box_enclosure(net, box, 3, lipschitz_constant=network_lipschitz(net))
        without_lower, without_upper = one_box_enclosure(net, box, 3)
        assert np.all(without_upper - without_lower <= with_upper - with_lower + 1e-12)

    def test_num_coefficients(self):
        box = Box([-1, -1], [1, 1])
        coefficients = bernstein_coefficients_batch(lambda x: x[:, :1], box.low[None, :], box.high[None, :], [2, 3])
        assert coefficients.shape == (1, 3, 4, 1)
        assert coefficients[0].size == 3 * 4
