"""Tests for the one gradient path: ``MLP._run`` + ``MLP._vjp``.

Every training loss hands :meth:`MLP._vjp` an upstream gradient of the
network output and reads back the parameter (and optionally input)
gradients.  These tests check that VJP against central differences of
``sum(upstream * f(x))`` over the activations, output activations, batch
sizes and depths the repository builds, plus the algebra every caller
relies on: linearity in the upstream, additivity over rows, frozen
parameters, stacked row blocks, and ``_unbroadcast`` as the adjoint of
NumPy broadcasting.
"""

import numpy as np
import pytest
from finite_differences import numerical_gradient

from repro.nn.layers import ACTIVATIONS
from repro.nn.network import MLP, _activation_vjp, _apply_activation_array_named, _unbroadcast


def _network(activation="tanh", output_activation="identity", hidden_sizes=(7, 5), seed=0):
    return MLP(3, 2, hidden_sizes=hidden_sizes, activation=activation,
               output_activation=output_activation, seed=seed)


def _vjp(network, rows, upstream, input_grad=True):
    saved: list = []
    network._run(rows, saved)
    return network._vjp(saved, upstream, input_grad)


def _assert_matches_finite_differences(network, rows, upstream, input_grad):
    input_gradient, grads = _vjp(network, rows, upstream, input_grad)

    def objective():
        return np.sum(upstream * network._run(rows))

    assert len(grads) == len(network.parameters())
    for parameter, grad in zip(network.parameters(), grads):
        assert grad.shape == parameter.shape
        np.testing.assert_allclose(grad, numerical_gradient(objective, parameter.data), rtol=1e-6, atol=1e-9)
    if input_grad:
        assert input_gradient.shape == rows.shape
        np.testing.assert_allclose(input_gradient, numerical_gradient(objective, rows), rtol=1e-6, atol=1e-9)
    else:
        assert input_gradient is None


class TestVJP:
    @pytest.mark.parametrize("input_grad", [True, False])
    @pytest.mark.parametrize("rows", [1, 9])
    @pytest.mark.parametrize("output_activation", ["identity", "tanh", "sigmoid"])
    @pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
    def test_matches_finite_differences(self, activation, output_activation, rows, input_grad):
        network = _network(activation, output_activation)
        rng = np.random.default_rng(11)
        batch = rng.normal(size=(rows, 3)) * 2.0
        upstream = rng.normal(size=(rows, 2))
        _assert_matches_finite_differences(network, batch, upstream, input_grad)

    @pytest.mark.parametrize("hidden_sizes", [(), (4,), (4, 3, 5)], ids=["linear", "one", "three"])
    def test_depths_match_finite_differences(self, hidden_sizes):
        network = _network("tanh", "tanh", hidden_sizes=hidden_sizes, seed=3)
        rng = np.random.default_rng(12)
        _assert_matches_finite_differences(network, rng.normal(size=(5, 3)), rng.normal(size=(5, 2)), True)

    @pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
    def test_recording_leaves_the_output_unchanged(self, activation):
        network = _network(activation, "tanh")
        rows = np.random.default_rng(4).normal(size=(6, 3))
        saved: list = []
        np.testing.assert_array_equal(network._run(rows, saved), network.predict(rows))
        assert len(saved) == len(network.linear_layers())
        for (layer_input, weight, name, _), linear in zip(saved, network.linear_layers()):
            assert weight is linear.weight.data
            assert layer_input.shape[0] == rows.shape[0]
        assert [record[2] for record in saved] == [activation, activation, "tanh"]

    @pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
    def test_linear_in_the_upstream_gradient(self, activation):
        network = _network(activation, "tanh")
        rng = np.random.default_rng(5)
        rows, first, second = rng.normal(size=(7, 3)), rng.normal(size=(7, 2)), rng.normal(size=(7, 2))
        combined_input, combined = _vjp(network, rows, 2.0 * first - 0.5 * second)
        first_input, first_grads = _vjp(network, rows, first)
        second_input, second_grads = _vjp(network, rows, second)
        np.testing.assert_allclose(combined_input, 2.0 * first_input - 0.5 * second_input, rtol=1e-12, atol=1e-14)
        for total, left, right in zip(combined, first_grads, second_grads):
            np.testing.assert_allclose(total, 2.0 * left - 0.5 * right, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
    def test_batch_gradient_is_the_sum_of_row_gradients(self, activation):
        network = _network(activation, "identity")
        rng = np.random.default_rng(6)
        rows, upstream = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
        batch_input, batch_grads = _vjp(network, rows, upstream)
        per_row = [_vjp(network, rows[i : i + 1], upstream[i : i + 1]) for i in range(len(rows))]
        np.testing.assert_allclose(batch_input, np.concatenate([row[0] for row in per_row]), rtol=1e-12)
        for index, grad in enumerate(batch_grads):
            np.testing.assert_allclose(grad, sum(row[1][index] for row in per_row), rtol=1e-12, atol=1e-14)

    def test_frozen_parameters_get_no_gradient(self):
        network = _network("relu", "tanh")
        rng = np.random.default_rng(7)
        rows, upstream = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
        _, trainable = _vjp(network, rows, upstream, False)
        middle = network.linear_layers()[1]
        middle.weight.requires_grad = False
        middle.bias.requires_grad = False
        _, frozen = _vjp(network, rows, upstream, False)
        assert frozen[2] is None and frozen[3] is None
        for index in (0, 1, 4, 5):
            np.testing.assert_array_equal(frozen[index], trainable[index])

    def test_stacked_row_blocks_match_the_concatenated_batch(self):
        """The verification kernels run ``(k, n, input_dim)`` stacks; their
        VJP sums the parameter gradients over the blocks."""

        network = _network("tanh", "identity")
        rng = np.random.default_rng(8)
        blocks, upstream = rng.normal(size=(4, 6, 3)), rng.normal(size=(4, 6, 2))
        stacked_input, stacked = _vjp(network, blocks, upstream)
        flat_input, flat = _vjp(network, blocks.reshape(-1, 3), upstream.reshape(-1, 2))
        assert stacked_input.shape == blocks.shape
        np.testing.assert_allclose(stacked_input.reshape(-1, 3), flat_input, rtol=1e-12)
        for left, right in zip(stacked, flat):
            assert left.shape == right.shape
            np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-14)

    def test_leaves_the_recorded_pass_and_the_upstream_untouched(self):
        network = _network("sigmoid", "tanh")
        rng = np.random.default_rng(9)
        rows, upstream = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
        saved: list = []
        network._run(rows, saved)
        copies = [(x.copy(), w.copy(), a.copy()) for x, w, _, a in saved]
        upstream_copy, rows_copy = upstream.copy(), rows.copy()
        first = network._vjp(saved, upstream, True)
        second = network._vjp(saved, upstream, True)
        np.testing.assert_array_equal(upstream, upstream_copy)
        np.testing.assert_array_equal(rows, rows_copy)
        for (x, w, _, a), (x0, w0, a0) in zip(saved, copies):
            np.testing.assert_array_equal(x, x0)
            np.testing.assert_array_equal(w, w0)
            np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(first[0], second[0])
        for left, right in zip(first[1], second[1]):
            np.testing.assert_array_equal(left, right)


class TestActivationVJP:
    @pytest.mark.parametrize("name", ["relu", "tanh", "sigmoid", "identity"])
    def test_matches_finite_differences(self, name):
        # Keep clear of relu's kink at zero.
        values = np.random.default_rng(10).normal(size=(6, 4)) * 3.0
        values[np.abs(values) < 1e-3] = 0.5
        upstream = np.random.default_rng(11).normal(size=values.shape)
        activated = _apply_activation_array_named(name, values)
        step = 1e-6
        slope = (_apply_activation_array_named(name, values + step)
                 - _apply_activation_array_named(name, values - step)) / (2.0 * step)
        np.testing.assert_allclose(_activation_vjp(name, activated, upstream), upstream * slope,
                                   rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("name", ["relu", "tanh", "sigmoid", "identity"])
    def test_slope_is_bounded_by_the_lipschitz_constant(self, name):
        """The footnote-1 bound multiplies these constants; the VJP never
        scales an upstream gradient by more."""

        values = np.linspace(-8.0, 8.0, 401)
        slope = _activation_vjp(name, _apply_activation_array_named(name, values), np.ones_like(values))
        constant = ACTIVATIONS[name].lipschitz_constant
        assert np.all(np.abs(slope) <= constant + 1e-15)
        assert np.max(np.abs(slope)) == pytest.approx(constant, rel=1e-3)


class TestUnbroadcast:
    @pytest.mark.parametrize(
        "grad_shape,shape",
        [((5, 3), (3,)), ((5, 3), (1, 3)), ((5, 3), (5, 1)), ((2, 5, 3), (5, 3)),
         ((2, 5, 3), (3,)), ((2, 5, 3), (1, 1)), ((5, 3), ())],
    )
    def test_is_the_adjoint_of_broadcasting(self, grad_shape, shape):
        """``<g, broadcast(x)> == <unbroadcast(g), x>`` for every ``x``."""

        rng = np.random.default_rng(13)
        grad, x = rng.normal(size=grad_shape), rng.normal(size=shape)
        reduced = _unbroadcast(grad, shape)
        assert np.shape(reduced) == shape
        np.testing.assert_allclose(np.sum(reduced * x), np.sum(grad * np.broadcast_to(x, grad_shape)), rtol=1e-12)

    def test_same_shape_is_returned_as_is(self):
        grad = np.ones((4, 2))
        assert _unbroadcast(grad, (4, 2)) is grad
