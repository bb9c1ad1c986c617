"""Tests for the Lipschitz-constant bound and the sampled estimate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.lipschitz import empirical_lipschitz, network_lipschitz
from repro.nn.network import MLP

_ACTIVATION_CONSTANTS = {"tanh": 1.0, "relu": 1.0, "sigmoid": 0.25}


def _float_product(net: MLP, activation: str) -> float:
    """The footnote-1 product in plain float arithmetic (no margin, no rounding)."""

    constant = 1.0
    for layer in net.linear_layers():
        constant *= float(np.linalg.norm(layer.weight.data, 2))
    hidden_layers = len(net.linear_layers()) - 1
    return constant * _ACTIVATION_CONSTANTS[activation] ** hidden_layers


class TestNetworkLipschitz:
    def test_product_of_layer_norms(self):
        net = MLP(2, 1, hidden_sizes=(4,), activation="tanh", seed=0)
        expected = _float_product(net, "tanh")
        assert network_lipschitz(net) >= expected
        assert network_lipschitz(net) == pytest.approx(expected, rel=1e-9)

    def test_sigmoid_quarter_factor(self):
        tanh_net = MLP(2, 1, hidden_sizes=(4,), activation="tanh", seed=0)
        sigmoid_net = MLP(2, 1, hidden_sizes=(4,), activation="sigmoid", seed=0)
        # Same weights (same seed), only the activation differs.
        assert network_lipschitz(sigmoid_net) == pytest.approx(0.25 * network_lipschitz(tanh_net), rel=1e-9)

    def test_scaling_weights_scales_constant(self):
        net = MLP(2, 1, hidden_sizes=(4,), seed=0)
        before = network_lipschitz(net)
        net.linear_layers()[0].weight.data *= 3.0
        assert network_lipschitz(net) == pytest.approx(3.0 * before, rel=1e-9)

    @given(
        activation=st.sampled_from(sorted(_ACTIVATION_CONSTANTS)),
        hidden_sizes=st.lists(st.integers(1, 64), min_size=1, max_size=3),
        input_dim=st.integers(1, 4),
        output_dim=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_bound_is_sound(self, activation, hidden_sizes, input_dim, output_dim, seed):
        net = MLP(input_dim, output_dim, hidden_sizes=hidden_sizes, activation=activation, seed=seed)
        bound = network_lipschitz(net)
        assert bound >= _float_product(net, activation)
        low, high = -np.ones(input_dim), np.ones(input_dim)
        assert bound >= empirical_lipschitz(net.predict, low, high, samples=128, seed=seed)


class TestEmpiricalLipschitz:
    def test_never_exceeds_analytic(self):
        net = MLP(2, 1, hidden_sizes=(16, 16), activation="tanh", seed=3)
        analytic = network_lipschitz(net)
        empirical = empirical_lipschitz(net.predict, low=[-2, -2], high=[2, 2], samples=256, seed=0)
        assert 0.0 < empirical <= analytic

    def test_any_batched_function(self):
        # A linear map's slope in direction d is ||A d||, at most ||A||_2 and
        # close to it for some of 512 random directions in the plane.
        matrix = np.array([[3.0, 1.0], [0.0, 2.0]])
        norm = float(np.linalg.norm(matrix, 2))
        estimate = empirical_lipschitz(lambda states: states @ matrix.T, low=[-1, -1], high=[1, 1])
        assert 0.99 * norm <= estimate <= norm * (1.0 + 1e-9)

    def test_rejects_bad_bounds(self):
        net = MLP(2, 1, seed=0)
        with pytest.raises(ValueError):
            empirical_lipschitz(net.predict, low=[1, 1], high=[0, 0])
        with pytest.raises(ValueError):
            empirical_lipschitz(net.predict, low=[0, 0, 0], high=[1, 1])
