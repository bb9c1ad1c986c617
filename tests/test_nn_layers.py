"""Tests for modules, linear layers and activations."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn.layers import Identity, Linear, Module, ReLU, Sigmoid, Tanh, make_activation
from repro.nn.network import MLP


class TestParameterHolder:
    def test_data_is_float64(self):
        tensor = Tensor([1, 2], requires_grad=True)
        assert tensor.data.dtype == np.float64
        assert tensor.shape == (2,) and tensor.size == 2 and tensor.requires_grad

    def test_numpy_returns_copy(self):
        x = Tensor([1.0, 2.0])
        array = x.numpy()
        array[0] = 99.0
        assert x.data[0] == 1.0

    def test_starts_as_a_constant_with_no_gradient(self):
        tensor = Tensor(np.zeros((2, 3)))
        assert not tensor.requires_grad and tensor.grad is None
        tensor.grad = np.ones((2, 3))
        tensor.zero_grad()
        assert tensor.grad is None


class TestLinear:
    def test_forward_matches_manual(self):
        net = MLP(2, 2, hidden_sizes=(), seed=0)
        layer = net.linear_layers()[0]
        inputs = np.array([[1.0, -1.0]])
        expected = inputs @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(net.predict(inputs), expected)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Linear(0, 3)
        with pytest.raises(ValueError):
            Linear(3, -1)

    def test_parameters_discovered(self):
        layer = Linear(4, 3)
        params = layer.parameters()
        assert len(params) == 2
        assert {p.shape for p in params} == {(4, 3), (3,)}

    def test_gradient_flows_to_weights(self):
        net = MLP(2, 1, hidden_sizes=(), seed=0)
        saved: list = []
        net._run(np.ones((3, 2)), saved)
        _, (weight_grad, bias_grad) = net._vjp(saved, np.ones((3, 1)), False)
        np.testing.assert_allclose(weight_grad, [[3.0], [3.0]])
        np.testing.assert_allclose(bias_grad, [3.0])


class TestActivations:
    @pytest.mark.parametrize(
        "name,cls", [("relu", ReLU), ("tanh", Tanh), ("sigmoid", Sigmoid), ("identity", Identity)]
    )
    def test_make_activation(self, name, cls):
        assert isinstance(make_activation(name), cls)

    def test_make_activation_unknown(self):
        with pytest.raises(ValueError):
            make_activation("softplus")

    def test_sigmoid_lipschitz_constant(self):
        assert Sigmoid.lipschitz_constant == pytest.approx(0.25)
        assert ReLU.lipschitz_constant == pytest.approx(1.0)
        assert Tanh.lipschitz_constant == pytest.approx(1.0)


class TestModule:
    def test_nested_parameter_discovery(self):
        class Net(Module):
            def __init__(self):
                self.first = Linear(2, 4)
                self.second = Linear(4, 1)
                self.extra = Tensor(np.zeros(3), requires_grad=True)

        net = Net()
        assert len(net.parameters()) == 5
        assert net.num_parameters() == 2 * 4 + 4 + 4 * 1 + 1 + 3

    def test_list_of_modules_discovered(self):
        class Net(Module):
            def __init__(self):
                self.layers = [Linear(2, 2), Linear(2, 2)]

        assert len(Net().parameters()) == 4

    def test_zero_grad(self):
        layer = Linear(2, 2)
        for parameter in layer.parameters():
            parameter.grad = np.ones_like(parameter.data)
        layer.zero_grad()
        assert layer.weight.grad is None and layer.bias.grad is None

    def test_state_dict_roundtrip(self):
        source = Linear(3, 2, rng=np.random.default_rng(1))
        target = Linear(3, 2, rng=np.random.default_rng(2))
        target.load_state_dict(source.state_dict())
        np.testing.assert_allclose(target.weight.data, source.weight.data)
        np.testing.assert_allclose(target.bias.data, source.bias.data)

    def test_load_state_dict_shape_mismatch(self):
        layer = Linear(3, 2)
        bad = {key: np.zeros((1, 1)) for key in layer.state_dict()}
        with pytest.raises(ValueError):
            layer.load_state_dict(bad)

    def test_load_state_dict_missing_key(self):
        layer = Linear(3, 2)
        with pytest.raises(KeyError):
            layer.load_state_dict({})
