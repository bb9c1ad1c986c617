"""Tests for MLP, its gradients and target-network updates."""

import numpy as np
import pytest
from finite_differences import numerical_gradient

from repro.nn.network import MLP, hard_update, soft_update


class TestMLP:
    def test_forward_shape(self):
        net = MLP(3, 2, hidden_sizes=(8, 8), seed=0)
        assert net.predict(np.ones((5, 3))).shape == (5, 2)

    def test_predict_matches_manual_layers(self):
        net = MLP(4, 3, hidden_sizes=(16,), activation="relu", seed=1)
        batch = np.random.default_rng(0).normal(size=(6, 4))
        first, second = net.linear_layers()
        hidden = np.maximum(batch @ first.weight.data + first.bias.data, 0.0)
        expected = hidden @ second.weight.data + second.bias.data
        np.testing.assert_allclose(net.predict(batch), expected, atol=1e-12)

    def test_predict_single_vector(self):
        net = MLP(2, 1, seed=0)
        single = net.predict(np.array([0.3, -0.2]))
        assert single.shape == (1,)

    def test_output_activation_tanh_bounds(self):
        net = MLP(2, 2, hidden_sizes=(8,), output_activation="tanh", seed=0)
        outputs = net.predict(np.random.default_rng(0).normal(size=(20, 2)) * 10)
        assert np.all(np.abs(outputs) <= 1.0)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            MLP(0, 1)

    def test_seed_reproducibility(self):
        a = MLP(3, 2, seed=42)
        b = MLP(3, 2, seed=42)
        point = np.ones(3)
        np.testing.assert_allclose(a.predict(point), b.predict(point))

    def test_different_seeds_differ(self):
        a = MLP(3, 2, seed=1)
        b = MLP(3, 2, seed=2)
        assert not np.allclose(a.predict(np.ones(3)), b.predict(np.ones(3)))

    def test_clone_is_independent(self):
        net = MLP(2, 2, seed=0)
        copy = net.clone()
        np.testing.assert_allclose(copy.predict(np.ones(2)), net.predict(np.ones(2)))
        net.linear_layers()[0].weight.data += 1.0
        assert not np.allclose(copy.predict(np.ones(2)), net.predict(np.ones(2)))

    def test_architecture_roundtrip(self):
        net = MLP(3, 2, hidden_sizes=(4, 5), activation="relu", output_activation="tanh", seed=0)
        rebuilt = MLP.from_architecture(net.architecture())
        assert rebuilt.hidden_sizes == (4, 5)
        assert rebuilt.activation_name == "relu"
        assert rebuilt.output_activation_name == "tanh"

    def test_linear_layers_and_activations(self):
        net = MLP(2, 1, hidden_sizes=(3, 3), seed=0)
        assert len(net.linear_layers()) == 3
        assert len(net.activations()) == 3

    def test_gradients_reach_all_parameters(self):
        net = MLP(3, 2, hidden_sizes=(8, 8), seed=0)
        rng = np.random.default_rng(0)
        _, _, grads = net.mse_gradients(rng.normal(size=(4, 3)), rng.normal(size=(4, 2)))
        assert [grad.shape for grad in grads] == [parameter.shape for parameter in net.parameters()]


class TestMSEGradients:
    """``mse_gradients`` against central differences of ``mean((f(x) - y)^2)``."""

    @pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
    def test_match_finite_differences(self, activation):
        net = MLP(3, 2, hidden_sizes=(5, 4), activation=activation, output_activation="tanh", seed=2)
        rng = np.random.default_rng(3)
        rows, targets = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
        loss, input_grad, grads = net.mse_gradients(rows, targets, input_grad=True)

        def mse():
            return np.mean((net.predict(rows) - targets) ** 2)

        assert loss == pytest.approx(mse(), rel=1e-15)
        np.testing.assert_allclose(input_grad, numerical_gradient(mse, rows), rtol=1e-6, atol=1e-9)
        for parameter, grad in zip(net.parameters(), grads):
            np.testing.assert_allclose(grad, numerical_gradient(mse, parameter.data), rtol=1e-6, atol=1e-9)

    def test_input_gradient_only_on_request(self):
        net = MLP(2, 1, hidden_sizes=(3,), seed=0)
        _, input_grad, _ = net.mse_gradients(np.ones((2, 2)), np.zeros((2, 1)))
        assert input_grad is None

    def test_target_row_broadcasts_over_the_batch(self):
        net = MLP(3, 2, hidden_sizes=(4,), seed=1)
        rng = np.random.default_rng(5)
        rows, target = rng.normal(size=(5, 3)), rng.normal(size=2)
        loss, input_grad, grads = net.mse_gradients(rows, target, input_grad=True)
        tiled = net.mse_gradients(rows, np.tile(target, (5, 1)), input_grad=True)
        assert loss == tiled[0]
        np.testing.assert_array_equal(input_grad, tiled[1])
        for left, right in zip(grads, tiled[2]):
            np.testing.assert_array_equal(left, right)

    def test_float32_rows_give_their_float64_cast_gradients(self):
        net = MLP(3, 1, hidden_sizes=(4,), seed=2)
        rng = np.random.default_rng(6)
        rows, targets = rng.normal(size=(6, 3)).astype(np.float32), rng.normal(size=(6, 1)).astype(np.float32)
        loss, _, grads = net.mse_gradients(rows, targets)
        cast = net.mse_gradients(rows.astype(np.float64), targets.astype(np.float64))
        assert loss == cast[0]
        for left, right in zip(grads, cast[2]):
            assert left.dtype == np.float64
            np.testing.assert_array_equal(left, right)


class TestTargetUpdates:
    def test_hard_update_copies(self):
        source = MLP(2, 2, seed=0)
        target = MLP(2, 2, seed=1)
        hard_update(target, source)
        np.testing.assert_allclose(target.predict(np.ones(2)), source.predict(np.ones(2)))

    def test_soft_update_moves_towards_source(self):
        source = MLP(2, 2, seed=0)
        target = MLP(2, 2, seed=1)
        before = np.linalg.norm(
            target.linear_layers()[0].weight.data - source.linear_layers()[0].weight.data
        )
        soft_update(target, source, tau=0.5)
        after = np.linalg.norm(
            target.linear_layers()[0].weight.data - source.linear_layers()[0].weight.data
        )
        assert after < before

    def test_soft_update_invalid_tau(self):
        with pytest.raises(ValueError):
            soft_update(MLP(2, 2), MLP(2, 2), tau=1.5)

    def test_soft_update_mismatched_networks(self):
        with pytest.raises(ValueError):
            soft_update(MLP(2, 2, hidden_sizes=(4,)), MLP(2, 2, hidden_sizes=(4, 4)), tau=0.5)
