"""Tests for SGD and Adam optimisers."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn.network import MLP
from repro.nn.optim import SGD, Adam


def quadratic_step(optimizer, parameter, target):
    """One step on ``sum((p - target)^2)``, whose gradient is ``2 (p - target)``."""

    difference = parameter.data - target
    optimizer.apply_gradients([2.0 * difference])
    return float(np.sum(difference ** 2))


class TestSGD:
    def test_converges_on_quadratic(self):
        parameter = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        optimizer = SGD([parameter], lr=0.1)
        losses = [quadratic_step(optimizer, parameter, np.zeros(2)) for _ in range(100)]
        assert losses[-1] < 1e-6
        np.testing.assert_allclose(parameter.data, np.zeros(2), atol=1e-3)

    def test_momentum_accelerates(self):
        plain_param = Tensor(np.array([5.0]), requires_grad=True)
        momentum_param = Tensor(np.array([5.0]), requires_grad=True)
        plain = SGD([plain_param], lr=0.01)
        with_momentum = SGD([momentum_param], lr=0.01, momentum=0.9)
        for _ in range(50):
            quadratic_step(plain, plain_param, np.zeros(1))
            quadratic_step(with_momentum, momentum_param, np.zeros(1))
        assert abs(float(momentum_param.data[0])) < abs(float(plain_param.data[0]))

    def test_weight_decay_shrinks_parameters(self):
        parameter = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = SGD([parameter], lr=0.1, weight_decay=0.5)
        optimizer.apply_gradients([np.zeros(1)])
        assert float(parameter.data[0]) < 1.0

    def test_invalid_hyperparameters(self):
        parameter = Tensor(np.zeros(1), requires_grad=True)
        with pytest.raises(ValueError):
            SGD([parameter], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([parameter], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_skips_parameters_without_gradient(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        optimizer = SGD([a, b], lr=0.1)
        a.grad = 2.0 * a.data
        optimizer.step()
        np.testing.assert_allclose(b.data, [2.0])


class TestAdam:
    def test_converges_on_quadratic(self):
        parameter = Tensor(np.array([4.0, -2.0, 1.0]), requires_grad=True)
        optimizer = Adam([parameter], lr=0.1)
        for _ in range(300):
            quadratic_step(optimizer, parameter, np.zeros(3))
        np.testing.assert_allclose(parameter.data, np.zeros(3), atol=1e-3)

    def test_trains_small_regression_network(self):
        rng = np.random.default_rng(0)
        inputs = rng.uniform(-1, 1, size=(128, 2))
        targets = (inputs[:, :1] * 0.5 - inputs[:, 1:] * 0.25 + 0.1)
        net = MLP(2, 1, hidden_sizes=(16,), seed=0)
        optimizer = Adam(net.parameters(), lr=1e-2)

        def epoch_loss():
            loss, _, grads = net.mse_gradients(inputs, targets)
            optimizer.apply_gradients(grads)
            return float(loss)

        first = epoch_loss()
        for _ in range(200):
            last = epoch_loss()
        assert last < first * 0.1

    def test_invalid_hyperparameters(self):
        parameter = Tensor(np.zeros(1), requires_grad=True)
        with pytest.raises(ValueError):
            Adam([parameter], lr=0.0)
        with pytest.raises(ValueError):
            Adam([parameter], betas=(1.2, 0.9))

    def test_clip_grad_norm(self):
        parameter = Tensor(np.array([1000.0, 1000.0]), requires_grad=True)
        optimizer = Adam([parameter], lr=0.1)
        parameter.grad = parameter.data.copy()
        norm_before = np.linalg.norm(parameter.grad)
        returned = optimizer.clip_grad_norm(1.0)
        assert returned == pytest.approx(norm_before)
        assert np.linalg.norm(parameter.grad) <= 1.0 + 1e-9

    def test_clip_grad_norm_no_clip_when_small(self):
        parameter = Tensor(np.array([0.1]), requires_grad=True)
        optimizer = Adam([parameter], lr=0.1)
        parameter.grad = np.ones(1)
        optimizer.clip_grad_norm(10.0)
        np.testing.assert_allclose(parameter.grad, [1.0])

    def test_apply_gradients_clips_then_steps(self):
        clipped = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        manual = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        Adam([clipped], lr=0.1).apply_gradients([np.array([30.0, 40.0])], max_grad_norm=5.0)
        reference = Adam([manual], lr=0.1)
        manual.grad = np.array([3.0, 4.0])
        reference.step()
        np.testing.assert_array_equal(clipped.data, manual.data)
        np.testing.assert_allclose(clipped.grad, [3.0, 4.0])


class _ReferenceAdam:
    """A per-parameter Adam loop, the reference for the flat step."""

    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            self._m[index] = self.beta1 * self._m[index] + (1.0 - self.beta1) * grad
            self._v[index] = self.beta2 * self._v[index] + (1.0 - self.beta2) * grad ** 2
            m_hat = self._m[index] / bias1
            v_hat = self._v[index] / bias2
            parameter.data = parameter.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class TestFlatAdam:
    """The single flat-array Adam step is bit for bit the per-parameter loop."""

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_flat_adam_matches_per_parameter_reference(self, weight_decay):
        rng = np.random.default_rng(12)
        shapes = [(3, 4), (4,), (4, 1), (1,), ()]
        initial = [rng.normal(size=shape) for shape in shapes]
        flat = [Tensor(array.copy(), requires_grad=True) for array in initial]
        frozen = [Tensor(array.copy(), requires_grad=True) for array in initial]
        optimizer = Adam(flat, lr=0.01, weight_decay=weight_decay)
        reference = _ReferenceAdam(frozen, lr=0.01, weight_decay=weight_decay)

        for step in range(7):
            grads = [rng.normal(size=shape) for shape in shapes]
            # Parameter 2 never gets a gradient; parameter 4 only on odd steps.
            missing = {2} | ({4} if step % 2 == 0 else set())
            before = [parameter.data for parameter in flat]
            for index, (left, right) in enumerate(zip(flat, frozen)):
                left.grad = None if index in missing else grads[index].copy()
                right.grad = None if index in missing else grads[index].copy()
            optimizer.step()
            reference.step()
            for index, (left, right) in enumerate(zip(flat, frozen)):
                np.testing.assert_array_equal(left.data, right.data, err_msg=f"step {step} param {index}")
                assert left.data.shape == right.data.shape
                if index in missing:
                    assert left.data is before[index]
                else:
                    assert left.data is not before[index], "step must rebind .data"

    def test_flat_adam_without_gradients_is_a_no_op(self):
        parameter = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        optimizer = Adam([parameter])
        before = parameter.data
        optimizer.step()
        assert parameter.data is before
