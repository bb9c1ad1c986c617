"""Tests for SGD and Adam optimisers and the flat training step."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor
from repro.core.config import DistillationConfig
from repro.core.distillation import RobustDistiller
from repro.nn.network import MLP
from repro.nn.optim import SGD, Adam, FlatParameters
from repro.systems import make_system


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
            self._v[index] = self.beta2 * self._v[index] + (1.0 - self.beta2) * np.square(grad)
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


def _reference_clip(parameters, max_norm):
    """The per-parameter global-norm clip the flat one must match bit for bit."""

    total = 0.0
    for parameter in parameters:
        if parameter.grad is not None:
            total += float(np.sum(np.square(parameter.grad)))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        for parameter in parameters:
            if parameter.grad is not None:
                parameter.grad = parameter.grad * (max_norm / norm)
    return norm


_SHAPES = st.lists(
    st.one_of(
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        st.tuples(st.integers(1, 9)),
        st.just(()),
    ),
    min_size=1,
    max_size=5,
)


class TestFlatStepProperties:
    """The flat Adam step, clip and L2 term against per-parameter loops."""

    @given(
        shapes=_SHAPES,
        seed=st.integers(0, 2**16),
        steps=st.integers(1, 6),
        max_grad_norm=st.one_of(st.none(), st.floats(0.05, 5.0)),
        scale=st.sampled_from([0.01, 1.0, 100.0]),
    )
    @settings(max_examples=60, deadline=None)
    # A 0-d gradient is a NumPy scalar here, where ``** 2`` can round one ulp
    # away from ``np.square``; the flat step squares with ``np.square``.
    @example(shapes=[(), (2, 4), ()], seed=1109, steps=1, max_grad_norm=0.375, scale=1.0)
    def test_flat_adam_and_clip_match_the_reference_loop(self, shapes, seed, steps, max_grad_norm, scale):
        rng = np.random.default_rng(seed)
        initial = [rng.normal(size=shape) for shape in shapes]
        flat = [Tensor(array.copy(), requires_grad=True) for array in initial]
        frozen = [Tensor(array.copy(), requires_grad=True) for array in initial]
        optimizer = Adam(flat, lr=0.01)
        reference = _ReferenceAdam(frozen, lr=0.01)
        for step in range(steps):
            grads = [scale * rng.normal(size=shape) for shape in shapes]
            # Through the optimizer's own buffer on even steps, as fresh arrays on odd ones.
            if step % 2 == 0:
                for view, grad in zip(optimizer.grads, grads):
                    view[...] = grad
                optimizer.apply_gradients(optimizer.grads, max_grad_norm)
            else:
                optimizer.apply_gradients([grad.copy() for grad in grads], max_grad_norm)
            for parameter, grad in zip(frozen, grads):
                parameter.grad = grad.copy()
            if max_grad_norm is not None:
                _reference_clip(frozen, max_grad_norm)
            reference.step()
            for index, (left, right) in enumerate(zip(flat, frozen)):
                np.testing.assert_array_equal(left.grad, right.grad, err_msg=f"step {step} grad {index}")
                np.testing.assert_array_equal(left.data, right.data, err_msg=f"step {step} param {index}")
                assert left.data.shape == right.data.shape

    @given(shapes=_SHAPES, seed=st.integers(0, 2**16), scale=st.sampled_from([0.01, 1.0, 100.0]))
    @settings(max_examples=40, deadline=None)
    def test_flat_clip_norm_is_the_per_parameter_sum(self, shapes, seed, scale):
        rng = np.random.default_rng(seed)
        grads = [scale * rng.normal(size=shape) for shape in shapes]
        parameters = [Tensor(np.zeros(shape), requires_grad=True) for shape in shapes]
        twins = [Tensor(np.zeros(shape), requires_grad=True) for shape in shapes]
        for parameter, twin, grad in zip(parameters, twins, grads):
            parameter.grad, twin.grad = grad.copy(), grad.copy()
        max_norm = 0.5 * scale
        assert Adam(parameters).clip_grad_norm(max_norm) == _reference_clip(twins, max_norm)
        for parameter, twin in zip(parameters, twins):
            np.testing.assert_array_equal(parameter.grad, twin.grad)

    @given(
        hidden=st.lists(st.integers(1, 12), min_size=0, max_size=2),
        rows=st.integers(1, 20),
        seed=st.integers(0, 2**16),
        l2_weight=st.sampled_from([0.0, 5e-3, 0.3]),
        adversarial=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_flat_l2_term_matches_the_per_parameter_loop(self, hidden, rows, seed, l2_weight, adversarial):
        """``clean + ((g + lambda q) + lambda q)`` on the flat vectors is the
        per-parameter sum, and the penalty the per-parameter ``q * q`` sum."""

        system = make_system("vanderpol")
        rng = np.random.default_rng(seed)
        states, controls = rng.uniform(-2.0, 2.0, size=(rows, 2)), rng.normal(size=(rows, 1))
        config = DistillationConfig(hidden_sizes=tuple(hidden), l2_weight=l2_weight, seed=seed)
        distiller = RobustDistiller(system, config=config, rng=seed)
        student = distiller._build_student()
        optimizer = Adam(student.parameters())
        loss, grads = distiller._batch_gradients(states, controls, student, optimizer.parameters, adversarial)

        clean = None
        batch = states
        if adversarial:
            batch, clean = distiller._fgsm_states(states, controls, student)
        expected_loss, _, expected = student.mse_gradients(batch, controls)
        penalty = np.asarray(0.0)
        for index, parameter in enumerate(student.parameters()):
            array = parameter.data
            penalty = penalty + (array * array).sum()
            share = l2_weight * array
            expected[index] = (expected[index] + share) + share
            if clean is not None:
                expected[index] = clean[index] + expected[index]
        assert loss == expected_loss + l2_weight * penalty
        for index, (got, want, view) in enumerate(zip(grads, expected, optimizer.grads)):
            assert got is view, "the gradient lands in the optimizer's flat vector"
            np.testing.assert_array_equal(got, want, err_msg=f"param {index}")


class TestRebindingBetweenSteps:
    """A parameter rebound after a step is the one the next step updates."""

    @staticmethod
    def _twins():
        rng = np.random.default_rng(5)
        rows, targets = rng.normal(size=(16, 3)), rng.normal(size=(16, 2))
        net, twin = MLP(3, 2, hidden_sizes=(6,), seed=1), MLP(3, 2, hidden_sizes=(6,), seed=1)
        optimizer, reference = Adam(net.parameters(), lr=0.05), _ReferenceAdam(twin.parameters(), lr=0.05)
        return rows, targets, net, twin, optimizer, reference

    @staticmethod
    def _step(rows, targets, net, twin, optimizer, reference):
        _, _, grads = net.mse_gradients(rows, targets, out=optimizer.grads)
        optimizer.apply_gradients(grads)
        _, _, twin_grads = twin.mse_gradients(rows, targets)
        for parameter, grad in zip(twin.parameters(), twin_grads):
            parameter.grad = grad
        reference.step()
        for left, right in zip(net.parameters(), twin.parameters()):
            np.testing.assert_array_equal(left.data, right.data)

    def test_load_state_dict_mid_training(self):
        rows, targets, net, twin, optimizer, reference = self._twins()
        for _ in range(3):
            self._step(rows, targets, net, twin, optimizer, reference)
        loaded = MLP(3, 2, hidden_sizes=(6,), seed=9).state_dict()
        net.load_state_dict(loaded)
        twin.load_state_dict(loaded)
        self._step(rows, targets, net, twin, optimizer, reference)
        stale = [parameter.data.copy() for parameter in net.parameters()]
        for _ in range(2):
            self._step(rows, targets, net, twin, optimizer, reference)
        assert not np.array_equal(net.parameters()[0].data, stale[0])

    def test_rebound_last_layer_bias(self):
        rows, targets, net, twin, optimizer, reference = self._twins()
        for _ in range(2):
            self._step(rows, targets, net, twin, optimizer, reference)
        for network in (net, twin):
            network.linear_layers()[-1].bias.data = np.array([0.75, -1.5])
        self._step(rows, targets, net, twin, optimizer, reference)
        self._step(rows, targets, net, twin, optimizer, reference)

    def test_step_rebinds_views_of_a_fresh_flat_vector(self):
        rows, targets, net, twin, optimizer, reference = self._twins()
        self._step(rows, targets, net, twin, optimizer, reference)
        before = [parameter.data for parameter in net.parameters()]
        snapshot = [array.copy() for array in before]
        self._step(rows, targets, net, twin, optimizer, reference)
        after = [parameter.data for parameter in net.parameters()]
        assert all(new.base is after[0].base for new in after), "one flat parameter vector"
        for old, kept in zip(before, snapshot):
            np.testing.assert_array_equal(old, kept)


class TestVJPOutViews:
    """``_vjp(..., out=views)`` writes the list path's arrays into the views."""

    @pytest.mark.parametrize(
        "activation,output_activation", [("tanh", "identity"), ("relu", "tanh"), ("sigmoid", "sigmoid")]
    )
    @pytest.mark.parametrize("shape", [(9, 3), (4, 6, 3)], ids=["rows", "stacks"])
    def test_out_views_match_the_list_path(self, activation, output_activation, shape):
        net = MLP(3, 2, hidden_sizes=(7, 5), activation=activation,
                  output_activation=output_activation, seed=2)
        rng = np.random.default_rng(3)
        rows, upstream = rng.normal(size=shape), rng.normal(size=shape[:-1] + (2,))
        saved: list = []
        net._run(rows, saved)
        expected_input, expected = net._vjp(saved, upstream, True)
        flat = FlatParameters(net.parameters())
        flat.grad[...] = np.nan
        got_input, got = net._vjp(saved, upstream, True, out=flat.grads)
        np.testing.assert_array_equal(got_input, expected_input)
        assert len(got) == len(expected) == len(flat.grads)
        for left, right, view in zip(got, expected, flat.grads):
            assert left is view
            np.testing.assert_array_equal(left, right)
        np.testing.assert_array_equal(flat.grad, np.concatenate([grad.ravel() for grad in expected]))
