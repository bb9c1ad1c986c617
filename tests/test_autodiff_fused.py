"""Differential test pack for the fused training tape.

The training hot path builds three fused tape nodes -- the whole
:meth:`repro.nn.MLP.forward`, :func:`functional.mse_loss` and
:func:`functional.l2_penalty` -- and steps a flat :class:`repro.nn.optim.Adam`.
The distillers and the PPO critic skip the tape altogether through
:meth:`repro.nn.MLP.mse_gradients`.  Each of them must reproduce the tape it
replaced **bit for bit**: a single flipped mantissa bit in a gradient changes
every trained controller.

The references below rebuild that tape inside this file: the layer-by-layer
forward composes the network's own ``Linear`` and activation modules (one
``matmul``, ``add`` and activation node per layer), the losses compose
``sub``/``mul``/``mean`` and ``mul``/``sum``/``add`` nodes, and Adam is the
per-parameter loop, frozen verbatim.  Every comparison is
``assert_array_equal``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pytest

from repro.attacks import fgsm
from repro.autodiff import Tensor, functional, no_grad
from repro.core.config import DistillationConfig
from repro.core.distillation import DirectDistiller, RobustDistiller
from repro.experts.base import NeuralController
from repro.nn.network import MLP
from repro.nn.optim import Adam
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.spaces import BoxSpace
from repro.systems import VanDerPolOscillator

# ---------------------------------------------------------------------------
# References: the composed tape the fused nodes replace
# ---------------------------------------------------------------------------


def _reference_forward(network: MLP, inputs: Tensor) -> Tensor:
    """One node per ``matmul``, ``add`` and activation, from the network's
    own modules; 1-D input runs as a ``(1, d)`` row, like ``MLP.predict``."""

    single = inputs.ndim == 1
    output = inputs.reshape(1, -1) if single else inputs
    for layer in network.layers:
        output = layer(output)
    return output.reshape(-1) if single else output


def _reference_mse(prediction: Tensor, target) -> Tensor:
    diff = prediction - Tensor.ensure(target)
    return (diff * diff).mean()


def _reference_l2(parameters) -> Tensor:
    total = Tensor(0.0)
    for parameter in parameters:
        total = total + (parameter * parameter).sum()
    return total


def _reference_fgsm_states(distiller: RobustDistiller, states, controls, student) -> np.ndarray:
    state_tensor = Tensor(states, requires_grad=True)
    loss = _reference_mse(_reference_forward(student, state_tensor), controls)
    loss.backward()
    gradient_sign = np.sign(state_tensor.grad)
    gradient_sign[gradient_sign == 0.0] = 1.0
    return states + distiller.perturbation_bound() * gradient_sign


class _ReferenceAdam:
    """The per-parameter Adam loop the flat step replaced, frozen verbatim."""

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


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _zero(parameters) -> None:
    for parameter in parameters:
        parameter.zero_grad()


def _grads(parameters) -> List[Optional[np.ndarray]]:
    return [None if p.grad is None else p.grad.copy() for p in parameters]


def _assert_grads_equal(left, right) -> None:
    assert len(left) == len(right)
    for index, (a, b) in enumerate(zip(left, right)):
        assert (a is None) == (b is None), f"gradient {index}: one side is None"
        if a is not None:
            np.testing.assert_array_equal(a, b, err_msg=f"gradient {index}")


def _network(activation: str, output_activation: str, seed: int = 0) -> MLP:
    return MLP(3, 2, hidden_sizes=(7, 5), activation=activation,
               output_activation=output_activation, seed=seed)


def _run(forward, network, array, requires_grad, upstream):
    params = network.parameters()
    _zero(params)
    inputs = Tensor(array, requires_grad=requires_grad)
    output = forward(network, inputs)
    (output * Tensor(upstream)).sum().backward()
    return output.data.copy(), _grads(params), inputs.grad


# ---------------------------------------------------------------------------
# The fused MLP node
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
@pytest.mark.parametrize("output_activation", ["identity", "tanh"])
@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("requires_grad", [True, False])
def test_mlp_node_matches_layer_by_layer_tape(activation, output_activation, ndim, requires_grad):
    network = _network(activation, output_activation)
    rng = np.random.default_rng(11)
    shape = (3,) if ndim == 1 else (9, 3)
    array = rng.normal(size=shape) * 2.0
    upstream = rng.normal(size=(2,) if ndim == 1 else (9, 2))

    fused = _run(lambda net, x: net(x), network, array, requires_grad, upstream)
    reference = _run(_reference_forward, network, array, requires_grad, upstream)

    np.testing.assert_array_equal(fused[0], reference[0])
    assert fused[0].shape == reference[0].shape
    _assert_grads_equal(fused[1], reference[1])
    if requires_grad:
        np.testing.assert_array_equal(fused[2], reference[2])
        assert fused[2].shape == array.shape
    else:
        assert fused[2] is None and reference[2] is None


def test_mlp_node_is_one_tape_node():
    network = _network("tanh", "identity")
    output = network(Tensor(np.ones((4, 3))))
    assert output._op == "mlp"
    parameters = network.parameters()
    assert len(output._parents) == 1 + len(parameters)
    assert all(left is right for left, right in zip(output._parents[1:], parameters))


def test_mlp_forward_without_grad_builds_no_node():
    network = _network("tanh", "identity")
    with no_grad():
        output = network(Tensor(np.ones((4, 3))))
    assert not output.requires_grad and output._op == "leaf"
    np.testing.assert_array_equal(output.data, network.predict(np.ones((4, 3))))


def test_mlp_node_matches_predict():
    network = _network("sigmoid", "tanh")
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(6, 3))
    np.testing.assert_array_equal(network(Tensor(rows)).data, network.predict(rows))
    np.testing.assert_array_equal(network(Tensor(rows[0])).data, network.predict(rows[0]))


def test_mlp_node_accumulates_into_shared_parameters_in_tape_order():
    """Two calls of one network in one graph: each weight receives two
    contributions, summed in the composed tape's order."""

    network = _network("tanh", "tanh")
    rng = np.random.default_rng(5)
    first, second = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
    params = network.parameters()

    def loss(forward):
        _zero(params)
        total = (forward(network, Tensor(first)) * 0.5).sum() + (forward(network, Tensor(second)) ** 2).sum()
        total.backward()
        return float(total.data), _grads(params)

    fused = loss(lambda net, x: net(x))
    reference = loss(_reference_forward)
    assert fused[0] == reference[0]
    _assert_grads_equal(fused[1], reference[1])


# ---------------------------------------------------------------------------
# The fused loss nodes
# ---------------------------------------------------------------------------


def test_mse_node_matches_composed_tape():
    rng = np.random.default_rng(2)
    values = rng.normal(size=(8, 2))
    targets = rng.normal(size=(8, 2))

    def run(loss_fn):
        prediction = Tensor(values, requires_grad=True)
        target = Tensor(targets, requires_grad=True)
        loss = loss_fn(prediction * 1.5, target)
        loss.backward()
        return loss.data, prediction.grad, target.grad

    fused = run(functional.mse_loss)
    reference = run(_reference_mse)
    for left, right in zip(fused, reference):
        np.testing.assert_array_equal(left, right)


def test_mse_node_broadcasts_target():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(5, 3))
    target = rng.normal(size=(3,))
    prediction = Tensor(values, requires_grad=True)
    functional.mse_loss(prediction, target).backward()
    reference = Tensor(values, requires_grad=True)
    _reference_mse(reference, target).backward()
    np.testing.assert_array_equal(prediction.grad, reference.grad)


def test_l2_node_matches_composed_tape_after_mlp_contribution():
    """``(mlp + g*p) + g*p``: the L2 node lists each parameter twice so the
    accumulation order -- and the bits -- match the composed tape."""

    network = _network("relu", "identity", seed=4)
    rows = np.random.default_rng(6).normal(size=(10, 3))
    params = network.parameters()

    def run(forward, penalty):
        _zero(params)
        loss = forward(network, Tensor(rows)).sum() + 0.37 * penalty(params)
        loss.backward()
        return loss.data, _grads(params)

    fused = run(lambda net, x: net(x), functional.l2_penalty)
    reference = run(_reference_forward, _reference_l2)
    np.testing.assert_array_equal(fused[0], reference[0])
    _assert_grads_equal(fused[1], reference[1])


def test_l2_node_of_no_parameters_is_a_constant():
    penalty = functional.l2_penalty([])
    assert float(penalty.data) == 0.0 and not penalty.requires_grad


def test_l2_node_skips_parameters_without_grad():
    trainable = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    frozen = Tensor(np.array([3.0]))
    penalty = functional.l2_penalty([trainable, frozen])
    assert float(penalty.data) == 14.0
    penalty.backward()
    np.testing.assert_array_equal(trainable.grad, [2.0, -4.0])
    assert frozen.grad is None


# ---------------------------------------------------------------------------
# The tape-free regression steps: distillation minibatches, FGSM, PPO critic
# ---------------------------------------------------------------------------


def _distiller(adversarial_probability: float = 1.0) -> RobustDistiller:
    config = DistillationConfig(hidden_sizes=(12, 12), adversarial_probability=adversarial_probability,
                                l2_weight=1e-2, seed=3)
    return RobustDistiller(VanDerPolOscillator(), config=config, rng=3)


def _batch():
    rng = np.random.default_rng(8)
    return rng.uniform(-2.0, 2.0, size=(16, 2)), rng.normal(size=(16, 1))


@pytest.mark.parametrize("input_grad", [False, True])
@pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
def test_mse_gradients_match_composed_tape(activation, input_grad):
    network = _network(activation, "tanh")
    rng = np.random.default_rng(14)
    rows, targets = rng.normal(size=(9, 3)), rng.normal(size=(9, 2))
    loss, input_gradient, grads = network.mse_gradients(rows, targets, input_grad=input_grad)

    params = network.parameters()
    _zero(params)
    inputs = Tensor(rows, requires_grad=input_grad)
    reference = _reference_mse(_reference_forward(network, inputs), targets)
    reference.backward()
    np.testing.assert_array_equal(loss, reference.data)
    _assert_grads_equal(grads, _grads(params))
    if input_grad:
        np.testing.assert_array_equal(input_gradient, inputs.grad)
    else:
        assert input_gradient is None


def test_direct_batch_gradients_match_composed_tape():
    states, controls = _batch()
    config = DistillationConfig(hidden_sizes=(12, 12), seed=3)
    distiller = DirectDistiller(VanDerPolOscillator(), config=config)
    student = distiller._build_student()
    params = student.parameters()
    loss, grads = distiller._batch_gradients(states, controls, student, params, False)

    _zero(params)
    reference = _reference_mse(_reference_forward(student, Tensor(states)), controls)
    reference.backward()
    np.testing.assert_array_equal(loss, reference.data)
    _assert_grads_equal(grads, _grads(params))


@pytest.mark.parametrize("adversarial", [True, False])
def test_robust_batch_gradients_match_composed_tape(adversarial):
    """MSE + L2 on either branch; on the FGSM branch the attack backward's
    leftover parameter gradients come first, as they sat in ``.grad`` when
    the composed tape accumulated: pins the full order of a minibatch."""

    states, controls = _batch()
    distiller = _distiller(1.0 if adversarial else 0.0)
    student = distiller._build_student()
    params = student.parameters()
    loss, grads = distiller._batch_gradients(states, controls, student, params, adversarial)

    _zero(params)
    if adversarial:
        states = _reference_fgsm_states(distiller, states, controls, student)
    reference = _reference_mse(_reference_forward(student, Tensor(states)), controls)
    reference = reference + distiller.config.l2_weight * _reference_l2(params)
    reference.backward()

    np.testing.assert_array_equal(loss, reference.data)
    _assert_grads_equal(grads, _grads(params))


def test_fgsm_states_match_composed_tape():
    states, controls = _batch()
    distiller = _distiller()
    student = distiller._build_student()
    params = student.parameters()
    adversarial, clean_grads = distiller._fgsm_states(states, controls, student)
    _zero(params)
    np.testing.assert_array_equal(adversarial, _reference_fgsm_states(distiller, states, controls, student))
    _assert_grads_equal(clean_grads, _grads(params))


class _CriticEnv:
    state_dim = 3
    action_dim = 1
    action_space = BoxSpace([-1.0], [1.0])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("max_grad_norm", [5.0, 1e-3])
def test_value_step_matches_composed_tape(dtype, max_grad_norm):
    """The critic update on a rollout minibatch (float32 buffers too) against
    ``mse_loss(V(Tensor(states)), returns)`` on the composed tape, with the
    same clipping and Adam step; ``1e-3`` forces the clip."""

    config = PPOConfig(hidden_sizes=(7, 5), max_grad_norm=max_grad_norm, seed=4)
    trainer = PPOTrainer(_CriticEnv(), config=config)
    twin = trainer.value_network.net.clone()
    optimizer = Adam(twin.parameters(), lr=config.value_lr)
    rng = np.random.default_rng(15)
    batch = {"states": rng.normal(size=(11, 3)).astype(dtype), "returns": rng.normal(size=11).astype(dtype)}

    for _ in range(3):
        loss = trainer._value_step(batch)
        optimizer.zero_grad()
        reference = _reference_mse(
            _reference_forward(twin, Tensor(batch["states"])), batch["returns"].reshape(-1, 1)
        )
        reference.backward()
        optimizer.clip_grad_norm(max_grad_norm)
        optimizer.step()
        assert loss == float(reference.data)
        for left, right in zip(trainer.value_network.parameters(), twin.parameters()):
            np.testing.assert_array_equal(left.data, right.data)


@pytest.mark.parametrize("scaled", [False, True])
def test_attack_input_gradients_match_composed_tape(scaled):
    network = MLP(2, 1, hidden_sizes=(8, 8), output_activation="tanh" if scaled else "identity", seed=9)
    bounds = dict(output_low=[-3.0], output_high=[2.0]) if scaled else {}
    controller = NeuralController(network, **bounds)
    states = np.random.default_rng(10).normal(size=(12, 2))

    fused = fgsm._control_change_gradient_batch(controller, states)

    direction = np.sign(controller.batch_control(states))
    direction[direction == 0.0] = 1.0
    tensor_states = Tensor(states, requires_grad=True)
    output = _reference_forward(network, tensor_states)
    if scaled:
        output = output * Tensor(controller._scale) + Tensor(controller._offset)
    (output * Tensor(direction)).sum().backward()
    np.testing.assert_array_equal(fused, tensor_states.grad)


@pytest.mark.xfail(strict=True, reason=(
    "known defect: RobustDistiller._batch_gradients adds the clean-loss "
    "parameter gradients of the FGSM pass to the adversarial step's, so Adam "
    "steps on clean + adversarial gradients; fixing it changes trained weights"
))
def test_robust_batch_gradients_are_the_adversarial_loss_alone():
    states, controls = _batch()
    distiller = _distiller()
    student = distiller._build_student()
    params = student.parameters()

    _, actual = distiller._batch_gradients(states, controls, student, params, True)

    adversarial, _ = distiller._fgsm_states(states, controls, student)
    _zero(params)
    alone = functional.mse_loss(student(Tensor(adversarial)), controls)
    (alone + distiller.config.l2_weight * functional.l2_penalty(params)).backward()
    _assert_grads_equal(actual, _grads(params))


# ---------------------------------------------------------------------------
# Tape bookkeeping
# ---------------------------------------------------------------------------


def test_backward_stores_grad_on_leaves_only():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    hidden = x * 3.0
    (hidden * hidden).sum().backward()
    np.testing.assert_array_equal(x.grad, [18.0, 36.0])
    assert hidden.grad is None


def test_matmul_skips_vjp_of_constant_operands():
    weight = Tensor(np.ones((3, 2)), requires_grad=True)
    node = Tensor(np.ones((4, 3))).matmul(weight)
    grad_inputs, grad_weight = node._backward_fn(np.ones((4, 2)))
    assert grad_inputs is None
    np.testing.assert_array_equal(grad_weight, np.full((3, 2), 4.0))


# ---------------------------------------------------------------------------
# Flat Adam
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_flat_adam_matches_per_parameter_reference(weight_decay):
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


def test_flat_adam_without_gradients_is_a_no_op():
    parameter = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    optimizer = Adam([parameter])
    before = parameter.data
    optimizer.step()
    assert parameter.data is before
