"""Bit-level pins of every training and attack gradient.

Each test runs a gradient-driven step on fixed inputs -- PPO policy and
critic updates (Gaussian with the clip and the KL-penalty objectives,
categorical), DDPG critic and actor updates, the evaluation FGSM/PGD input
gradients, and the tape-free regression steps of the distillers and the PPO
critic -- and compares a sha256 digest of the float64 bytes it leaves behind
with a recorded value.  A single flipped mantissa bit in any gradient
changes the digest, and with it every trained controller.

The digests were recorded when these gradients still came from a general
reverse-mode tape; the tests only touch APIs that existed then, so they pin
the closed forms to that tape bit for bit.  Like the end-to-end golden in
``tests/test_training_determinism.py`` they assume IEEE float64 NumPy with
the default BLAS on x86-64.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.attacks import fgsm
from repro.attacks.pgd import pgd_perturbation_batch
from repro.core.config import DistillationConfig
from repro.core.distillation import DirectDistiller, RobustDistiller
from repro.experts.base import NeuralController
from repro.nn.network import MLP
from repro.rl.ddpg import DDPGConfig, DDPGTrainer
from repro.rl.policies import CategoricalMLPPolicy
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.spaces import BoxSpace, DiscreteSpace
from repro.systems import VanDerPolOscillator


def _digest(*values) -> str:
    """sha256 over each value's shape and float64 bytes, in order."""

    hasher = hashlib.sha256()
    for value in values:
        array = np.ascontiguousarray(np.asarray(value, dtype=np.float64))
        hasher.update(repr(array.shape).encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()[:16]


def _weights(module) -> list:
    return [parameter.data for parameter in module.parameters()]


class _PlanarEnv:
    """2-D point mass driven by a 2-D action clipped to ``[-1, 1]``.

    The policy's Gaussian samples often leave the box, so rollouts hold
    clipped actions; two action dimensions make ``log_std`` a vector.
    """

    horizon = 12
    state_dim = 2
    action_dim = 2

    def __init__(self, seed: int = 0):
        self.observation_space = BoxSpace([-2.0, -2.0], [2.0, 2.0])
        self.action_space = BoxSpace([-1.0, -1.0], [1.0, 1.0])
        self._rng = np.random.default_rng(seed)
        self._state = None
        self._steps = 0

    def reset(self):
        self._state = self._rng.uniform(-1.0, 1.0, size=2)
        self._steps = 0
        return self._state.copy()

    def step(self, action):
        action = np.clip(np.asarray(action, dtype=np.float64).reshape(-1), -1.0, 1.0)
        self._state = self._state + 0.3 * action
        self._steps += 1
        reward = -float(self._state @ self._state) - 0.05 * float(action @ action)
        return self._state.copy(), reward, self._steps >= self.horizon, {}


class _ThreeWayEnv(_PlanarEnv):
    """The planar plant with three discrete pushes (left, none, right)."""

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self.action_space = DiscreteSpace(3)

    def step(self, action):
        push = float(np.asarray(action).reshape(-1)[0]) - 1.0
        return super().step(np.array([push, -push]))


# ---------------------------------------------------------------------------
# PPO: policy and critic updates on one fixed rollout
# ---------------------------------------------------------------------------

PPO_DIGESTS = {
    "gaussian-clip": "24845562bb72fe4d",
    "gaussian-kl-entropy": "eb8f3df2c58fc020",
    "categorical-clip": "d692819745234cfb",
}


def _ppo_trainer(case: str) -> PPOTrainer:
    common = dict(
        hidden_sizes=(8, 6),
        minibatch_size=24,
        update_iterations=3,
        policy_lr=3e-2,
        target_kl=10.0,
        max_grad_norm=0.5,
        seed=7,
    )
    if case == "gaussian-clip":
        return PPOTrainer(_PlanarEnv(), config=PPOConfig(objective="clip", **common), rng=7)
    if case == "gaussian-kl-entropy":
        config = PPOConfig(objective="kl", entropy_coefficient=0.05, kl_coefficient=0.7, **common)
        return PPOTrainer(_PlanarEnv(), config=config, rng=7)
    policy = CategoricalMLPPolicy(2, 3, hidden_sizes=(8, 6), seed=7)
    return PPOTrainer(_ThreeWayEnv(), policy=policy, config=PPOConfig(**common), rng=7)


@pytest.mark.parametrize("case", sorted(PPO_DIGESTS))
def test_ppo_updates_match_the_recorded_digest(case):
    trainer = _ppo_trainer(case)
    buffer = trainer.collect_rollouts(60)
    values = []
    for _ in range(3):
        stats = trainer.update(buffer)
        values += [stats[key] for key in sorted(stats)]
        values += _weights(trainer.policy) + _weights(trainer.value_network)
    assert _digest(*values) == PPO_DIGESTS[case]


# ---------------------------------------------------------------------------
# DDPG: critic and actor steps from one replay buffer
# ---------------------------------------------------------------------------

DDPG_DIGEST = "ee6802b0e2ad176a"


def test_ddpg_updates_match_the_recorded_digest():
    config = DDPGConfig(episodes=1, batch_size=16, hidden_sizes=(8, 6), max_grad_norm=0.5,
                        actor_lr=1e-2, critic_lr=1e-2, tau=0.1, seed=3)
    trainer = DDPGTrainer(_PlanarEnv(), config=config, rng=3)
    rng = np.random.default_rng(4)
    for _ in range(40):
        state = rng.uniform(-1.0, 1.0, size=2)
        action = rng.uniform(-1.0, 1.0, size=2)
        trainer.buffer.add(state, action, float(rng.normal()), state + 0.3 * action, bool(rng.uniform() < 0.1))
    values = []
    for _ in range(4):
        stats = trainer.update()
        values += [stats["critic_loss"], stats["actor_loss"]]
        values += _weights(trainer.actor) + _weights(trainer.critic)
        values += _weights(trainer.target_actor) + _weights(trainer.target_critic)
    assert _digest(*values) == DDPG_DIGEST


# ---------------------------------------------------------------------------
# Evaluation attacks: FGSM input gradients and PGD, scaled and unscaled
# ---------------------------------------------------------------------------

ATTACK_DIGESTS = {False: "ceebb0b8b74f0bb1", True: "f58fab0a2e1d69b4"}


def _attacked_controller(scaled: bool):
    network = MLP(3, 2, hidden_sizes=(8, 8), activation="relu",
                  output_activation="tanh" if scaled else "identity", seed=9)
    bounds = dict(output_low=[-3.0, -1.0], output_high=[2.0, 4.0]) if scaled else {}
    return NeuralController(network, **bounds)


@pytest.mark.parametrize("scaled", [False, True])
def test_attack_gradients_match_the_recorded_digest(scaled):
    controller = _attacked_controller(scaled)
    states = np.random.default_rng(10).normal(size=(12, 3))
    gradient = fgsm._control_change_gradient_batch(controller, states)
    attacked = pgd_perturbation_batch(controller, states, [0.1, 0.2, 0.05], steps=4)
    assert _digest(gradient, attacked) == ATTACK_DIGESTS[scaled]


# ---------------------------------------------------------------------------
# The regression steps: mse_gradients, the distillers, the PPO critic
# ---------------------------------------------------------------------------

REGRESSION_DIGESTS = {
    "mse_gradients": "9438736259805013",
    "direct": "c5920d775360fe6d",
    "robust-clean": "327a3688a4be3e65",
    "robust-adversarial": "d0b8fe68fdf1f9de",
    "fgsm_states": "39e689b2bd194fda",
    "value_step": "d236510a1d0554fd",
    "value_step-float32": "5c32cfcea67542bc",
}


def _distillation_batch():
    rng = np.random.default_rng(8)
    return rng.uniform(-2.0, 2.0, size=(16, 2)), rng.normal(size=(16, 1))


def _regression_values(case: str) -> list:
    if case == "mse_gradients":
        values = []
        for activation in ("tanh", "relu", "sigmoid"):
            network = MLP(3, 2, hidden_sizes=(7, 5), activation=activation, output_activation="tanh", seed=0)
            rng = np.random.default_rng(14)
            loss, input_gradient, grads = network.mse_gradients(
                rng.normal(size=(9, 3)), rng.normal(size=(9, 2)), input_grad=True
            )
            values += [loss, input_gradient, *grads]
        return values
    states, controls = _distillation_batch()
    if case == "direct":
        distiller = DirectDistiller(VanDerPolOscillator(), config=DistillationConfig(hidden_sizes=(12, 12), seed=3))
        student = distiller._build_student()
        loss, grads = distiller._batch_gradients(states, controls, student, student.parameters(), False)
        return [loss, *grads]
    config = DistillationConfig(hidden_sizes=(12, 12), l2_weight=1e-2, seed=3)
    distiller = RobustDistiller(VanDerPolOscillator(), config=config, rng=3)
    student = distiller._build_student()
    if case == "fgsm_states":
        adversarial, clean_grads = distiller._fgsm_states(states, controls, student)
        return [adversarial, *clean_grads]
    if case.startswith("robust"):
        loss, grads = distiller._batch_gradients(
            states, controls, student, student.parameters(), case == "robust-adversarial"
        )
        return [loss, *grads]
    # The PPO critic on a rollout minibatch, from float64 or float32 buffers.
    dtype = np.float32 if case.endswith("float32") else np.float64
    trainer = PPOTrainer(_PlanarEnv(), config=PPOConfig(hidden_sizes=(7, 5), max_grad_norm=1e-3, seed=4))
    rng = np.random.default_rng(15)
    batch = {"states": rng.normal(size=(11, 2)).astype(dtype), "returns": rng.normal(size=11).astype(dtype)}
    return [trainer._value_step(batch) for _ in range(3)] + _weights(trainer.value_network)


@pytest.mark.parametrize("case", sorted(REGRESSION_DIGESTS))
def test_regression_steps_match_the_recorded_digest(case):
    assert _digest(*_regression_values(case)) == REGRESSION_DIGESTS[case]
