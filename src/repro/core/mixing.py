"""RL-based adaptive mixing of multiple experts (Section III-A).

The mixing MDP: the state is the plant state, the action is the weight
vector ``a(t) = (a_1, ..., a_n)`` with ``a_i`` bounded in
``[-AB_i, AB_i]`` (``AB_i >= 1``), and the control applied to the plant is

.. math::  u(t) = clip(\\sum_i a_i(t) \\kappa_i(s(t)), U_{inf}, U_{sup})

The reward is the paper's punishment/energy reward, and the policy is
trained with PPO (Proposition 1) or DDPG (Remark 1).  The trained policy
combined with the experts is the *mixed controller design* ``A_W`` -- the
teacher of the distillation step.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.core.config import MixingConfig
from repro.experts.base import Controller
from repro.rl.ddpg import DDPGConfig, DDPGTrainer
from repro.rl.env import ControlEnv, RewardFunction
from repro.rl.policies import DeterministicMLPPolicy, GaussianMLPPolicy
from repro.rl.ppo import PPOTrainer
from repro.rl.spaces import BoxSpace
from repro.systems.base import ControlSystem
from repro.systems.simulation import weighted_expert_controls
from repro.utils.logging import TrainingLogger
from repro.utils.seeding import RngLike, get_rng


class AdaptiveMixingEnv(ControlEnv):
    """Control environment whose action is the expert weight vector."""

    def __init__(
        self,
        system: ControlSystem,
        experts: Sequence[Controller],
        weight_bound: Union[float, Sequence[float]] = 1.5,
        reward: Optional[RewardFunction] = None,
        horizon: Optional[int] = None,
        perturbation=None,
        rng: RngLike = None,
        num_envs: int = 1,
    ):
        if len(experts) < 2:
            raise ValueError("adaptive mixing requires at least two experts")
        self.experts = list(experts)
        bounds = np.atleast_1d(np.asarray(weight_bound, dtype=np.float64))
        if bounds.size == 1:
            bounds = np.full(len(experts), float(bounds[0]))
        if bounds.size != len(self.experts):
            raise ValueError("weight_bound must be scalar or one value per expert")
        if np.any(bounds < 1.0):
            raise ValueError("the paper requires AB_i >= 1")
        self.weight_bounds = bounds
        super().__init__(
            system,
            reward=reward,
            horizon=horizon,
            perturbation=perturbation,
            rng=rng,
            num_envs=num_envs,
        )

    def build_action_space(self) -> BoxSpace:
        return BoxSpace(-self.weight_bounds, self.weight_bounds)

    def actions_to_controls(self, actions: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Eq. (4) on ``N`` rows: the weighted sum of the experts' batched
        controls, weights clipped to ``[-AB_i, AB_i]`` (the plant clips the sum)."""

        weights = np.clip(np.atleast_2d(actions), -self.weight_bounds, self.weight_bounds)
        return weighted_expert_controls(self.experts, weights, states, self.system.control_dim)


class MixedController(Controller):
    """The mixed controller design ``A_W``: weight policy + experts + clip.

    Acts as an ordinary controller so it can be evaluated by the metrics
    harness and used as the distillation teacher.  The weight policy is
    queried deterministically (its mean action) at evaluation time.
    """

    def __init__(
        self,
        system: ControlSystem,
        experts: Sequence[Controller],
        policy: Union[GaussianMLPPolicy, DeterministicMLPPolicy],
        weight_bounds: Sequence[float],
        name: str = "AW",
    ):
        self.system = system
        self.experts = list(experts)
        self.policy = policy
        self.weight_bounds = np.atleast_1d(np.asarray(weight_bounds, dtype=np.float64))
        self.name = name

    def weights_batch(self, states: np.ndarray) -> np.ndarray:
        """Dynamically-assigned weights for an ``(N, state_dim)`` batch."""

        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if isinstance(self.policy, GaussianMLPPolicy):
            raw = self.policy.mean_actions(states)
        else:
            raw = self.policy.act_batch(states, noise_scale=0.0)
        return np.clip(np.atleast_2d(raw), -self.weight_bounds, self.weight_bounds)

    def batch_control(self, states: np.ndarray) -> np.ndarray:
        """Teacher evaluation: one policy forward pass and one batched
        query per expert for a whole ``(N, state_dim)`` batch."""

        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        weights = self.weights_batch(states)
        controls = weighted_expert_controls(self.experts, weights, states, self.system.control_dim)
        return self.system.clip_control_batch(controls)

    def num_parameters(self) -> int:
        """Size of the mixed design (policy plus neural experts), for the
        storage argument motivating distillation."""

        total = sum(parameter.size for parameter in self.policy.parameters())
        for expert in self.experts:
            network = getattr(expert, "network", None)
            if network is not None and hasattr(network, "num_parameters"):
                total += network.num_parameters()
        return int(total)


class MixingTrainer:
    """Learn the adaptive mixing policy with PPO (default) or DDPG."""

    def __init__(
        self,
        system: ControlSystem,
        experts: Sequence[Controller],
        config: Optional[MixingConfig] = None,
        perturbation=None,
        rng: RngLike = None,
    ):
        self.system = system
        self.experts = list(experts)
        self.config = config if config is not None else MixingConfig()
        self._rng = get_rng(rng if rng is not None else self.config.seed)
        reward = RewardFunction(
            punishment=self.config.punishment,
            energy_weight=self.config.energy_weight,
            survival_bonus=self.config.survival_bonus,
        )
        self.env = AdaptiveMixingEnv(
            system,
            self.experts,
            weight_bound=self.config.weight_bound,
            reward=reward,
            perturbation=perturbation,
            rng=self._rng,
            num_envs=self.config.num_envs if self.config.algorithm == "ppo" else 1,
        )
        self._trainer: Optional[object] = None

    def _initial_weight_prior(self) -> np.ndarray:
        """Warm-start weight vector: uniform mixture unless overridden."""

        configured = self.config.initial_weights
        if configured is None:
            return np.full(len(self.experts), 1.0 / len(self.experts))
        prior = np.atleast_1d(np.asarray(configured, dtype=np.float64))
        if prior.size == 1:
            prior = np.full(len(self.experts), float(prior[0]))
        if prior.size != len(self.experts):
            raise ValueError("initial_weights must be scalar or one value per expert")
        return np.clip(prior, -self.env.weight_bounds, self.env.weight_bounds)

    def _build_warm_started_policy(self) -> GaussianMLPPolicy:
        """Gaussian policy whose initial mean output equals the weight prior.

        The last linear layer's weights are shrunk and its bias set to the
        prior, so before any RL update the mixed controller already behaves
        like a fixed-weight ensemble instead of an arbitrary random mixture.
        """

        policy = GaussianMLPPolicy(
            self.system.state_dim,
            len(self.experts),
            self.env.action_space.low,
            self.env.action_space.high,
            hidden_sizes=self.config.hidden_sizes,
            seed=self.config.seed,
        )
        prior = self._initial_weight_prior()
        final_linear = policy.mean_net.linear_layers()[-1]
        final_linear.weight.data = final_linear.weight.data * 0.01
        final_linear.bias.data = prior.copy()
        return policy

    def _build_warm_started_actor(self) -> DeterministicMLPPolicy:
        """DDPG actor whose initial (tanh-squashed) output equals the weight prior."""

        actor = DeterministicMLPPolicy(
            self.system.state_dim,
            len(self.experts),
            self.env.action_space.low,
            self.env.action_space.high,
            hidden_sizes=self.config.hidden_sizes,
            seed=self.config.seed,
        )
        prior = self._initial_weight_prior()
        # Invert the output transform: tanh(bias) * scale + offset = prior.
        squashed = np.clip((prior - actor._offset) / actor._scale, -0.99, 0.99)
        final_linear = actor.net.linear_layers()[-1]
        final_linear.weight.data = final_linear.weight.data * 0.01
        final_linear.bias.data = np.arctanh(squashed)
        return actor

    def train(self, epochs: Optional[int] = None) -> MixedController:
        """Run the RL loop and return the trained mixed controller ``A_W``."""

        if self.config.algorithm == "ppo":
            policy = self._build_warm_started_policy()
            trainer = PPOTrainer(self.env, policy=policy, config=self.config.ppo_config(), rng=self._rng)
            trainer.train(epochs=epochs)
            policy = trainer.policy
        else:
            ddpg_config = DDPGConfig(
                episodes=epochs if epochs is not None else self.config.epochs,
                gamma=self.config.gamma,
                actor_lr=self.config.policy_lr,
                critic_lr=self.config.value_lr,
                hidden_sizes=self.config.hidden_sizes,
                seed=self.config.seed,
            )
            actor = self._build_warm_started_actor()
            trainer = DDPGTrainer(self.env, actor=actor, config=ddpg_config, rng=self._rng)
            trainer.train()
            policy = trainer.actor
        self._trainer = trainer
        return MixedController(
            self.system,
            self.experts,
            policy,
            weight_bounds=self.env.weight_bounds,
            name="AW",
        )

    @property
    def logger(self) -> Optional[TrainingLogger]:
        return getattr(self._trainer, "logger", None)
