"""The switching adaptation baseline ``A_S`` (reference [4] of the paper).

At every step an RL policy selects exactly one expert and applies its control
unchanged.  The action space is therefore the finite set
``{1, ..., n}`` -- a strict sub-space of Cocktail's continuous weight box,
which is the formal reason (Proposition 1) the adaptive mixing strategy can
only do better.  The policy is trained with PPO over a categorical
distribution, using the same punishment/energy reward as the mixing step so
the comparison is apples to apples.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.config import MixingConfig
from repro.experts.base import Controller
from repro.rl.env import ControlEnv, RewardFunction
from repro.rl.policies import CategoricalMLPPolicy
from repro.rl.ppo import PPOTrainer
from repro.rl.spaces import DiscreteSpace
from repro.systems.base import ControlSystem
from repro.utils.logging import TrainingLogger
from repro.utils.seeding import RngLike, get_rng


def selected_expert_controls(
    experts: Sequence[Controller], indices: np.ndarray, states: np.ndarray
) -> np.ndarray:
    """Row ``i``'s control from its selected expert ``experts[indices[i]]``.

    The one kernel behind both the switching environment
    (:meth:`SwitchingEnv.actions_to_controls`) and the trained baseline
    (:meth:`SwitchingController.batch_control`); indices are clamped to the
    expert list.  Each expert is called once, on the rows that selected it
    gathered in row order, and its controls are scattered back to those rows.
    """

    indices = np.clip(np.asarray(indices).astype(int), 0, len(experts) - 1)
    rows = [np.flatnonzero(indices == index) for index in range(len(experts))]
    gathered = np.concatenate(
        [experts[index].batch_control(states[rows[index]]) for index in np.unique(indices)]
    )
    controls = np.empty_like(gathered)
    controls[np.concatenate(rows)] = gathered
    return controls


class SwitchingEnv(ControlEnv):
    """Control environment whose action is the index of the expert to apply."""

    def __init__(
        self,
        system: ControlSystem,
        experts: Sequence[Controller],
        reward: Optional[RewardFunction] = None,
        horizon: Optional[int] = None,
        rng: RngLike = None,
        num_envs: int = 1,
    ):
        if len(experts) < 2:
            raise ValueError("switching requires at least two experts")
        self.experts = list(experts)
        super().__init__(system, reward=reward, horizon=horizon, rng=rng, num_envs=num_envs)

    def build_action_space(self) -> DiscreteSpace:
        return DiscreteSpace(len(self.experts))

    def actions_to_controls(self, actions: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Each row's control from its selected expert (one call per expert)."""

        return selected_expert_controls(self.experts, actions[:, 0], states)

    @property
    def action_dim(self) -> int:
        return 1


class SwitchingController(Controller):
    """The trained switching policy exposed as a controller (``A_S``)."""

    name = "AS"

    def __init__(self, system: ControlSystem, experts: Sequence[Controller], policy: CategoricalMLPPolicy):
        self.system = system
        self.experts = list(experts)
        self.policy = policy

    def batch_control(self, states: np.ndarray) -> np.ndarray:
        """Clipped controls for an ``(N, state_dim)`` batch: one policy pass
        picks every row's expert, then each expert runs on its rows."""

        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        indices = self.switching_profile(states)
        return self.system.clip_control_batch(selected_expert_controls(self.experts, indices, states))

    def switching_profile(self, states: np.ndarray) -> np.ndarray:
        """Expert index chosen for each row of ``states`` (one policy pass)."""

        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions, _ = self.policy.act_batch(states, deterministic=True)
        return actions.astype(int)


class SwitchingTrainer:
    """Trains the switching policy with PPO over a categorical action space."""

    def __init__(
        self,
        system: ControlSystem,
        experts: Sequence[Controller],
        config: Optional[MixingConfig] = None,
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
        self.env = SwitchingEnv(
            system, self.experts, reward=reward, rng=self._rng, num_envs=self.config.num_envs
        )
        self._trainer: Optional[PPOTrainer] = None

    def train(self, epochs: Optional[int] = None) -> SwitchingController:
        policy = CategoricalMLPPolicy(
            self.system.state_dim,
            len(self.experts),
            hidden_sizes=self.config.hidden_sizes,
            seed=self.config.seed,
        )
        trainer = PPOTrainer(self.env, policy=policy, config=self.config.ppo_config(), rng=self._rng)
        trainer.train(epochs=epochs)
        self._trainer = trainer
        return SwitchingController(self.system, self.experts, policy)

    @property
    def logger(self) -> Optional[TrainingLogger]:
        return getattr(self._trainer, "logger", None)
