"""DDPG-trained neural experts.

The paper obtains its experts with "DDPG with different hyper-parameters".
:func:`train_ddpg_expert` wraps the full loop: build a control environment on
the plant, run :class:`repro.rl.DDPGTrainer` with the given spec, and return
the trained actor wrapped as a :class:`repro.experts.Controller`.

Training an expert from scratch takes a few minutes in pure NumPy, so the
fast path of :func:`repro.experts.make_default_experts` uses analytic experts
instead; the DDPG path is exercised by the integration tests (with tiny
budgets) and available to the benchmarks through ``REPRO_SCALE=paper``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.experts.base import Controller
from repro.rl.ddpg import DDPGConfig, DDPGTrainer
from repro.rl.env import ControlEnv, RewardFunction
from repro.rl.policies import DeterministicMLPPolicy
from repro.systems.base import ControlSystem
from repro.utils.seeding import RngLike


@dataclass
class DDPGExpertSpec:
    """Hyper-parameters distinguishing one DDPG expert from another."""

    hidden_sizes: Tuple[int, ...] = (64, 64)
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    episodes: int = 60
    exploration_noise: float = 0.1
    gamma: float = 0.99
    state_weight: float = 1.0
    energy_weight: float = 0.02
    seed: Optional[int] = None
    name: str = "ddpg-expert"

    def to_config(self) -> DDPGConfig:
        return DDPGConfig(
            episodes=self.episodes,
            gamma=self.gamma,
            actor_lr=self.actor_lr,
            critic_lr=self.critic_lr,
            exploration_noise=self.exploration_noise,
            hidden_sizes=self.hidden_sizes,
            seed=self.seed,
        )


class DDPGExpertController(Controller):
    """A trained deterministic actor exposed through the Controller interface."""

    def __init__(self, actor: DeterministicMLPPolicy, name: str = "ddpg-expert"):
        self.actor = actor
        self.name = name

    def batch_control(self, states: np.ndarray) -> np.ndarray:
        return self.actor.act_batch(states)

    @property
    def network(self):
        """Underlying MLP (used for Lipschitz-constant reporting)."""

        return self.actor.net


def train_ddpg_expert(
    system: ControlSystem,
    spec: Optional[DDPGExpertSpec] = None,
    rng: RngLike = None,
    episodes: Optional[int] = None,
) -> DDPGExpertController:
    """Train one neural expert on ``system`` and return it as a controller.

    ``episodes`` overrides the spec's budget, which the tests use to keep
    runtime bounded.
    """

    spec = spec if spec is not None else DDPGExpertSpec()
    reward = RewardFunction(
        punishment=-100.0,
        energy_weight=spec.energy_weight,
        survival_bonus=1.0,
        state_weight=spec.state_weight,
    )
    env = ControlEnv(system, reward=reward, rng=rng if rng is not None else spec.seed)
    trainer = DDPGTrainer(env, config=spec.to_config(), rng=rng)
    trainer.train(episodes=episodes)
    return DDPGExpertController(trainer.actor, name=spec.name)
