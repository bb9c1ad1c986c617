"""Deep Deterministic Policy Gradient.

DDPG (Lillicrap et al. 2016) trains the paper's expert neural controllers:
each test system has two experts obtained by DDPG with different
hyper-parameters (hidden sizes, learning rates, exploration noise).  Per
Remark 1, DDPG can also train the adaptive-mixing policy, which the ablation
benchmark exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nn.network import hard_update, soft_update
from repro.nn.optim import Adam
from repro.rl.buffers import ReplayBuffer
from repro.rl.env import ControlEnv
from repro.rl.policies import DeterministicMLPPolicy, QNetwork
from repro.utils.logging import TrainingLogger
from repro.utils.seeding import RngLike, get_rng


@dataclass
class DDPGConfig:
    """Hyper-parameters of the DDPG trainer."""

    episodes: int = 100
    max_steps: Optional[int] = None
    gamma: float = 0.99
    tau: float = 0.01
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    batch_size: int = 128
    buffer_capacity: int = 100_000
    exploration_noise: float = 0.1
    exploration_decay: float = 0.995
    warmup_steps: int = 500
    updates_per_step: int = 1
    hidden_sizes: tuple = (64, 64)
    max_grad_norm: float = 5.0
    seed: Optional[int] = None
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.episodes <= 0:
            raise ValueError("episodes must be positive")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")


class DDPGTrainer:
    """Off-policy actor-critic trainer with target networks and replay memory."""

    def __init__(
        self,
        env: ControlEnv,
        actor: Optional[DeterministicMLPPolicy] = None,
        critic: Optional[QNetwork] = None,
        config: Optional[DDPGConfig] = None,
        rng: RngLike = None,
    ):
        self.env = env
        self.config = config if config is not None else DDPGConfig()
        self._rng = get_rng(rng if rng is not None else self.config.seed)

        if actor is None:
            actor = DeterministicMLPPolicy(
                env.state_dim,
                env.action_dim,
                env.action_space.low,
                env.action_space.high,
                hidden_sizes=self.config.hidden_sizes,
                seed=self.config.seed,
            )
        self.actor = actor
        self.critic = critic if critic is not None else QNetwork(
            env.state_dim, env.action_dim, hidden_sizes=self.config.hidden_sizes, seed=self.config.seed
        )

        self.target_actor = DeterministicMLPPolicy(
            env.state_dim,
            env.action_dim,
            self.actor.action_low,
            self.actor.action_high,
            hidden_sizes=self.actor.net.hidden_sizes,
            activation=self.actor.net.activation_name,
        )
        hard_update(self.target_actor, self.actor)
        self.target_critic = QNetwork(
            env.state_dim,
            env.action_dim,
            hidden_sizes=self.critic.net.hidden_sizes,
            activation=self.critic.net.activation_name,
        )
        hard_update(self.target_critic, self.critic)

        self.actor_optimizer = Adam(self.actor.parameters(), lr=self.config.actor_lr)
        self.critic_optimizer = Adam(self.critic.parameters(), lr=self.config.critic_lr)
        self.buffer = ReplayBuffer(
            self.config.buffer_capacity, env.state_dim, env.action_dim, rng=self._rng
        )
        self.logger = TrainingLogger("ddpg", verbose=self.config.verbose)
        self._total_steps = 0
        self._noise_scale = self.config.exploration_noise

    # ------------------------------------------------------------------
    def select_action(self, state: np.ndarray, explore: bool = True) -> np.ndarray:
        noise = self._noise_scale if explore else 0.0
        if explore and self._total_steps < self.config.warmup_steps:
            return self.env.action_space.sample(self._rng)
        return self.actor.act_batch(state, noise_scale=noise, rng=self._rng)[0]

    def update(self) -> dict:
        """One gradient step on the critic and the actor from replayed data."""

        if len(self.buffer) < self.config.batch_size:
            return {"critic_loss": 0.0, "actor_loss": 0.0}
        states, actions, rewards, next_states, dones = self.buffer.sample(self.config.batch_size)

        # Critic target: r + gamma * (1 - done) * Q_target(s', mu_target(s'))
        next_q = self.target_critic.q_values(next_states, self.target_actor.actions(next_states))
        targets = rewards + self.config.gamma * (1.0 - dones) * next_q

        critic_loss, _, grads = self.critic.net.mse_gradients(
            self.critic.joined(states, actions), targets.reshape(-1, 1), out=self.critic_optimizer.grads
        )
        self.critic_optimizer.apply_gradients(grads, self.config.max_grad_norm)

        # Actor: maximise Q(s, mu(s)).  The gradient of -mean(Q) reaches the
        # actor through the critic's input gradient at the action columns.
        actor_saved: list = []
        critic_saved: list = []
        joined = self.critic.joined(states, self.actor.actions(states, actor_saved))
        q = self.critic.net._run(joined, critic_saved)
        actor_loss = -q.mean()
        input_grad = self.critic.net._input_vjp(critic_saved, np.full(q.shape, -1.0 / q.size))
        grads = self.actor.actions_vjp(
            actor_saved, input_grad[:, self.critic.state_dim :], self.actor_optimizer.grads
        )
        self.actor_optimizer.apply_gradients(grads, self.config.max_grad_norm)

        soft_update(self.target_actor, self.actor, self.config.tau)
        soft_update(self.target_critic, self.critic, self.config.tau)
        return {"critic_loss": float(critic_loss), "actor_loss": float(actor_loss)}

    # ------------------------------------------------------------------
    def train(self, episodes: Optional[int] = None) -> TrainingLogger:
        """Standard DDPG training loop over full episodes of the width-1
        environment: reset at every episode start, one transition per step."""

        episodes = episodes if episodes is not None else self.config.episodes
        max_steps = self.config.max_steps if self.config.max_steps is not None else self.env.horizon
        for _ in range(episodes):
            observation = self.env.reset()[0]
            episode_return = 0.0
            losses = {"critic_loss": 0.0, "actor_loss": 0.0}
            for _step in range(max_steps):
                action = self.select_action(observation, explore=True)
                next_observations, rewards, dones, _info = self.env.step(action[None, :])
                next_observation, reward, done = next_observations[0], float(rewards[0]), bool(dones[0])
                self.buffer.add(observation, action, reward, next_observation, done)
                observation = next_observation
                episode_return += reward
                self._total_steps += 1
                for _ in range(self.config.updates_per_step):
                    losses = self.update()
                if done:
                    break
            self._noise_scale = max(self._noise_scale * self.config.exploration_decay, 0.01)
            self.logger.log(episode_return=episode_return, noise=self._noise_scale, **losses)
        return self.logger
