"""Proximal Policy Optimization.

Implements the update of Algorithm 1 line 10: maximise the importance-ratio
surrogate with either the adaptive KL penalty (the form written in the paper)
or the clipped objective (the more common PPO variant, also supported so that
the ablation benchmarks can compare the two).  Works with both the Gaussian
policy (adaptive mixing, continuous weights) and the categorical policy (the
switching baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.nn.optim import Adam
from repro.rl.buffers import RolloutBuffer
from repro.rl.env import ControlEnv
from repro.rl.gae import compute_gae_batch
from repro.rl.policies import CategoricalMLPPolicy, GaussianMLPPolicy, ValueNetwork
from repro.utils.dtypes import resolve_training_dtype
from repro.utils.logging import TrainingLogger
from repro.utils.seeding import RngLike, get_rng


@dataclass
class PPOConfig:
    """Hyper-parameters of the PPO trainer."""

    epochs: int = 50
    steps_per_epoch: int = 2048
    #: Parallel environments advanced in lockstep while collecting rollouts.
    #: ``1`` is the scalar path (bit-identical to the historical per-step
    #: loop for the same seed); larger values batch the policy/value forward
    #: passes and the plant updates across environments.
    num_envs: int = 1
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_ratio: float = 0.2
    kl_coefficient: float = 1.0
    target_kl: float = 0.02
    objective: str = "clip"  # "clip" or "kl" (the paper's Algorithm 1 form)
    policy_lr: float = 3e-4
    value_lr: float = 1e-3
    update_iterations: int = 10
    minibatch_size: int = 256
    entropy_coefficient: float = 0.0
    max_grad_norm: float = 5.0
    hidden_sizes: tuple = (64, 64)
    #: Precision of the rollout buffer and GAE ("float64" or "float32").
    #: float32 is a training-only speed/memory mode; verification always
    #: runs in float64 (see :mod:`repro.utils.dtypes`).
    dtype: str = "float64"
    seed: Optional[int] = None
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.objective not in ("clip", "kl"):
            raise ValueError("objective must be 'clip' or 'kl'")
        if self.epochs <= 0 or self.steps_per_epoch <= 0:
            raise ValueError("epochs and steps_per_epoch must be positive")
        if self.num_envs <= 0:
            raise ValueError("num_envs must be positive")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        resolve_training_dtype(self.dtype)


PolicyType = Union[GaussianMLPPolicy, CategoricalMLPPolicy]


class _SingleEnvVecAdapter:
    """Batch-of-one vectorised view of a plain gym-like environment.

    Lets the vectorised collection loop drive environments that expose only
    the scalar ``reset``/``step`` API (e.g. the toy test environments).
    Every call forwards to the wrapped environment unchanged, so the random
    stream consumption is identical to the historical scalar loop.
    """

    num_envs = 1

    def __init__(self, env):
        self.env = env

    def reset(self) -> np.ndarray:
        return np.atleast_2d(np.asarray(self.env.reset(), dtype=np.float64))

    def step(self, actions: np.ndarray):
        action = np.asarray(actions)[0]
        observation, reward, done, info = self.env.step(action)
        if done:
            observation = self.env.reset()
        return (
            np.atleast_2d(np.asarray(observation, dtype=np.float64)),
            np.array([float(reward)]),
            np.array([bool(done)]),
            info,
        )


class PPOTrainer:
    """On-policy trainer coupling a policy, a value network and an environment."""

    def __init__(
        self,
        env: ControlEnv,
        policy: Optional[PolicyType] = None,
        value_network: Optional[ValueNetwork] = None,
        config: Optional[PPOConfig] = None,
        rng: RngLike = None,
    ):
        self.env = env
        self.config = config if config is not None else PPOConfig()
        self._rng = get_rng(rng if rng is not None else self.config.seed)
        if policy is None:
            policy = GaussianMLPPolicy(
                env.state_dim,
                env.action_dim,
                env.action_space.low,
                env.action_space.high,
                hidden_sizes=self.config.hidden_sizes,
                seed=self.config.seed,
            )
        self.policy = policy
        self.value_network = value_network if value_network is not None else ValueNetwork(
            env.state_dim, hidden_sizes=self.config.hidden_sizes, seed=self.config.seed
        )
        self.policy_optimizer = Adam(self.policy.parameters(), lr=self.config.policy_lr)
        self.value_optimizer = Adam(self.value_network.parameters(), lr=self.config.value_lr)
        self.logger = TrainingLogger("ppo", verbose=self.config.verbose)
        self._kl_coefficient = self.config.kl_coefficient
        self._vec_env = None

    # ------------------------------------------------------------------
    # Data collection
    # ------------------------------------------------------------------
    def _vectorized_env(self):
        """The ``num_envs``-wide lockstep view of the training environment.

        Environments exposing :meth:`~repro.rl.env.ControlEnv.vectorized`
        (every :class:`ControlEnv`) are vectorised natively; plain gym-like
        environments fall back to a batch-of-one adapter, which supports
        only ``num_envs = 1``.
        """

        num_envs = self.config.num_envs
        if self._vec_env is not None and self._vec_env.num_envs == num_envs:
            return self._vec_env
        vectorize = getattr(self.env, "vectorized", None)
        if vectorize is not None:
            self._vec_env = vectorize(num_envs)
        elif num_envs == 1:
            self._vec_env = _SingleEnvVecAdapter(self.env)
        else:
            raise ValueError(
                f"num_envs={num_envs} requires an environment with a vectorized() "
                f"method; {type(self.env).__name__} has none"
            )
        return self._vec_env

    def collect_rollouts(self, steps: int) -> RolloutBuffer:
        """Run the current policy for at least ``steps`` transitions.

        The policy acts on all ``num_envs`` environments in lockstep: one
        batched policy sample, one batched value evaluation and one batched
        environment step per iteration, with per-environment episode resets
        handled by the vectorised environment.  ``ceil(steps / num_envs)``
        lockstep iterations are executed, so the buffer holds
        ``num_envs * ceil(steps / num_envs)`` transitions (exactly
        ``steps`` when ``num_envs`` divides it; ``num_envs = 1`` reproduces
        the historical scalar loop bit for bit).
        """

        vec_env = self._vectorized_env()
        num_envs = vec_env.num_envs
        buffer = RolloutBuffer(num_envs=num_envs, dtype=self.config.dtype)
        observations = vec_env.reset()
        episode_returns = []
        running_returns = np.zeros(num_envs)
        discrete = isinstance(self.policy, CategoricalMLPPolicy)

        for _ in range(-(-int(steps) // num_envs)):
            actions, log_probs = self.policy.act_batch(observations, rng=self._rng)
            values = self.value_network.values(observations)
            stored_actions = actions[:, None].astype(np.float64) if discrete else actions
            next_observations, rewards, dones, _info = vec_env.step(actions)
            buffer.add_batch(observations, stored_actions, rewards, dones, values, log_probs)
            running_returns += rewards
            if np.any(dones):
                episode_returns.extend(float(value) for value in running_returns[dones])
                running_returns[dones] = 0.0
            observations = next_observations
        buffer.last_values = self.value_network.values(observations)
        if episode_returns:
            self._last_mean_return = float(np.mean(episode_returns))
        else:
            self._last_mean_return = float(np.mean(running_returns))
        return buffer

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _policy_gradients(self, batch: dict) -> Tuple[float, List[np.ndarray]]:
        """The surrogate loss of Algorithm 1 line 10 and its gradient for each
        policy parameter, in closed form.

        ``r = exp(log pi(a|s) - log pi_old(a|s))`` per row.  The clip
        objective is ``-mean(min(r A, clip(r) A))`` with the min written
        ``b + clip(a - b, -1e9, 0)``; the KL objective is
        ``-(mean(r A) - beta * mean(log r ^ 2) / 2)``.  The gradient applies
        the chain rule through those ops one factor at a time; the grouping
        of each product and sum is part of the contract, because trained
        weights are pinned bit for bit (``tests/test_gradient_digests.py``).
        """

        advantages = np.asarray(batch["advantages"], dtype=np.float64)
        saved: list = []
        log_ratio = self.policy.log_prob(batch["states"], batch["actions"], saved) - np.asarray(
            batch["log_probs"], dtype=np.float64
        )
        ratio = np.exp(log_ratio)
        # d(-mean)/d(row): the loss's gradient for each row's term.
        row_share = np.full(ratio.shape, -1.0 / ratio.size)

        if self.config.objective == "clip":
            low, high = 1.0 - self.config.clip_ratio, 1.0 + self.config.clip_ratio
            clipped = np.clip(ratio, low, high)
            surrogate_b = clipped * advantages
            # elementwise min(a, b) = b + (a - b) clipped to (-inf, 0]
            difference = ratio * advantages - surrogate_b
            loss = -(surrogate_b + np.clip(difference, -1e9, 0.0)).mean()
            grad_a = row_share * _inside(difference, -1e9, 0.0)
            grad_b = row_share - grad_a
            grad_ratio = grad_a * advantages + grad_b * advantages * _inside(ratio, low, high)
            grad_log_ratio = grad_ratio * ratio
        else:
            beta = self._kl_coefficient
            surrogate = (ratio * advantages).mean()
            # KL[pi_old || pi_theta] penalty of Algorithm 1 line 10, estimated
            # from the sampled actions via the squared log-ratio, which agrees
            # with KL to second order around the old policy.
            kl = (log_ratio ** 2).mean() * 0.5
            loss = -(surrogate - beta * kl)
            # -mean(r A) through exp, plus beta * mean(log r ^ 2) / 2 through the square.
            grad_log_ratio = row_share * advantages * ratio + beta * 0.5 / ratio.size * 2 * log_ratio
        grads = self.policy.log_prob_vjp(saved, grad_log_ratio)

        if self.config.entropy_coefficient and isinstance(self.policy, GaussianMLPPolicy):
            loss = loss - self.config.entropy_coefficient * self.policy.entropy()
            # d(-c * entropy)/d(log_std) = -c; log_std is the last parameter.
            grads[-1] = grads[-1] - self.config.entropy_coefficient
        return float(loss), grads

    def _value_step(self, batch: dict) -> float:
        """One critic update on the MSE to the returns; returns the loss."""

        loss, _, grads = self.value_network.net.mse_gradients(
            batch["states"], batch["returns"].reshape(-1, 1)
        )
        self.value_optimizer.apply_gradients(grads, self.config.max_grad_norm)
        return float(loss)

    def update(self, buffer: RolloutBuffer) -> dict:
        """Run the PPO policy and value updates on one rollout buffer."""

        time_major = buffer.time_major()
        advantages, returns = compute_gae_batch(
            time_major["rewards"],
            time_major["values"],
            time_major["dones"],
            gamma=self.config.gamma,
            lam=self.config.gae_lambda,
            last_values=buffer.bootstrap_values(),
            dtype=buffer.dtype,
        )
        # Flatten (T, N) time-major, matching ``RolloutBuffer.arrays()``.
        buffer.set_advantages(advantages.reshape(-1), returns.reshape(-1))

        policy_losses = []
        value_losses = []
        approx_kls = []
        for _ in range(self.config.update_iterations):
            stop = False
            for batch in buffer.minibatches(self.config.minibatch_size, rng=self._rng):
                policy_loss, grads = self._policy_gradients(batch)
                self.policy_optimizer.apply_gradients(grads, self.config.max_grad_norm)
                policy_losses.append(policy_loss)

                value_losses.append(self._value_step(batch))

                approx_kl = self._approximate_kl(batch)
                approx_kls.append(approx_kl)
                if approx_kl > 1.5 * self.config.target_kl:
                    stop = True
                    break
            if stop:
                break

        mean_kl = float(np.mean(approx_kls)) if approx_kls else 0.0
        # Adaptive KL coefficient (used by the "kl" objective).
        if mean_kl > 1.5 * self.config.target_kl:
            self._kl_coefficient *= 2.0
        elif mean_kl < self.config.target_kl / 1.5:
            self._kl_coefficient *= 0.5
        self._kl_coefficient = float(np.clip(self._kl_coefficient, 1e-3, 1e3))

        return {
            "policy_loss": float(np.mean(policy_losses)) if policy_losses else 0.0,
            "value_loss": float(np.mean(value_losses)) if value_losses else 0.0,
            "approx_kl": mean_kl,
            "kl_coefficient": self._kl_coefficient,
        }

    def _approximate_kl(self, batch: dict) -> float:
        new_log_probs = self.policy.log_prob(batch["states"], batch["actions"])
        return float(np.mean(batch["log_probs"] - new_log_probs))

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def train(self, epochs: Optional[int] = None) -> TrainingLogger:
        """Full training loop: collect, update, log; returns the logger."""

        epochs = epochs if epochs is not None else self.config.epochs
        for _ in range(epochs):
            buffer = self.collect_rollouts(self.config.steps_per_epoch)
            stats = self.update(buffer)
            self.logger.log(mean_return=self._last_mean_return, **stats)
        return self.logger


def _inside(values: np.ndarray, low: float, high: float) -> np.ndarray:
    """1.0 where ``np.clip(values, low, high)`` passes the gradient, else 0.0."""

    return ((values >= low) & (values <= high)).astype(np.float64)
