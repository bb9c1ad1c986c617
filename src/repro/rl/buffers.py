"""Experience storage: on-policy rollout buffer (PPO) and replay memory (DDPG)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.utils.seeding import RngLike, get_rng


@dataclass
class RolloutBuffer:
    """Stores one batch of on-policy transitions for PPO.

    Each lockstep step of the ``num_envs`` environments appends one
    ``(N, ...)`` slice (:meth:`add_batch`).  Episode boundaries are recorded
    through the per-environment ``done`` flags so GAE can reset its
    accumulator column by column.  After advantages are attached,
    :meth:`minibatches` yields shuffled index batches over the flattened
    ``T * N`` transitions for the policy/value updates.

    The flattened ordering is time-major: all environments' step ``t``
    before any step ``t + 1``.
    """

    states: List[np.ndarray] = field(default_factory=list)
    actions: List[np.ndarray] = field(default_factory=list)
    rewards: List[np.ndarray] = field(default_factory=list)
    dones: List[np.ndarray] = field(default_factory=list)
    values: List[np.ndarray] = field(default_factory=list)
    log_probs: List[np.ndarray] = field(default_factory=list)
    #: Number of parallel environments feeding the buffer.
    num_envs: int = 1
    #: Per-environment bootstrap values of the observations after the final
    #: stored step, shape ``(num_envs,)``.
    last_values: Optional[np.ndarray] = None
    advantages: Optional[np.ndarray] = None
    returns: Optional[np.ndarray] = None

    def add_batch(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        dones: np.ndarray,
        values: np.ndarray,
        log_probs: np.ndarray,
    ) -> None:
        """Append one lockstep transition of all ``num_envs`` environments.

        Expects ``states (N, state_dim)``, ``actions (N, action_dim)`` and
        ``(N,)`` vectors for the scalars, where ``N == num_envs``.
        """

        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        if len(states) != self.num_envs or len(actions) != self.num_envs:
            raise ValueError(f"add_batch() expects {self.num_envs} rows, got {len(states)}")
        self.states.append(states.copy())
        self.actions.append(actions.copy())
        self.rewards.append(np.asarray(rewards, dtype=np.float64).reshape(self.num_envs).copy())
        self.dones.append(np.asarray(dones, dtype=bool).reshape(self.num_envs).copy())
        self.values.append(np.asarray(values, dtype=np.float64).reshape(self.num_envs).copy())
        self.log_probs.append(np.asarray(log_probs, dtype=np.float64).reshape(self.num_envs).copy())

    def __len__(self) -> int:
        """Total stored transitions, ``T * num_envs``."""

        return len(self.rewards) * self.num_envs

    def time_major(self) -> Dict[str, np.ndarray]:
        """Stacked ``(T, N, ...)`` / ``(T, N)`` views for the batched GAE."""

        shape = (len(self.rewards), self.num_envs)
        return {
            "states": np.asarray(self.states, dtype=np.float64).reshape(*shape, -1),
            "actions": np.asarray(self.actions, dtype=np.float64).reshape(*shape, -1),
            "rewards": np.asarray(self.rewards, dtype=np.float64).reshape(shape),
            "dones": np.asarray(self.dones, dtype=bool).reshape(shape),
            "values": np.asarray(self.values, dtype=np.float64).reshape(shape),
            "log_probs": np.asarray(self.log_probs, dtype=np.float64).reshape(shape),
        }

    def bootstrap_values(self) -> np.ndarray:
        """The per-environment GAE bootstrap, shape ``(num_envs,)``."""

        return np.asarray(self.last_values, dtype=np.float64).reshape(self.num_envs)

    def arrays(self) -> Dict[str, np.ndarray]:
        """Flattened ``(T * N, ...)`` arrays in time-major order."""

        count = len(self)
        return {
            key: value.reshape(count, -1) if value.ndim == 3 else value.reshape(count)
            for key, value in self.time_major().items()
        }

    def set_advantages(self, advantages: np.ndarray, returns: np.ndarray, normalize: bool = True) -> None:
        advantages = np.asarray(advantages, dtype=np.float64)
        if normalize and advantages.size > 1:
            std = advantages.std()
            advantages = (advantages - advantages.mean()) / (std + 1e-8)
        self.advantages = advantages
        self.returns = np.asarray(returns, dtype=np.float64)

    def minibatches(self, batch_size: int, rng: RngLike = None) -> Iterator[Dict[str, np.ndarray]]:
        """Yield shuffled minibatches of the stored transitions."""

        if self.advantages is None or self.returns is None:
            raise RuntimeError("set_advantages() must be called before minibatches()")
        data = self.arrays()
        count = len(self)
        order = get_rng(rng).permutation(count)
        for start in range(0, count, batch_size):
            index = order[start : start + batch_size]
            yield {
                "states": data["states"][index],
                "actions": data["actions"][index],
                "log_probs": data["log_probs"][index],
                "advantages": self.advantages[index],
                "returns": self.returns[index],
            }

    def clear(self) -> None:
        self.states.clear()
        self.actions.clear()
        self.rewards.clear()
        self.dones.clear()
        self.values.clear()
        self.log_probs.clear()
        self.advantages = None
        self.returns = None
        self.last_values = None


class ReplayBuffer:
    """Fixed-capacity uniform replay memory ``D`` used by DDPG (Algorithm 1, line 1)."""

    def __init__(self, capacity: int, state_dim: int, action_dim: int, rng: RngLike = None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.state_dim = int(state_dim)
        self.action_dim = int(action_dim)
        self._rng = get_rng(rng)
        self._states = np.zeros((capacity, state_dim))
        self._actions = np.zeros((capacity, action_dim))
        self._rewards = np.zeros(capacity)
        self._next_states = np.zeros((capacity, state_dim))
        self._dones = np.zeros(capacity)
        self._cursor = 0
        self._size = 0

    def add(self, state, action, reward, next_state, done) -> None:
        index = self._cursor
        self._states[index] = np.asarray(state, dtype=np.float64)
        self._actions[index] = np.atleast_1d(np.asarray(action, dtype=np.float64))
        self._rewards[index] = float(reward)
        self._next_states[index] = np.asarray(next_state, dtype=np.float64)
        self._dones[index] = 1.0 if done else 0.0
        self._cursor = (self._cursor + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def __len__(self) -> int:
        return self._size

    def sample(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self._size == 0:
            raise RuntimeError("cannot sample from an empty replay buffer")
        batch_size = min(batch_size, self._size)
        index = self._rng.integers(0, self._size, size=batch_size)
        return (
            self._states[index].copy(),
            self._actions[index].copy(),
            self._rewards[index].copy(),
            self._next_states[index].copy(),
            self._dones[index].copy(),
        )
