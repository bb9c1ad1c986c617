"""Return and advantage estimation for the on-policy (PPO) updates.

Two kernels compute Generalised Advantage Estimation:

* :func:`compute_gae_batch` -- the kernel PPO runs, over ``(T, N)``
  time-major arrays from ``N`` lockstep environments.  Each column runs the
  same backward recurrence as the scalar kernel (same operation order, so a
  single column is bit-identical to :func:`compute_gae` on that column),
  with per-environment ``done`` masks resetting the accumulator and
  per-environment bootstrap values at the truncated final step;
* :func:`compute_gae` -- the reference recurrence over one flat ``(T,)``
  transition sequence, which the GAE property tests compare the batched
  kernel against column by column.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    lam: float,
    last_value: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generalised Advantage Estimation (Schulman et al. 2016).

    Returns ``(advantages, returns)`` where ``returns = advantages + values``
    serve as the value-function regression targets.  ``dones`` marks true
    episode terminations (safety violation or horizon), at which the
    bootstrap value is zeroed.
    """

    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=bool)
    if not (len(rewards) == len(values) == len(dones)):
        raise ValueError("rewards, values and dones must have equal length")
    advantages = np.zeros_like(rewards)
    gae = 0.0
    for index in reversed(range(len(rewards))):
        if index == len(rewards) - 1:
            next_value = 0.0 if dones[index] else float(last_value)
        else:
            next_value = 0.0 if dones[index] else values[index + 1]
        non_terminal = 0.0 if dones[index] else 1.0
        delta = rewards[index] + gamma * next_value - values[index]
        gae = delta + gamma * lam * non_terminal * gae
        advantages[index] = gae
    returns = advantages + values
    return advantages, returns


def compute_gae_batch(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    lam: float,
    last_values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """GAE over ``(T, N)`` time-major batches from ``N`` parallel envs.

    ``rewards``, ``values`` and ``dones`` hold step ``t`` of environment
    ``n`` at ``[t, n]``; ``last_values`` is the ``(N,)`` bootstrap value of
    each environment's observation after the final stored step (used only
    when that environment's last transition is truncated rather than done).
    Column ``n`` of the result equals ``compute_gae`` run on column ``n``
    alone, bit for bit -- episode boundaries never leak across columns.
    """

    rewards = np.atleast_2d(np.asarray(rewards, dtype=np.float64))
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    dones = np.atleast_2d(np.asarray(dones, dtype=bool))
    if not (rewards.shape == values.shape == dones.shape):
        raise ValueError("rewards, values and dones must have equal (T, N) shapes")
    horizon, num_envs = rewards.shape
    last_values = np.asarray(last_values, dtype=np.float64).reshape(-1)
    if last_values.shape != (num_envs,):
        raise ValueError(f"last_values must have shape ({num_envs},), got {last_values.shape}")

    advantages = np.zeros_like(rewards)
    gae = np.zeros(num_envs)
    for index in reversed(range(horizon)):
        if index == horizon - 1:
            next_value = np.where(dones[index], 0.0, last_values)
        else:
            next_value = np.where(dones[index], 0.0, values[index + 1])
        non_terminal = np.where(dones[index], 0.0, 1.0)
        delta = rewards[index] + gamma * next_value - values[index]
        gae = delta + gamma * lam * non_terminal * gae
        advantages[index] = gae
    returns = advantages + values
    return advantages, returns
