"""The control MDP of Section III-A around a :class:`repro.systems.ControlSystem`.

:class:`ControlEnv` runs ``num_envs`` lockstep copies of one MDP -- the
observation is the (possibly perturbed) plant state, an episode ends on a
safety violation or after ``T`` steps, and the reward combines a large
negative punishment for leaving the safe region with a
monotonically-decreasing function of the applied control energy.  Every
step is one batched control mapping, clip, plant update and safety check
(``step_batch``/``is_safe_batch``).

Episodes end; the caller restarts them: ``step`` reports ``dones`` and
never resets, and ``reset(rows=...)`` restarts the given rows.  PPO drives
the environment at its configured width, DDPG at width 1.  Subclasses
change only :meth:`ControlEnv.actions_to_controls`: the DDPG experts act
on the raw control input (the default), the adaptive-mixing environment
(:mod:`repro.core.mixing`) on the expert weight vector and the switching
baseline (:mod:`repro.baselines.switching`) on the expert index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.rl.spaces import BoxSpace
from repro.systems.base import ControlSystem
from repro.systems.simulation import PerturbationFn
from repro.utils.seeding import RngLike, get_rng


@dataclass
class RewardFunction:
    """The paper's reward: punishment on violation, energy cost otherwise.

    ``r(s, a) = R_pun`` when the next state is unsafe, otherwise
    ``h(||u||_1)`` with ``h`` monotonically decreasing.  We use
    ``h(x) = survival_bonus - energy_weight * x - state_weight * ||s||_2^2``;
    the state term is optional (zero by default so the default matches the
    paper exactly) but useful when training experts from scratch, which the
    paper obtains with off-the-shelf DDPG.
    """

    punishment: float = -100.0
    energy_weight: float = 0.05
    survival_bonus: float = 1.0
    state_weight: float = 0.0

    def batch(
        self, states: np.ndarray, controls: np.ndarray, next_states: np.ndarray, safe: np.ndarray
    ) -> np.ndarray:
        """The ``(N,)`` rewards of ``N`` transitions given as ``(N, ...)`` rows."""

        energy = np.sum(np.abs(np.atleast_2d(controls)), axis=1)
        if self.state_weight:
            state_cost = np.sum(np.atleast_2d(next_states) ** 2, axis=1)
        else:
            state_cost = np.zeros_like(energy)
        rewards = self.survival_bonus - self.energy_weight * energy - self.state_weight * state_cost
        return np.where(np.asarray(safe, dtype=bool), rewards, float(self.punishment))


class ControlEnv:
    """``num_envs`` lockstep copies of the control MDP on one plant.

    The plant object is stateless (the environment owns the ``(N,
    state_dim)`` states), so one system instance serves every row.  API:
    ``reset(rows=None) -> (rows, state_dim)`` observations and
    ``step(actions (N, action_dim)) -> (observations, rewards, dones,
    info)`` with ``(N,)`` reward/done vectors; ``info`` carries the batched
    ``controls``, per-row ``safe`` flags, step counts and ``next_states``.

    Random draws happen in the order disturbance, observation perturbation
    (in ``step``), then fresh initial states and their perturbation (in a
    following ``reset``).  With ``N > 1`` the stream is consumed step-major
    (like :func:`repro.systems.simulation.rollout_batch`).
    """

    def __init__(
        self,
        system: ControlSystem,
        reward: Optional[RewardFunction] = None,
        horizon: Optional[int] = None,
        perturbation: Optional[PerturbationFn] = None,
        rng: RngLike = None,
        num_envs: int = 1,
    ):
        if num_envs <= 0:
            raise ValueError("num_envs must be positive")
        self.system = system
        self.reward = reward if reward is not None else RewardFunction()
        self.horizon = int(horizon) if horizon is not None else system.horizon
        self.perturbation = perturbation
        self.num_envs = int(num_envs)
        self._rng = get_rng(rng)
        self._states: Optional[np.ndarray] = None
        self._steps = np.zeros(self.num_envs, dtype=int)
        self.action_space = self.build_action_space()

    # -- hooks ---------------------------------------------------------------
    def build_action_space(self) -> BoxSpace:
        """Default: the agent outputs the raw control input."""

        return BoxSpace(self.system.control_bound.low, self.system.control_bound.high)

    def actions_to_controls(self, actions: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Map ``(N, action_dim)`` agent actions to raw ``(N, control_dim)``
        plant controls (clipped afterwards); default: the actions are the controls."""

        return actions

    # -- gym API ----------------------------------------------------------------
    def reset(self, rows=None, initial_states: Optional[np.ndarray] = None) -> np.ndarray:
        """Restart the episodes of ``rows`` and return their observations.

        ``rows`` is a boolean mask or an index array over the ``num_envs``
        rows (default: all of them; the first reset must restart all).
        Fresh states are drawn from ``X0`` unless ``initial_states`` gives
        one per restarted row.
        """

        index = np.arange(self.num_envs) if rows is None else np.arange(self.num_envs)[rows]
        if initial_states is None:
            initial_states = self.system.initial_set.sample(self._rng, count=index.size)
        states = np.array(np.atleast_2d(initial_states), dtype=np.float64)
        if states.shape != (index.size, self.system.state_dim):
            raise ValueError(
                f"initial_states have shape {states.shape}, "
                f"expected ({index.size}, {self.system.state_dim})"
            )
        if self._states is None:
            if index.size != self.num_envs:
                raise RuntimeError("the first reset() must restart every row")
            self._states = np.empty_like(states)
        self._states[index] = states
        self._steps[index] = 0
        return self._observe(states)

    def step(self, actions: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
        if self._states is None:
            raise RuntimeError("step() called before reset()")
        states = self._states
        actions = np.asarray(actions, dtype=np.float64)
        if actions.ndim <= 1:
            # One scalar action per row (e.g. a categorical policy's ``(N,)``
            # vector) -- a column, never a single ``(1, N)`` row.
            actions = actions.reshape(self.num_envs, -1)
        if len(actions) != self.num_envs:
            raise ValueError(
                f"actions have shape {actions.shape}, expected ({self.num_envs}, action_dim)"
            )
        controls = self.system.clip_control_batch(self.actions_to_controls(actions, states))
        next_states = self.system.step_batch(states, controls, rng=self._rng)
        safe = self.system.is_safe_batch(next_states)
        rewards = self.reward.batch(states, controls, next_states, safe)
        self._steps += 1
        dones = (~safe) | (self._steps >= self.horizon)
        self._states = next_states.copy()
        info = {
            "safe": safe,
            "controls": controls,
            "steps": self._steps.copy(),
            "next_states": next_states,
        }
        return self._observe(next_states), rewards, dones, info

    def _observe(self, states: np.ndarray) -> np.ndarray:
        if self.perturbation is None:
            return states.copy()
        return self.perturbation.perturb_batch(states, self._rng)

    @property
    def state_dim(self) -> int:
        return self.system.state_dim

    @property
    def action_dim(self) -> int:
        return self.action_space.dimension
