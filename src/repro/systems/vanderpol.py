"""The Van der Pol oscillator test system (Section IV, system 1).

Discrete-time dynamics with sampling period ``tau = 0.05``::

    s1(t+1) = s1(t) + tau * s2(t)
    s2(t+1) = s2(t) + tau * [(1 - s1(t)^2) * s2(t) - s1(t) + u(t)] + omega(t)

with ``X = X0 = [-2, 2]^2``, ``u in [-20, 20]``, ``omega ~ U[-0.05, 0.05]``
and an episode length of ``T = 100`` steps.
"""

from __future__ import annotations

import numpy as np

from repro.systems.base import ControlSystem
from repro.systems.disturbance import UniformDisturbance
from repro.systems.sets import Box


class VanDerPolOscillator(ControlSystem):
    """Van der Pol oscillator with control on the second state derivative."""

    name = "vanderpol"

    def __init__(
        self,
        dt: float = 0.05,
        horizon: int = 100,
        control_limit: float = 20.0,
        state_limit: float = 2.0,
        disturbance_bound: float = 0.05,
        mu: float = 1.0,
    ):
        self.mu = float(mu)
        super().__init__(
            state_dim=2,
            control_dim=1,
            safe_region=Box.symmetric(state_limit, dimension=2),
            initial_set=Box.symmetric(state_limit, dimension=2),
            control_bound=Box.symmetric(control_limit, dimension=1),
            horizon=horizon,
            disturbance=UniformDisturbance(disturbance_bound),
            dt=dt,
        )

    def dynamics_batch(
        self, states: np.ndarray, controls: np.ndarray, disturbances: np.ndarray
    ) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        controls = np.atleast_2d(np.asarray(controls, dtype=np.float64))
        disturbances = np.atleast_2d(np.asarray(disturbances, dtype=np.float64))
        s1 = states[:, 0]
        s2 = states[:, 1]
        u = controls[:, 0]
        omega = disturbances[:, 0] if disturbances.shape[-1] else np.zeros(len(states))
        next_s1 = s1 + self.dt * s2
        next_s2 = s2 + self.dt * ((1.0 - s1**2) * self.mu * s2 - s1 + u) + omega
        return np.stack([next_s1, next_s2], axis=1)
