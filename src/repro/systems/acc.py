"""Adaptive cruise control plant (scenario catalog addition, not in the paper).

Three-state car-following model in error coordinates, Euler-discretised at
``tau = 0.1``::

    h(t+1) = h(t) + tau * v(t)                      # headway (gap) error
    v(t+1) = v(t) - tau * a(t) + w(t)               # relative velocity
    a(t+1) = a(t) + (tau / T_lag) * (u(t) - a(t))   # ego acceleration (lag)

``h`` is the deviation of the inter-vehicle gap from the desired headway,
``v = v_lead - v_ego`` the relative velocity, and ``a`` the ego
acceleration, which tracks the commanded acceleration ``u`` through a
first-order actuator lag ``T_lag``.  The lead vehicle's unmodelled
acceleration enters as the bounded disturbance ``w`` on the relative
velocity.  All dynamics are affine, so the natural interval extension used
by the verifier is exact and the LQR expert is built on the true model.

The safe region bounds the gap error to ``[-5, 5]`` m (leaving it on the
negative side models closing in on the lead vehicle), the relative velocity
to ``[-3, 3]`` m/s and the acceleration to ``[-3, 3]`` m/s^2; commanded
accelerations are limited to ``[-3, 3]`` m/s^2.
"""

from __future__ import annotations

import numpy as np

from repro.systems.base import ControlSystem
from repro.systems.disturbance import UniformDisturbance
from repro.systems.sets import Box


class AdaptiveCruiseControl(ControlSystem):
    """Gap-error car-following model with first-order acceleration lag."""

    name = "acc"

    def __init__(
        self,
        dt: float = 0.1,
        horizon: int = 120,
        control_limit: float = 3.0,
        gap_limit: float = 5.0,
        velocity_limit: float = 3.0,
        acceleration_limit: float = 3.0,
        initial_gap: float = 1.5,
        initial_velocity: float = 0.75,
        initial_acceleration: float = 0.5,
        lag: float = 0.5,
        disturbance_bound: float = 0.02,
    ):
        if lag <= 0:
            raise ValueError("the actuator lag must be positive")
        self.lag = float(lag)
        super().__init__(
            state_dim=3,
            control_dim=1,
            safe_region=Box(
                [-gap_limit, -velocity_limit, -acceleration_limit],
                [gap_limit, velocity_limit, acceleration_limit],
            ),
            initial_set=Box(
                [-initial_gap, -initial_velocity, -initial_acceleration],
                [initial_gap, initial_velocity, initial_acceleration],
            ),
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
        gap = states[:, 0]
        velocity = states[:, 1]
        acceleration = states[:, 2]
        u = controls[:, 0]
        w = disturbances[:, 0] if disturbances.shape[-1] else np.zeros(len(states))
        next_gap = gap + self.dt * velocity
        next_velocity = velocity - self.dt * acceleration + w
        next_acceleration = acceleration + (self.dt / self.lag) * (u - acceleration)
        return np.stack([next_gap, next_velocity, next_acceleration], axis=1)
