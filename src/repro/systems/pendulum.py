"""Inverted pendulum plant (scenario catalog addition, not in the paper).

Torque-controlled rigid pendulum balanced at the upright unstable
equilibrium, Euler-discretised at ``tau = 0.05``::

    theta(t+1) = theta(t) + tau * omega(t)
    omega(t+1) = omega(t) + tau * [ (g / l) * sin(theta(t)) - b * omega(t)
                                    + u(t) / (m * l^2) ] + w(t)

with the angle measured from the upright position, so ``sin(theta)`` is the
destabilising gravity term.  The safe region bounds the angle to
``[-1.2, 1.2]`` rad and the angular velocity to ``[-3, 3]``; initial states
are sampled from ``[-0.6, 0.6]^2`` and a small uniform torque-side
disturbance ``w ~ U[-0.02, 0.02]`` acts on the velocity state, mirroring how
the Van der Pol oscillator is disturbed.

The plant is feedback-linearizable (the control enters the velocity update
affinely), which is what the default κ1 expert exploits; see
``repro.experts.factory.pendulum_experts``.
"""

from __future__ import annotations

import numpy as np

from repro.systems.base import ControlSystem
from repro.systems.disturbance import UniformDisturbance
from repro.systems.sets import Box


class InvertedPendulum(ControlSystem):
    """Torque-controlled inverted pendulum about the upright equilibrium."""

    name = "pendulum"

    def __init__(
        self,
        dt: float = 0.05,
        horizon: int = 100,
        control_limit: float = 12.0,
        angle_limit: float = 1.2,
        velocity_limit: float = 3.0,
        initial_half_width: float = 0.6,
        mass: float = 1.0,
        length: float = 1.0,
        gravity: float = 9.8,
        damping: float = 0.0,
        disturbance_bound: float = 0.02,
    ):
        self.mass = float(mass)
        self.length = float(length)
        self.gravity = float(gravity)
        self.damping = float(damping)
        super().__init__(
            state_dim=2,
            control_dim=1,
            safe_region=Box([-angle_limit, -velocity_limit], [angle_limit, velocity_limit]),
            initial_set=Box.symmetric(initial_half_width, dimension=2),
            control_bound=Box.symmetric(control_limit, dimension=1),
            horizon=horizon,
            disturbance=UniformDisturbance(disturbance_bound),
            dt=dt,
        )

    @property
    def inertia(self) -> float:
        """Rotational inertia ``m * l^2`` dividing the applied torque."""

        return self.mass * self.length**2

    def dynamics_batch(
        self, states: np.ndarray, controls: np.ndarray, disturbances: np.ndarray
    ) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        controls = np.atleast_2d(np.asarray(controls, dtype=np.float64))
        disturbances = np.atleast_2d(np.asarray(disturbances, dtype=np.float64))
        theta = states[:, 0]
        omega = states[:, 1]
        u = controls[:, 0]
        w = disturbances[:, 0] if disturbances.shape[-1] else np.zeros(len(states))
        accel = (self.gravity / self.length) * np.sin(theta) - self.damping * omega + u / self.inertia
        next_theta = theta + self.dt * omega
        next_omega = omega + self.dt * accel + w
        return np.stack([next_theta, next_omega], axis=1)
