"""The cartpole test system (Section IV, system 3).

Continuous-force cartpole with the paper's constants::

    m_c = 1, m_p = 0.1, m_t = 1.1, g = 9.8, l = 1, tau = 0.02, T = 200

State ``s = (position, velocity, angle, angular velocity)``.  The safe region
constrains position to ``[-2.4, 2.4]`` and angle to ``[-0.209, 0.209]`` rad;
initial states are sampled from ``[-0.2, 0.2]^4`` (a subset of ``X``).  The
paper leaves the two velocity components unconstrained; this implementation
bounds them at ``[-3, 3]`` because the safe region must be a bounded box for
uniform sampling and for the Bernstein-based verification -- any trajectory
that balances the pole from ``X0`` stays well inside that range.  The
intermediate quantities follow the equations printed in the paper::

    psi       = (u + m_p * l * s4^2 * sin(s3)) / m_t
    theta_acc = (g * sin(s3) - cos(s3) * psi) / (l * (1.333 - m_p * cos(s3)^2 / m_t))
    s_acc     = psi - m_p * l * cos(s3) * theta_acc / m_t
"""

from __future__ import annotations

import numpy as np

from repro.systems.base import ControlSystem
from repro.systems.disturbance import NoDisturbance
from repro.systems.sets import Box


class CartPole(ControlSystem):
    """Continuous-force cartpole balancing task."""

    name = "cartpole"

    def __init__(
        self,
        dt: float = 0.02,
        horizon: int = 200,
        control_limit: float = 10.0,
        cart_mass: float = 1.0,
        pole_mass: float = 0.1,
        pole_length: float = 1.0,
        gravity: float = 9.8,
        position_limit: float = 2.4,
        angle_limit: float = 0.209,
        velocity_limit: float = 3.0,
        initial_half_width: float = 0.2,
    ):
        self.cart_mass = float(cart_mass)
        self.pole_mass = float(pole_mass)
        self.total_mass = self.cart_mass + self.pole_mass
        self.pole_length = float(pole_length)
        self.gravity = float(gravity)

        safe_region = Box(
            [-position_limit, -velocity_limit, -angle_limit, -velocity_limit],
            [position_limit, velocity_limit, angle_limit, velocity_limit],
        )
        initial_set = Box.symmetric(initial_half_width, dimension=4)
        super().__init__(
            state_dim=4,
            control_dim=1,
            safe_region=safe_region,
            initial_set=initial_set,
            control_bound=Box.symmetric(control_limit, dimension=1),
            horizon=horizon,
            disturbance=NoDisturbance(4),
            dt=dt,
        )

    def dynamics_batch(
        self, states: np.ndarray, controls: np.ndarray, disturbances: np.ndarray
    ) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        controls = np.atleast_2d(np.asarray(controls, dtype=np.float64))
        disturbances = np.atleast_2d(np.asarray(disturbances, dtype=np.float64))
        position = states[:, 0]
        velocity = states[:, 1]
        angle = states[:, 2]
        angular_velocity = states[:, 3]
        force = controls[:, 0]
        sin_theta = np.sin(angle)
        cos_theta = np.cos(angle)

        psi = (force + self.pole_mass * self.pole_length * angular_velocity**2 * sin_theta) / self.total_mass
        theta_acc = (self.gravity * sin_theta - cos_theta * psi) / (
            self.pole_length * (4.0 / 3.0 - self.pole_mass * cos_theta**2 / self.total_mass)
        )
        s_acc = psi - self.pole_mass * self.pole_length * cos_theta * theta_acc / self.total_mass

        next_states = np.stack(
            [
                position + self.dt * velocity,
                velocity + self.dt * s_acc,
                angle + self.dt * angular_velocity,
                angular_velocity + self.dt * theta_acc,
            ],
            axis=1,
        )
        if disturbances.shape[-1] == self.state_dim:
            next_states = next_states + disturbances
        return next_states
