"""The three-dimensional polynomial system (Section IV, system 2).

Continuous-time dynamics (example 15 of Sassi et al. 2017)::

    x_dot = y + 0.5 * z^2
    y_dot = z
    z_dot = u

discretised with forward Euler at ``tau = 0.05``; ``X = X0 = [-0.5, 0.5]^3``,
``u in [-10, 10]``, ``T = 100``.  The paper applies no external disturbance
to this system.
"""

from __future__ import annotations

import numpy as np

from repro.systems.base import ControlSystem
from repro.systems.disturbance import NoDisturbance
from repro.systems.sets import Box


class ThreeDimensionalSystem(ControlSystem):
    """Euler-discretised 3-D polynomial system ``(x, y, z)`` with scalar input."""

    name = "3d"

    def __init__(
        self,
        dt: float = 0.05,
        horizon: int = 100,
        control_limit: float = 10.0,
        state_limit: float = 0.5,
    ):
        super().__init__(
            state_dim=3,
            control_dim=1,
            safe_region=Box.symmetric(state_limit, dimension=3),
            initial_set=Box.symmetric(state_limit, dimension=3),
            control_bound=Box.symmetric(control_limit, dimension=1),
            horizon=horizon,
            disturbance=NoDisturbance(3),
            dt=dt,
        )

    def dynamics_batch(
        self, states: np.ndarray, controls: np.ndarray, disturbances: np.ndarray
    ) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        controls = np.atleast_2d(np.asarray(controls, dtype=np.float64))
        disturbances = np.atleast_2d(np.asarray(disturbances, dtype=np.float64))
        x, y, z = states[:, 0], states[:, 1], states[:, 2]
        u = controls[:, 0]
        x_dot = y + 0.5 * z**2
        y_dot = z
        z_dot = u
        next_states = np.stack(
            [x + self.dt * x_dot, y + self.dt * y_dot, z + self.dt * z_dot], axis=1
        )
        if disturbances.shape[-1] == self.state_dim:
            next_states = next_states + disturbances
        return next_states
