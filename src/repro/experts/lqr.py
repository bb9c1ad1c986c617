"""LQR expert on a numerical linearisation of the plant.

The paper's model-based experts include LQR; we build one generically for
any :class:`repro.systems.ControlSystem` by linearising the discrete dynamics
around an equilibrium with central finite differences and solving the
discrete algebraic Riccati equation.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.experts.base import Controller
from repro.systems.base import ControlSystem


def linearize(
    system: ControlSystem,
    state_equilibrium: Optional[Sequence[float]] = None,
    control_equilibrium: Optional[Sequence[float]] = None,
    epsilon: float = 1e-5,
) -> Tuple[np.ndarray, np.ndarray]:
    """Finite-difference linearisation ``s(t+1) ≈ A s(t) + B u(t)`` about an equilibrium.

    Returns the discrete-time Jacobians ``(A, B)`` of the nominal (zero
    disturbance) dynamics.
    """

    x0 = (
        np.zeros(system.state_dim)
        if state_equilibrium is None
        else np.asarray(state_equilibrium, dtype=np.float64)
    )
    u0 = (
        np.zeros(system.control_dim)
        if control_equilibrium is None
        else np.asarray(control_equilibrium, dtype=np.float64)
    )
    n, m = system.state_dim, system.control_dim
    # One batch of the 2 (n + m) central-difference points: x0 +- eps e_k
    # (rows 0..2n), then u0 +- eps e_k (rows 2n..2n+2m).
    states = np.tile(x0, (2 * (n + m), 1))
    controls = np.tile(u0, (2 * (n + m), 1))
    states[:n] += epsilon * np.eye(n)
    states[n : 2 * n] -= epsilon * np.eye(n)
    controls[2 * n : 2 * n + m] += epsilon * np.eye(m)
    controls[2 * n + m :] -= epsilon * np.eye(m)
    disturbances = np.zeros((2 * (n + m), system.disturbance.dimension))
    next_states = system.dynamics_batch(states, controls, disturbances)

    A = np.ascontiguousarray((next_states[:n] - next_states[n : 2 * n]).T / (2.0 * epsilon))
    B = np.ascontiguousarray(
        (next_states[2 * n : 2 * n + m] - next_states[2 * n + m :]).T / (2.0 * epsilon)
    )
    return A, B


class LQRController(Controller):
    """Infinite-horizon discrete LQR ``u = -K (s - s_eq)``.

    Parameters
    ----------
    system:
        Plant to linearise.
    state_cost, control_cost:
        ``Q`` and ``R`` matrices (scalars are expanded to scaled identities).
        A small ``R`` yields an aggressive expert (large gains, large
        Lipschitz constant); a large ``R`` yields a gentle, energy-frugal one
        -- the two flavours play the role of the paper's κ1/κ2 experts.
    """

    def __init__(
        self,
        system: ControlSystem,
        state_cost: float = 1.0,
        control_cost: float = 1.0,
        state_equilibrium: Optional[Sequence[float]] = None,
        name: str = "lqr",
    ):
        A, B = linearize(system, state_equilibrium=state_equilibrium)
        Q = np.eye(system.state_dim) * float(state_cost) if np.isscalar(state_cost) else np.asarray(state_cost)
        R = (
            np.eye(system.control_dim) * float(control_cost)
            if np.isscalar(control_cost)
            else np.asarray(control_cost)
        )
        from scipy.linalg import solve_discrete_are  # only LQR needs SciPy; keep it off `import repro`

        P = solve_discrete_are(A, B, Q, R)
        self.gain = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
        self.A = A
        self.B = B
        self.state_equilibrium = (
            np.zeros(system.state_dim)
            if state_equilibrium is None
            else np.asarray(state_equilibrium, dtype=np.float64)
        )
        self.name = name

    def batch_control(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        return -((states - self.state_equilibrium) @ self.gain.T)
