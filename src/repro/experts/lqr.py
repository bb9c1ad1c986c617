"""LQR expert on a numerical linearisation of the plant.

The paper's model-based experts include LQR; we build one generically for
any :class:`repro.systems.ControlSystem` by linearising the discrete dynamics
around an equilibrium with central finite differences and solving the
discrete algebraic Riccati equation with the structure-preserving doubling
algorithm (SDA; Chu, Fan, Lin & Wang, Int. J. Control 2004) -- a dozen
NumPy solves, no SciPy.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.experts.base import Controller
from repro.systems.base import ControlSystem


#: Doubling step ``k`` sums ``2**k`` steps of the Riccati recursion, so a
#: problem that has not converged after this many never will.
MAX_DOUBLINGS = 64


def solve_discrete_riccati(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Stabilising solution ``P`` of ``P = A'PA - A'PB (R + B'PB)^-1 B'PA + Q``.

    SDA doubling from ``A_0 = A``, ``G_0 = B R^-1 B'``, ``H_0 = Q``: every
    step squares the horizon that ``H_k`` sums, so ``H_k`` converges
    quadratically to ``P`` (9-11 steps on the catalog plants).  Like SciPy's
    ``solve_discrete_are`` it raises :class:`numpy.linalg.LinAlgError`, and
    returns no matrix, when the pair is not stabilisable or not detectable:
    an iterate overflows, the doubling does not converge, or the closed loop
    ``A - B K`` is not stable.
    """

    identity = np.eye(A.shape[0])
    A_k, G, H = A, B @ np.linalg.solve(R, B.T), Q
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_DOUBLINGS):
            # W^-1 A_k and W^-1 G_k in one solve, W = I + G_k H_k.
            WA, WG = np.hsplit(np.linalg.solve(identity + G @ H, np.hstack([A_k, G])), 2)
            H_next = H + A_k.T @ H @ WA
            G = G + A_k @ WG @ A_k.T
            A_k = A_k @ WA
            if not np.all(np.isfinite(H_next)):
                raise np.linalg.LinAlgError("Riccati doubling overflowed: no finite stabilising solution")
            converged = np.linalg.norm(H_next - H, 1) <= 1e-14 * np.linalg.norm(H_next, 1)
            H = H_next
            if converged:
                break
        else:
            raise np.linalg.LinAlgError(f"Riccati doubling did not converge in {MAX_DOUBLINGS} steps")
    P = (H + H.T) / 2
    if np.max(np.abs(np.linalg.eigvals(A - B @ riccati_gain(A, B, R, P)))) >= 1.0:
        raise np.linalg.LinAlgError("Riccati solution does not stabilise the closed loop A - B K")
    return P


def riccati_gain(A: np.ndarray, B: np.ndarray, R: np.ndarray, P: np.ndarray) -> np.ndarray:
    """LQR gain ``K = (R + B'PB)^-1 B'PA`` of a Riccati solution ``P``."""

    return np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)


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
        self.gain = riccati_gain(A, B, R, solve_discrete_riccati(A, B, Q, R))
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
