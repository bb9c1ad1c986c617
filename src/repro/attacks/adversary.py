"""Stronger, system-aware adversaries and attack-budget helpers.

Besides the controller-only FGSM attack, the evaluation harness can use an
adversary that exploits the plant model: at each step it searches the
perturbation box for the observation that drives the *next true state*
closest to the unsafe boundary.  This is the "optimized adversarial attack"
interpretation in its strongest form, available as a ``perturbation`` for
:func:`repro.systems.rollout_batch`.  No benchmark uses it; Table II uses
the FGSM attacker.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.experts.base import Controller
from repro.systems.base import ControlSystem
from repro.systems.simulation import batch_controls
from repro.utils.seeding import get_rng


def perturbation_budget(system: ControlSystem, fraction: float) -> np.ndarray:
    """Per-dimension perturbation bound as a fraction of the state value bound.

    The paper uses 10-15 % of the system state value bound for both the
    noise and the attack experiments.
    """

    if fraction < 0:
        raise ValueError("fraction must be non-negative")
    return fraction * system.state_scale()


def safety_margin(system: ControlSystem, states: np.ndarray) -> np.ndarray:
    """Signed distance to the safe-region boundary (negative when unsafe).

    ``states`` has shape ``(..., state_dim)``; the result drops the last axis.
    """

    states = np.asarray(states, dtype=np.float64)
    lower = states - system.safe_region.low
    upper = system.safe_region.high - states
    return np.minimum(lower.min(axis=-1), upper.min(axis=-1))


def _margins_after(
    system: ControlSystem, controller: Controller, states: np.ndarray, observations: np.ndarray
) -> np.ndarray:
    """Next-state safety margins when ``controller`` sees ``observations``.

    ``states`` and ``observations`` have shape ``(..., state_dim)``; the
    plant steps on the nominal (disturbance-free) model from ``states``.
    """

    shape = observations.shape[:-1]
    observations = observations.reshape(-1, system.state_dim)
    states = np.broadcast_to(states, shape + (system.state_dim,)).reshape(-1, system.state_dim)
    controls = system.clip_control_batch(batch_controls(controller, observations))
    disturbances = np.zeros((len(states), system.disturbance.dimension))
    next_states = system.dynamics_batch(states, controls, disturbances)
    return safety_margin(system, next_states).reshape(shape)


class WorstCaseSampler:
    """Random-search adversary: sample candidate perturbations, keep the worst.

    At every step it samples ``candidates`` corner/uniform perturbations of
    each observation within the bound and picks the one that minimises the
    next-state safety margin under the plant model.  It is slower than FGSM
    but stronger; the number of candidates controls the compute/strength
    trade-off.
    """

    def __init__(
        self,
        system: ControlSystem,
        controller: Controller,
        bound: Union[float, Sequence[float]],
        candidates: int = 8,
        include_corners: bool = True,
    ):
        if candidates < 1:
            raise ValueError("candidates must be positive")
        self.system = system
        self.controller = controller
        self.bound = np.atleast_1d(np.asarray(bound, dtype=np.float64))
        self.candidates = int(candidates)
        self.include_corners = include_corners

    def _candidate_offsets(self, rng: np.random.Generator, count: int, dimension: int) -> np.ndarray:
        """``(count, candidates + 1, dimension)`` offsets: zero, corners, uniform draws.

        The uniform draws fill row by row, each row's candidates in order.
        """

        fixed = [np.zeros(dimension)]
        if self.include_corners:
            # Sign-pattern corners of the perturbation box (capped for high dims).
            for index in range(min(2**dimension, self.candidates)):
                signs = np.array([1.0 if (index >> axis) & 1 else -1.0 for axis in range(dimension)])
                fixed.append(signs * self.bound)
        fixed = np.broadcast_to(np.asarray(fixed), (count, len(fixed), dimension))
        drawn = rng.uniform(
            -self.bound, self.bound, size=(count, self.candidates + 1 - fixed.shape[1], dimension)
        )
        return np.concatenate([fixed, drawn], axis=1)

    def perturb_batch(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """The worst candidate observation of each row of ``states``."""

        rng = get_rng(rng)
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        observations = states[:, None, :] + self._candidate_offsets(rng, *states.shape)
        margins = _margins_after(self.system, self.controller, states[:, None, :], observations)
        return observations[np.arange(len(states)), np.argmin(margins, axis=1)]


class GradientClosedLoopAttack:
    """Gradient-based closed-loop adversary.

    Uses finite differences of the next-state safety margin with respect to
    the observation, then takes a sign step of the full budget -- an FGSM
    step on the *closed-loop* objective rather than on the controller output.
    """

    def __init__(
        self,
        system: ControlSystem,
        controller: Controller,
        bound: Union[float, Sequence[float]],
        epsilon: float = 1e-4,
    ):
        self.system = system
        self.controller = controller
        self.bound = np.atleast_1d(np.asarray(bound, dtype=np.float64))
        self.epsilon = float(epsilon)

    def perturb_batch(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One closed-loop sign step per row of ``states``."""

        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        dimension = states.shape[1]
        offsets = self.epsilon * np.eye(dimension)[:, None, :]
        # (2 * dimension, N, dimension): every row nudged up, then down, along each axis.
        observations = np.concatenate([states + offsets, states - offsets])
        margins = _margins_after(self.system, self.controller, states, observations)
        gradient = ((margins[:dimension] - margins[dimension:]) / (2.0 * self.epsilon)).T
        sign = np.sign(gradient)
        sign[sign == 0.0] = 1.0
        # Step against the margin gradient: reduce the post-step safety margin.
        return states - self.bound * sign
