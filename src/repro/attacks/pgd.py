"""Projected gradient descent (PGD) attack: iterated FGSM.

Table II uses single-step FGSM; PGD (Madry et al.) is its standard stronger
multi-step variant, available to check that the robust student's advantage
survives a stronger adversary (no benchmark uses it).
Each step ascends the same objective as :mod:`repro.attacks.fgsm` (push the
control output as far as possible) and re-projects onto the ``Delta`` box
around the true state.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.attacks.fgsm import _control_change_gradient_batch
from repro.experts.base import Controller
from repro.utils.seeding import get_rng


def pgd_perturbation_batch(
    controller: Controller,
    states: np.ndarray,
    bound: Union[float, Sequence[float]],
    steps: int = 5,
    step_size_fraction: float = 0.5,
) -> np.ndarray:
    """Multi-step projected gradient attack around each row of ``states``.

    ``step_size_fraction`` scales each ascent step relative to the bound;
    every iterate is projected back into ``[states - bound, states + bound]``
    after each step so the final perturbation respects ``Delta``.
    """

    if steps <= 0:
        raise ValueError("steps must be positive")
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    bound = np.atleast_1d(np.asarray(bound, dtype=np.float64))
    step_size = step_size_fraction * bound
    current = states.copy()
    for _ in range(steps):
        gradient = _control_change_gradient_batch(controller, current)
        sign = np.sign(gradient)
        sign[sign == 0.0] = 1.0
        current = current + step_size * sign
        current = np.clip(current, states - bound, states + bound)
    return current


class PGDAttack:
    """Evaluation-time PGD attacker usable as a rollout perturbation."""

    def __init__(
        self,
        controller: Controller,
        bound: Union[float, Sequence[float]],
        steps: int = 5,
        step_size_fraction: float = 0.5,
        probability: float = 1.0,
    ):
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if steps <= 0:
            raise ValueError("steps must be positive")
        self.controller = controller
        self.bound = np.atleast_1d(np.asarray(bound, dtype=np.float64))
        self.steps = int(steps)
        self.step_size_fraction = float(step_size_fraction)
        self.probability = float(probability)

    def perturb_batch(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Attack an ``(N, state_dim)`` batch of measurements at one time step."""

        rng = get_rng(rng)
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if self.probability < 1.0:
            attacked = rng.uniform(size=len(states)) <= self.probability
            if not np.any(attacked):
                return states
            result = states.copy()
            result[attacked] = pgd_perturbation_batch(
                self.controller,
                states[attacked],
                self.bound,
                steps=self.steps,
                step_size_fraction=self.step_size_fraction,
            )
            return result
        return pgd_perturbation_batch(
            self.controller,
            states,
            self.bound,
            steps=self.steps,
            step_size_fraction=self.step_size_fraction,
        )
