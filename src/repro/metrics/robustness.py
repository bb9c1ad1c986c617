"""Control-robustness metric: safe control rate under perturbations.

Property 1 of the paper: the safe control rate ``Sr`` under optimised
adversarial attacks or random measurement noises on the system state.  The
estimate follows the paper's protocol -- sample initial states from ``X0``,
simulate the closed loop, count safe trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.attacks.adversary import perturbation_budget
from repro.attacks.fgsm import FGSMAttack
from repro.attacks.noise import UniformMeasurementNoise
from repro.experts.base import Controller
from repro.systems.base import ControlSystem
from repro.systems.simulation import evaluate_rollouts, sample_initial_states
from repro.utils.seeding import RngLike, get_rng


@dataclass
class RobustnessResult:
    """Safe control rate and energy under one perturbation regime."""

    safe_rate: float
    mean_energy: float
    perturbation: str
    samples: int

    def as_dict(self) -> dict:
        return {
            "safe_rate": self.safe_rate,
            "mean_energy": self.mean_energy,
            "perturbation": self.perturbation,
            "samples": self.samples,
        }


def evaluate_robustness(
    system: ControlSystem,
    controller: Controller,
    perturbation: str = "none",
    fraction: float = 0.1,
    samples: int = 500,
    rng: RngLike = None,
    initial_states: Optional[np.ndarray] = None,
    batch_size: Optional[int] = None,
) -> RobustnessResult:
    """Estimate ``Sr`` and ``e`` under the requested perturbation regime.

    The Monte-Carlo rollouts run on the batched engine
    (:func:`repro.systems.simulation.rollout_batch`).

    Parameters
    ----------
    perturbation:
        ``"none"`` (Table I), ``"attack"`` (FGSM, Table II left) or
        ``"noise"`` (uniform measurement noise, Table II right).
    fraction:
        Perturbation magnitude as a fraction of the system state bound; the
        paper uses 10-15 %.
    initial_states:
        Pre-drawn initial states, so every controller in a comparison can be
        evaluated on exactly the same sample.
    batch_size:
        How many trajectories advance in lockstep at once; ``None`` runs the
        whole sample as one batch.
    """

    generator = get_rng(rng)
    if initial_states is None:
        initial_states = sample_initial_states(system, samples, rng=generator)
    else:
        initial_states = np.atleast_2d(np.asarray(initial_states, dtype=np.float64))

    if perturbation == "none":
        perturbation_fn = None
    elif perturbation == "noise":
        perturbation_fn = UniformMeasurementNoise(perturbation_budget(system, fraction))
    elif perturbation == "attack":
        perturbation_fn = FGSMAttack(controller, perturbation_budget(system, fraction))
    else:
        raise ValueError("perturbation must be 'none', 'noise' or 'attack'")

    result = evaluate_rollouts(
        system,
        controller,
        initial_states,
        perturbation=perturbation_fn,
        rng=generator,
        batch_size=batch_size,
    )
    return RobustnessResult(
        safe_rate=result.safe_rate,
        mean_energy=result.mean_energy,
        perturbation=perturbation,
        samples=len(initial_states),
    )
