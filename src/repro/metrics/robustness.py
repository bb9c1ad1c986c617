"""Control-robustness metric: safe control rate and energy under perturbations.

Property 1 of the paper: the safe control rate ``Sr`` under optimised
adversarial attacks or random measurement noises on the system state.
Property 2: the control energy ``e``, averaged over the safe trajectories.
The estimate follows the paper's protocol -- sample initial states from
``X0``, simulate the closed loop, count safe trajectories -- and
:func:`evaluate_robustness` is the one Monte-Carlo estimator of both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.attacks.adversary import perturbation_budget
from repro.attacks.fgsm import FGSMAttack
from repro.attacks.noise import UniformMeasurementNoise
from repro.experts.base import Controller
from repro.systems.base import ControlSystem
from repro.systems.simulation import rollout_batch, sample_initial_states
from repro.utils.seeding import RngLike, get_rng


@dataclass
class RobustnessResult:
    """Safe control rate and energy under one perturbation regime.

    ``num_safe`` of the ``samples`` trajectories stayed safe;
    ``energies`` holds their control energies in sample order.
    """

    safe_rate: float
    mean_energy: float
    perturbation: str
    samples: int
    num_safe: int
    energies: List[float]


def evaluate_robustness(
    system: ControlSystem,
    controller: Controller,
    perturbation: str = "none",
    fraction: float = 0.1,
    samples: int = 500,
    rng: RngLike = None,
    initial_states: Optional[np.ndarray] = None,
    batch_size: Optional[int] = None,
    horizon: Optional[int] = None,
) -> RobustnessResult:
    """Estimate ``Sr`` and ``e`` under the requested perturbation regime.

    The Monte-Carlo rollouts run on the batched engine
    (:func:`repro.systems.simulation.rollout_batch`).  Following Property 2
    of the paper, the energy average is taken over the *safe* trajectories
    only (the safe initial state set ``X'``); if no trajectory is safe the
    mean energy is reported as ``inf``.

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
        whole sample as one batch (fastest; chunk when memory or
        perturbation cost per step matters).  A stateful perturbation (the
        alternating FGSM attack's step counter) is reset before every chunk,
        so each trajectory sees the attack phase as a function of its own
        simulation time and the aggregate does not depend on ``batch_size``.
    horizon:
        Number of control steps; defaults to ``system.horizon``.
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

    total = len(initial_states)
    if batch_size is not None and batch_size <= 0:
        raise ValueError("batch_size must be positive (or None for one batch)")
    chunk = total if batch_size is None else min(batch_size, total)
    reset_perturbation = getattr(perturbation_fn, "reset", None)

    num_safe = 0
    energies: List[float] = []
    for start in range(0, total, chunk):
        if reset_perturbation is not None:
            reset_perturbation()
        batch = rollout_batch(
            system,
            controller,
            initial_states[start : start + chunk],
            horizon=horizon,
            perturbation=perturbation_fn,
            rng=generator,
            record_states=False,
        )
        num_safe += batch.num_safe
        energies.extend(float(value) for value in batch.safe_energies())

    return RobustnessResult(
        safe_rate=num_safe / total,
        mean_energy=float(np.mean(energies)) if energies else float("inf"),
        perturbation=perturbation,
        samples=total,
        num_safe=num_safe,
        energies=energies,
    )
