"""Control-energy metric (Property 2 of the paper)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.experts.base import Controller
from repro.systems.base import ControlSystem
from repro.systems.simulation import evaluate_rollouts, sample_initial_states
from repro.utils.seeding import RngLike, get_rng


def energy_metric(
    system: ControlSystem,
    controller: Controller,
    samples: int = 500,
    horizon: Optional[int] = None,
    rng: RngLike = None,
    initial_states: Optional[np.ndarray] = None,
    batch_size: Optional[int] = None,
) -> float:
    """Average 1-norm control energy over the safe trajectories.

    The expectation of Eq. (3) is taken over the controller's safe initial
    state set, estimated here by averaging over the sampled trajectories
    that stay safe.  Rollouts run on the batched engine; ``batch_size``
    caps the lockstep batch (``None`` = one batch).
    """

    generator = get_rng(rng)
    if initial_states is None:
        initial_states = sample_initial_states(system, samples, rng=generator)
    result = evaluate_rollouts(
        system, controller, initial_states, horizon=horizon, rng=generator, batch_size=batch_size
    )
    return result.mean_energy
