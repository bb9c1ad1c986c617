"""Fixed-weight ensemble baseline.

The knowledge-distillation literature the paper cites ([13], [14]) distils
from an ensemble of teachers whose weights are *pre-determined* and sum to
one.  This module provides that setting so the ablation benchmark can show
what dynamically-learned weights buy over a static convex combination.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.config import DistillationConfig
from repro.core.distillation import DirectDistiller, collect_distillation_dataset
from repro.experts.base import Controller, NeuralController
from repro.systems.base import ControlSystem
from repro.systems.simulation import weighted_expert_controls
from repro.utils.seeding import RngLike


class FixedWeightEnsemble(Controller):
    """Static convex combination of experts: ``u = clip(sum w_i kappa_i(s))``."""

    name = "fixed-ensemble"

    def __init__(self, system: ControlSystem, experts: Sequence[Controller], weights: Optional[Sequence[float]] = None):
        if len(experts) < 2:
            raise ValueError("an ensemble requires at least two experts")
        self.system = system
        self.experts = list(experts)
        if weights is None:
            weights = np.full(len(self.experts), 1.0 / len(self.experts))
        weights = np.asarray(weights, dtype=np.float64)
        if weights.size != len(self.experts):
            raise ValueError("one weight per expert is required")
        if np.any(weights < 0) or not np.isclose(weights.sum(), 1.0):
            raise ValueError("fixed ensemble weights must be a convex combination (>= 0, sum to 1)")
        self.weights = weights

    def batch_control(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        weights = np.broadcast_to(self.weights, (len(states), len(self.experts)))
        controls = weighted_expert_controls(self.experts, weights, states, self.system.control_dim)
        return self.system.clip_control_batch(controls)


def distill_fixed_ensemble(
    system: ControlSystem,
    experts: Sequence[Controller],
    weights: Optional[Sequence[float]] = None,
    config: Optional[DistillationConfig] = None,
    rng: RngLike = None,
) -> NeuralController:
    """Distil a static ensemble into a student network (the literature baseline)."""

    config = config if config is not None else DistillationConfig()
    teacher = FixedWeightEnsemble(system, experts, weights)
    dataset = collect_distillation_dataset(
        system,
        teacher,
        size=config.dataset_size,
        trajectory_fraction=config.trajectory_fraction,
        rng=rng,
    )
    distiller = DirectDistiller(system, config=config, rng=rng)
    student = distiller.distill(dataset)
    student.name = "fixed-ensemble-student"
    return student
