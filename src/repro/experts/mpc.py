"""Sampling-based model-predictive-control expert.

The paper lists model-predictive control as one of the classic model-based
experts Cocktail can mix ("They could be based on well-established
model-based approaches, such as model-predictive control (MPC) or linear
quadratic regulator (LQR)").  This module provides a derivative-free MPC
that only needs the plant's ``dynamics_batch`` function:

at every step it samples candidate control sequences (a shrinking-variance
cross-entropy-method loop), rolls them all out in lockstep over the
prediction horizon on the nominal (disturbance-free) model, scores them
with a quadratic state/control cost plus a large penalty for every step
outside the safe region, and applies the first control of the best
sequence.

It is slower than the analytic experts (one batched model rollout of
``num_samples`` sequences per CEM iteration and control step) and
therefore not part of ``make_default_experts``, but it is a drop-in expert
for the mixing step and is exercised by the unit tests on shortened
horizons.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.experts.base import Controller
from repro.systems.base import ControlSystem
from repro.utils.seeding import RngLike, get_rng


class MPCController(Controller):
    """Cross-entropy-method MPC over the plant's nominal model.

    Parameters
    ----------
    system:
        The plant whose ``dynamics_batch`` is the prediction model.
    horizon:
        Prediction horizon (number of lookahead steps).
    num_samples:
        Candidate control sequences evaluated per CEM iteration.
    num_iterations:
        CEM refinement iterations per control step.
    elite_fraction:
        Fraction of best candidates used to refit the sampling distribution.
    state_cost, control_cost:
        Quadratic stage-cost weights ``x'Qx`` (scalar => scaled identity)
        and ``u'Ru``.
    unsafe_penalty:
        Cost added for every predicted step outside the safe region.
    """

    def __init__(
        self,
        system: ControlSystem,
        horizon: int = 10,
        num_samples: int = 64,
        num_iterations: int = 2,
        elite_fraction: float = 0.2,
        state_cost: float = 1.0,
        control_cost: float = 0.01,
        unsafe_penalty: float = 1e4,
        rng: RngLike = None,
        name: str = "mpc",
    ):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if num_samples < 4:
            raise ValueError("num_samples must be at least 4")
        if not 0.0 < elite_fraction <= 1.0:
            raise ValueError("elite_fraction must be in (0, 1]")
        self.system = system
        self.horizon = int(horizon)
        self.num_samples = int(num_samples)
        self.num_iterations = max(1, int(num_iterations))
        self.num_elites = max(2, int(round(num_samples * elite_fraction)))
        self.state_cost = np.eye(system.state_dim) * state_cost if np.isscalar(state_cost) else np.asarray(state_cost)
        self.control_cost = (
            np.eye(system.control_dim) * control_cost if np.isscalar(control_cost) else np.asarray(control_cost)
        )
        self.unsafe_penalty = float(unsafe_penalty)
        self._rng = get_rng(rng)
        self.name = name
        self._warm_start: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._warm_start = None

    def _sequence_costs(self, state: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Quadratic costs of ``(S, horizon, control_dim)`` control sequences.

        All ``S`` sequences roll out in lockstep on the nominal model from
        ``state``: one batched clip and plant update per lookahead step.
        """

        count = len(samples)
        current = np.tile(np.asarray(state, dtype=np.float64), (count, 1))
        zero_disturbance = np.zeros((count, self.system.disturbance.dimension))
        costs = np.zeros(count)
        for step in range(self.horizon):
            controls = self.system.clip_control_batch(samples[:, step])
            current = self.system.dynamics_batch(current, controls, zero_disturbance)
            costs += np.einsum("ni,ij,nj->n", current, self.state_cost, current)
            costs += np.einsum("ni,ij,nj->n", controls, self.control_cost, controls)
            costs += np.where(self.system.is_safe_batch(current), 0.0, self.unsafe_penalty)
        return costs

    def control(self, state: np.ndarray) -> np.ndarray:
        low = self.system.control_bound.low
        high = self.system.control_bound.high
        span = (high - low) / 2.0

        if self._warm_start is not None:
            mean = np.vstack([self._warm_start[1:], self._warm_start[-1:]])
        else:
            mean = np.zeros((self.horizon, self.system.control_dim))
        std = np.broadcast_to(span, mean.shape).astype(np.float64).copy()

        best_sequence = mean
        best_cost = np.inf
        for _ in range(self.num_iterations):
            samples = self._rng.normal(mean, std, size=(self.num_samples, self.horizon, self.system.control_dim))
            samples = np.clip(samples, low, high)
            costs = self._sequence_costs(state, samples)
            elite_index = np.argsort(costs)[: self.num_elites]
            elites = samples[elite_index]
            mean = elites.mean(axis=0)
            std = elites.std(axis=0) + 1e-6
            if costs[elite_index[0]] < best_cost:
                best_cost = float(costs[elite_index[0]])
                best_sequence = samples[elite_index[0]]

        self._warm_start = best_sequence
        return self.system.clip_control(best_sequence[0])
