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
sequence.  The controller is memoryless: each call starts its search from
scratch, and a batch of states runs one CEM loop per row in lockstep.

It is slower than the analytic experts (one batched model rollout of
``N * num_samples`` sequences per CEM iteration for a batch of ``N``
states) and therefore not part of ``make_default_experts``, but it is a
drop-in expert for the mixing step and is exercised by the unit tests on
shortened horizons.
"""

from __future__ import annotations

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

    # ------------------------------------------------------------------
    def _sequence_costs(self, states: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Quadratic costs of ``(N, S, horizon, control_dim)`` control sequences.

        Row ``i``'s ``S`` sequences start from ``states[i]``; all ``N * S``
        roll out in lockstep on the nominal model, one batched clip and
        plant update per lookahead step.  Returns the ``(N, S)`` costs.
        """

        count, num_sequences = samples.shape[:2]
        current = np.repeat(np.asarray(states, dtype=np.float64), num_sequences, axis=0)
        sequences = samples.reshape(count * num_sequences, self.horizon, -1)
        zero_disturbance = np.zeros((len(current), self.system.disturbance.dimension))
        costs = np.zeros(len(current))
        for step in range(self.horizon):
            controls = self.system.clip_control_batch(sequences[:, step])
            current = self.system.dynamics_batch(current, controls, zero_disturbance)
            costs += np.einsum("ni,ij,nj->n", current, self.state_cost, current)
            costs += np.einsum("ni,ij,nj->n", controls, self.control_cost, controls)
            costs += np.where(self.system.is_safe_batch(current), 0.0, self.unsafe_penalty)
        return costs.reshape(count, num_sequences)

    def batch_control(self, states: np.ndarray) -> np.ndarray:
        """First control of each row's best sampled sequence.

        Every row runs its own CEM loop from a zero mean and the full
        control span, all rows in lockstep: one ``(N, S, horizon,
        control_dim)`` draw and one batched model rollout per iteration.
        Nothing carries over between calls.
        """

        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        count = len(states)
        low = self.system.control_bound.low
        high = self.system.control_bound.high
        shape = (count, self.horizon, self.system.control_dim)
        mean = np.zeros(shape)
        std = np.broadcast_to((high - low) / 2.0, shape).astype(np.float64)
        rows = np.arange(count)

        best_sequences = mean
        best_costs = np.full(count, np.inf)
        for _ in range(self.num_iterations):
            samples = self._rng.normal(mean[:, None], std[:, None], size=(count, self.num_samples) + shape[1:])
            samples = np.clip(samples, low, high)
            costs = self._sequence_costs(states, samples)
            elite_index = np.argsort(costs, axis=1)[:, : self.num_elites]
            elites = samples[rows[:, None], elite_index]
            mean = elites.mean(axis=1)
            std = elites.std(axis=1) + 1e-6
            leaders = costs[rows, elite_index[:, 0]]
            improved = leaders < best_costs
            best_costs = np.where(improved, leaders, best_costs)
            best_sequences = np.where(improved[:, None, None], samples[rows, elite_index[:, 0]], best_sequences)

        return self.system.clip_control_batch(best_sequences[:, 0])
