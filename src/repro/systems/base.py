"""Abstract discrete-time feedback control system.

Mirrors the problem formulation of Section II:

.. math::  s(t+1) = f(s(t), u(t), \\omega(t), \\delta(t))

with a safe region ``X``, an initial set ``X0 \\subseteq X``, a control bound
``U``, a bounded external disturbance ``\\omega`` and a bounded state
perturbation ``\\delta`` that models adversarial attacks or measurement
noise.  Controllers observe the (possibly perturbed) state and return a
control input which the plant clips to ``U``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.systems.disturbance import DisturbanceModel, NoDisturbance
from repro.systems.sets import Box
from repro.utils.seeding import RngLike, get_rng


class ControlSystem:
    """Base class for the paper's discrete-time plants.

    Sub-classes implement :meth:`dynamics_batch` -- the deterministic part of
    the state update given the applied (already clipped) controls and the
    sampled external disturbances, one row per plant -- and define the
    sets/box bounds in ``__init__``.

    Attributes
    ----------
    state_dim, control_dim:
        Dimensions of the state and control vectors.
    safe_region:
        ``X``: leaving it terminates the episode with the safety punishment.
    initial_set:
        ``X0``: where initial states are sampled from.
    control_bound:
        ``U``: applied controls are clipped to this box.
    disturbance:
        The external disturbance model ``omega``.
    horizon:
        Episode length ``T`` used in the paper's energy metric.
    name:
        Human-readable system name used in tables.
    """

    name = "system"

    def __init__(
        self,
        state_dim: int,
        control_dim: int,
        safe_region: Box,
        initial_set: Box,
        control_bound: Box,
        horizon: int,
        disturbance: Optional[DisturbanceModel] = None,
        dt: float = 0.05,
    ):
        if state_dim <= 0 or control_dim <= 0:
            raise ValueError("state and control dimensions must be positive")
        if safe_region.dimension != state_dim:
            raise ValueError("safe_region dimension does not match state_dim")
        if initial_set.dimension != state_dim:
            raise ValueError("initial_set dimension does not match state_dim")
        if control_bound.dimension != control_dim:
            raise ValueError("control_bound dimension does not match control_dim")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.state_dim = state_dim
        self.control_dim = control_dim
        self.safe_region = safe_region
        self.initial_set = initial_set
        self.control_bound = control_bound
        self.horizon = int(horizon)
        self.disturbance = disturbance if disturbance is not None else NoDisturbance(state_dim)
        self.dt = float(dt)

    # ------------------------------------------------------------------
    # Interface to implement
    # ------------------------------------------------------------------
    def dynamics_batch(
        self, states: np.ndarray, controls: np.ndarray, disturbances: np.ndarray
    ) -> np.ndarray:
        """The deterministic one-step update ``f`` over ``(N, state_dim)`` batches.

        Inputs are ``states (N, state_dim)``, ``controls (N, control_dim)``
        (already clipped) and ``disturbances (N, omega_dim)``; the result has
        shape ``(N, state_dim)``.  Rows are independent: row ``i`` of the
        result depends on row ``i`` of the inputs alone, bit for bit, so a
        batch of one is the single-state update.
        """

        raise NotImplementedError

    # ------------------------------------------------------------------
    # Common behaviour
    # ------------------------------------------------------------------
    def clip_control_batch(self, controls: np.ndarray) -> np.ndarray:
        """Clip a ``(N, control_dim)`` batch of raw commands to ``U``."""

        controls = np.atleast_2d(np.asarray(controls, dtype=np.float64))
        if controls.shape[-1] != self.control_dim:
            raise ValueError(
                f"controls have dimension {controls.shape[-1]}, expected {self.control_dim}"
            )
        return np.clip(controls, self.control_bound.low, self.control_bound.high)

    def step_batch(self, states: np.ndarray, controls: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Advance a ``(N, state_dim)`` batch of plants by one period.

        Controls are clipped, one disturbance is sampled per batch member
        and :meth:`dynamics_batch` produces the next states.
        """

        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if states.shape[-1] != self.state_dim:
            raise ValueError(f"states have shape {states.shape}, expected (N, {self.state_dim})")
        clipped = self.clip_control_batch(controls)
        disturbances = self.disturbance.sample_batch(get_rng(rng), count=len(states))
        return self.dynamics_batch(states, clipped, disturbances)

    def is_safe_batch(self, states: np.ndarray) -> np.ndarray:
        """Per-row safety mask for a ``(N, state_dim)`` batch of states."""

        return self.safe_region.contains_batch(states)

    def state_scale(self) -> np.ndarray:
        """Half-width of the safe region, used to normalise perturbations.

        The paper expresses attack/noise magnitudes as a percentage of the
        "system state value bound"; this vector is that bound.
        """

        return np.maximum(np.abs(self.safe_region.low), np.abs(self.safe_region.high))

    def describe(self) -> dict:
        """A JSON-friendly description used in experiment records."""

        return {
            "name": self.name,
            "state_dim": self.state_dim,
            "control_dim": self.control_dim,
            "horizon": self.horizon,
            "dt": self.dt,
            "safe_region": [list(interval) for interval in self.safe_region],
            "initial_set": [list(interval) for interval in self.initial_set],
            "control_bound": [list(interval) for interval in self.control_bound],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(state_dim={self.state_dim}, control_dim={self.control_dim}, T={self.horizon})"
