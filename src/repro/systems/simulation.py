"""Closed-loop trajectory simulation behind the paper's Monte-Carlo metrics.

The robustness (safe control rate) and energy metrics of Section II are
Monte-Carlo estimates: sample initial states from ``X0``, roll the closed
loop forward for ``T`` steps, check whether every visited state stays inside
``X`` and accumulate the 1-norm of the applied control.  One engine produces
those rollouts:

* :func:`rollout_batch` advances an ``(N, state_dim)`` batch of trajectories
  in lockstep, one batched perturbation, controller evaluation, clip and
  plant update (:meth:`ControlSystem.dynamics_batch`) per step, masking out
  trajectories that have already violated safety.  The Monte-Carlo
  estimator of both metrics,
  :func:`repro.metrics.robustness.evaluate_robustness`, runs on it.
* :func:`rollout` is its ``N = 1`` case, returned as one
  :class:`Trajectory`.

Threat model (matching Section II of the paper): the perturbation ``delta``
is applied to the *measurement only*.  At every step the controller observes
``s(t) + delta(t)`` (bounded attack or noise), but the plant always evolves
from the true state ``s(t)``.  Perturbations are injected through an optional
object with a batched ``perturb_batch`` (see :class:`PerturbationFn`), so
the same rollout code serves the clean, noisy and attacked evaluations.

Controllers are :class:`repro.experts.Controller` objects: memoryless maps
evaluated on the whole active batch at every step through
``batch_control``.

``stop_on_violation`` semantics: when ``True`` (the default, and what every
metric uses) a trajectory stops at the *first* unsafe state -- no further
controls are applied, no further energy accrues, and in the batch engine the
trajectory is masked out of all subsequent steps.  When ``False`` the rollout
always runs the full horizon; ``safe`` still reports whether any visited
state (including the initial one) left ``X`` and ``violation_step`` records
the first offence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Protocol, Sequence

import numpy as np

from repro.systems.base import ControlSystem
from repro.utils.seeding import RngLike, get_rng

if TYPE_CHECKING:
    from repro.experts.base import Controller


class PerturbationFn(Protocol):
    """Maps true states to the observed (perturbed) states."""

    def perturb_batch(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Observations of an ``(N, state_dim)`` batch of true states."""


@dataclass
class Trajectory:
    """One closed-loop rollout.

    Attributes
    ----------
    states:
        True plant states, shape ``(steps + 1, state_dim)``: the initial
        state followed by one state per applied control.  When the rollout
        stopped on a violation the last row is the first unsafe state.
    controls:
        Applied (clipped) controls, shape ``(steps, control_dim)``.
    safe:
        ``True`` iff every visited state (initial state included) stayed
        inside the safe region ``X``.
    steps:
        Number of controls applied before the rollout ended (``horizon``
        for a safe rollout, fewer when it stopped on a violation).
    energy:
        Accumulated 1-norm of the applied controls, Eq. (3)'s integrand.
    violation_step:
        Index of the first unsafe state (0 = unsafe initial state), or
        ``None`` when the trajectory never left ``X``.
    observed_states:
        What the controller saw, shape ``(steps + 1, state_dim)``: the
        initial state followed by the (possibly perturbed) observation used
        at each step.  Row 0 is always the true initial state.
    """

    states: np.ndarray
    controls: np.ndarray
    safe: bool
    steps: int
    energy: float
    violation_step: Optional[int] = None
    observed_states: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.steps


@dataclass
class TrajectoryBatch:
    """A batch of ``N`` closed-loop rollouts advanced in lockstep.

    Time-major per-trajectory arrays are padded to the longest rollout in
    the batch (``T = max(steps)``); rows that stopped early are frozen at
    their last value (states/observations) or zero (controls) beyond their
    own ``steps``.  Use :meth:`trajectory` to slice out one member as a
    scalar :class:`Trajectory`.
    """

    #: True states, shape ``(N, T + 1, state_dim)``.
    states: np.ndarray
    #: Applied controls, shape ``(N, T, control_dim)``.
    controls: np.ndarray
    #: Per-trajectory safety flag, shape ``(N,)`` bool.
    safe: np.ndarray
    #: Number of controls applied per trajectory, shape ``(N,)`` int.
    steps: np.ndarray
    #: Accumulated control energy per trajectory, shape ``(N,)``.
    energy: np.ndarray
    #: First unsafe step per trajectory (-1 = never unsafe), shape ``(N,)`` int.
    violation_step: np.ndarray
    #: Observed states, shape ``(N, T + 1, state_dim)``.
    observed_states: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.safe)

    @property
    def num_safe(self) -> int:
        return int(np.count_nonzero(self.safe))

    @property
    def safe_rate(self) -> float:
        return self.num_safe / len(self)

    def safe_energies(self) -> np.ndarray:
        """Energies of the safe trajectories, in batch order."""

        return self.energy[self.safe]

    def trajectory(self, index: int) -> Trajectory:
        """Extract member ``index`` as a scalar :class:`Trajectory`."""

        count = int(self.steps[index])
        violation = int(self.violation_step[index])
        if self.states.shape[1] < count + 1:
            raise ValueError(
                "per-step histories were not recorded (rollout_batch(record_states=False))"
            )
        return Trajectory(
            states=self.states[index, : count + 1].copy(),
            controls=self.controls[index, :count].copy(),
            safe=bool(self.safe[index]),
            steps=count,
            energy=float(self.energy[index]),
            violation_step=None if violation < 0 else violation,
            observed_states=(
                self.observed_states[index, : count + 1].copy()
                if self.observed_states is not None
                else None
            ),
        )


def batch_controls(controller: Controller, states: np.ndarray) -> np.ndarray:
    """The (unclipped) ``(N, control_dim)`` float64 controls of ``controller``
    on an ``(N, state_dim)`` batch of observations."""

    return np.atleast_2d(np.asarray(controller.batch_control(states), dtype=np.float64))


def weighted_expert_controls(
    experts: Sequence[Controller], weights: np.ndarray, states: np.ndarray, control_dim: int
) -> np.ndarray:
    """Eq. (4)'s weighted expert sum over an ``(N, state_dim)`` batch.

    ``weights`` has shape ``(N, len(experts))``; the result is the unclipped
    ``(N, control_dim)`` mixed command ``sum_i w_i(s) kappa_i(s)``.  This is
    the single batched kernel behind both the mixing environment
    (:meth:`repro.core.mixing.AdaptiveMixingEnv.actions_to_controls`) and
    the mixed-controller teacher
    (:meth:`repro.core.mixing.MixedController.batch_control`), so the
    training MDP and the distillation teacher can never diverge.
    """

    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    controls = np.zeros((len(states), int(control_dim)))
    for index, expert in enumerate(experts):
        controls = controls + weights[:, index : index + 1] * batch_controls(expert, states)
    return controls


def rollout_batch(
    system: ControlSystem,
    controller: Controller,
    initial_states: Sequence[Sequence[float]],
    horizon: Optional[int] = None,
    perturbation: Optional[PerturbationFn] = None,
    rng: RngLike = None,
    stop_on_violation: bool = True,
    record_states: bool = True,
) -> TrajectoryBatch:
    """Simulate ``N`` closed loops in lockstep from the rows of ``initial_states``.

    Each step performs one batched perturbation, one batched controller
    evaluation, one batched control clip and one batched plant update for
    every still-active trajectory; with ``stop_on_violation`` (the default)
    trajectories leave the active set at their first unsafe state, so a batch
    whose members all fail early terminates early too.

    Each step draws the perturbation, then the disturbance.  The stream is
    consumed step-major (all members' draws at step ``t`` before any draw
    at ``t + 1``), so on stochastic plants a member of an ``N``-row batch
    differs from the same initial state rolled out alone -- the
    Monte-Carlo estimates are statistically equivalent.

    Parameters
    ----------
    system:
        The plant to control.
    controller:
        Maps each step's ``(n_active, state_dim)`` observations to control
        commands through its ``batch_control``.
    initial_states:
        Array-like of shape ``(N, state_dim)``.
    horizon:
        Number of control steps; defaults to ``system.horizon`` (the paper's
        ``T``).
    perturbation:
        Optional attack/noise model applied to the measurement only (see the
        module docstring for the threat model).
    stop_on_violation:
        Stop each trajectory at its first unsafe state (see module docstring).
    record_states:
        When ``False`` the per-step state/control/observation histories are
        not stored (the returned arrays are empty); the scalar summaries
        (``safe``, ``steps``, ``energy``, ``violation_step``) are unaffected.
        Metric sweeps use this to avoid allocating ``(N, T, dim)`` arrays.
    """

    generator = get_rng(rng)
    horizon = int(horizon) if horizon is not None else system.horizon
    states = np.atleast_2d(np.asarray(initial_states, dtype=np.float64)).copy()
    if states.shape[-1] != system.state_dim:
        raise ValueError(
            f"initial_states have shape {states.shape}, expected (N, {system.state_dim})"
        )
    count = len(states)

    initially_safe = system.is_safe_batch(states)
    safe = initially_safe.copy()
    violation_step = np.where(initially_safe, -1, 0)
    energy = np.zeros(count)
    steps = np.zeros(count, dtype=int)
    active = initially_safe.copy() if stop_on_violation else np.ones(count, dtype=bool)

    if record_states:
        states_history = np.empty((count, horizon + 1, system.state_dim))
        states_history[:, 0] = states
        observed_history = np.empty((count, horizon + 1, system.state_dim))
        observed_history[:, 0] = states
        controls_history = np.zeros((count, horizon, system.control_dim))

    executed = 0
    for step in range(horizon):
        index = np.flatnonzero(active)
        if index.size == 0:
            break
        current = states[index]
        executed = step + 1

        observations = current
        if perturbation is not None:
            observations = perturbation.perturb_batch(current, generator)
        commands = batch_controls(controller, observations)
        applied = system.clip_control_batch(commands)

        disturbances = system.disturbance.sample_batch(generator, count=len(current))
        next_states = system.dynamics_batch(current, applied, disturbances)

        energy[index] += np.sum(np.abs(applied), axis=1)
        steps[index] += 1
        states[index] = next_states

        if record_states:
            # Frozen rows carry their previous value forward so padded
            # slices stay well-defined; trajectory() trims them away.
            states_history[:, step + 1] = states_history[:, step]
            states_history[index, step + 1] = next_states
            observed_history[:, step + 1] = observed_history[:, step]
            observed_history[index, step + 1] = observations
            controls_history[index, step] = applied

        now_safe = system.is_safe_batch(next_states)
        violated = index[~now_safe]
        if violated.size:
            safe[violated] = False
            fresh = violated[violation_step[violated] < 0]
            violation_step[fresh] = step + 1
            if stop_on_violation:
                active[violated] = False

    if record_states:
        states_out = states_history[:, : executed + 1]
        observed_out = observed_history[:, : executed + 1]
        controls_out = controls_history[:, :executed]
    else:
        states_out = np.zeros((count, 0, system.state_dim))
        observed_out = np.zeros((count, 0, system.state_dim))
        controls_out = np.zeros((count, 0, system.control_dim))

    return TrajectoryBatch(
        states=states_out,
        controls=controls_out,
        safe=safe,
        steps=steps,
        energy=energy,
        violation_step=violation_step,
        observed_states=observed_out,
    )


def rollout(
    system: ControlSystem,
    controller: Controller,
    initial_state: Sequence[float],
    horizon: Optional[int] = None,
    perturbation: Optional[PerturbationFn] = None,
    rng: RngLike = None,
    stop_on_violation: bool = True,
) -> Trajectory:
    """Simulate one closed loop from ``initial_state`` for ``horizon`` steps.

    The ``N = 1`` case of :func:`rollout_batch`.  See :func:`rollout_batch`
    for the parameters and the module docstring for the threat model and
    the ``stop_on_violation`` semantics.
    """

    initial_state = np.asarray(initial_state, dtype=np.float64)
    batch = rollout_batch(
        system,
        controller,
        initial_state[None, :],
        horizon=horizon,
        perturbation=perturbation,
        rng=rng,
        stop_on_violation=stop_on_violation,
    )
    return batch.trajectory(0)


def sample_initial_states(system: ControlSystem, count: int, rng: RngLike = None) -> np.ndarray:
    """Draw ``count`` initial states uniformly from ``X0``."""

    if count <= 0:
        raise ValueError("count must be positive")
    return system.initial_set.sample(get_rng(rng), count=count)
