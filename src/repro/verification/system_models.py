"""Interval (inclusion-function) models of the plants' dynamics.

Reachability needs to push a *box* of states (plus a control interval and
the disturbance bound) through one step of each plant.  Natural interval
extensions of the dynamics equations are implemented here, keeping the
plant classes themselves purely concrete.

Which inclusion function a plant gets is decided by the scenario catalog:
every registered :class:`~repro.scenarios.ScenarioSpec` carries an
``interval_dynamics`` hook, and :func:`interval_dynamics_batch` looks the
plant up by its ``name``.  The functions below are the hooks the built-in
catalog registers (one per bundled plant); a plant with no registered hook
cannot be verified and raises :class:`MissingInclusionFunction`.

The inclusion functions are written **batched-native**: every state
component is addressed with ``[..., i]`` slices, so the same formulas push
an ``(N, dim)`` stack of state boxes (one row per invariant-set cell or
verification query) through the dynamics in one vectorised pass; every
operation is elementwise, so a row's image does not depend on the rows
stacked with it, and one box is the ``N = 1`` stack.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.systems.base import ControlSystem
from repro.verification.intervals import Interval


class MissingInclusionFunction(LookupError):
    """The plant has no registered interval inclusion function to verify with."""


def _stack_components(components: Sequence[Interval]) -> Interval:
    """Stack per-dimension intervals along the last axis: ``(N,) -> (N, dim)``."""

    return Interval(
        np.stack([component.lower for component in components], axis=-1),
        np.stack([component.upper for component in components], axis=-1),
    )


def interval_dynamics_batch(
    system: ControlSystem,
    states: Interval,
    controls: Interval,
    disturbance: Interval,
) -> Interval:
    """One-step interval image for an ``(N, state_dim)`` stack of state boxes.

    ``controls`` has shape ``(N, control_dim)``; ``disturbance`` is the
    shared ``(state_dim,)`` (or per-plant) disturbance bound, broadcast
    across the stack.  Returns an ``(N, state_dim)`` interval.

    The inclusion function is resolved through the scenario registry by the
    plant's ``name``; a plant without one raises
    :class:`MissingInclusionFunction`.
    """

    from repro.scenarios import find_scenario

    name = getattr(system, "name", None)
    spec = find_scenario(name)
    if spec is None or spec.interval_dynamics is None:
        raise MissingInclusionFunction(
            f"no interval inclusion function registered for system {name!r}: "
            "register one with register_scenario(..., interval_dynamics=...) to verify it"
        )
    return spec.interval_dynamics(system, states, controls, disturbance)


def vanderpol_interval(
    system, state: Interval, control: Interval, disturbance: Interval
) -> Interval:
    s1 = state[..., 0]
    s2 = state[..., 1]
    u = control[..., 0]
    omega = disturbance[..., 0] if len(disturbance) else Interval.point(0.0)
    tau = system.dt
    next_s1 = s1 + s2.scale(tau)
    nonlinear = (Interval.point(1.0) - s1.square()) * s2 * system.mu
    next_s2 = s2 + (nonlinear - s1 + u).scale(tau) + omega
    return _stack_components([next_s1, next_s2])


def three_dimensional_interval(
    system, state: Interval, control: Interval, disturbance: Interval
) -> Interval:
    x, y, z = state[..., 0], state[..., 1], state[..., 2]
    u = control[..., 0]
    tau = system.dt
    next_x = x + (y + z.square().scale(0.5)).scale(tau)
    next_y = y + z.scale(tau)
    next_z = z + u.scale(tau)
    result = _stack_components([next_x, next_y, next_z])
    if disturbance.lower.shape[-1] == 3:
        result = result + disturbance
    return result


def cartpole_interval(
    system, state: Interval, control: Interval, disturbance: Interval
) -> Interval:
    position, velocity = state[..., 0], state[..., 1]
    angle, angular_velocity = state[..., 2], state[..., 3]
    force = control[..., 0]
    tau = system.dt
    sin_theta = angle.sin()
    cos_theta = angle.cos()

    psi = (force + (angular_velocity.square() * sin_theta).scale(system.pole_mass * system.pole_length)).scale(
        1.0 / system.total_mass
    )
    numerator = sin_theta.scale(system.gravity) - cos_theta * psi
    denominator_interval = (
        Interval.point(4.0 / 3.0) - cos_theta.square().scale(system.pole_mass / system.total_mass)
    ).scale(system.pole_length)
    # Within the safe angle range the denominator is strictly positive, so
    # dividing by its lower/upper bounds yields a valid enclosure.
    inverse = Interval(1.0 / denominator_interval.upper, 1.0 / denominator_interval.lower)
    theta_acc = numerator * inverse
    s_acc = psi - (cos_theta * theta_acc).scale(system.pole_mass * system.pole_length / system.total_mass)

    next_state = _stack_components(
        [
            position + velocity.scale(tau),
            velocity + s_acc.scale(tau),
            angle + angular_velocity.scale(tau),
            angular_velocity + theta_acc.scale(tau),
        ]
    )
    if disturbance.lower.shape[-1] == 4:
        next_state = next_state + disturbance
    return next_state


def pendulum_interval(
    system, state: Interval, control: Interval, disturbance: Interval
) -> Interval:
    theta = state[..., 0]
    omega = state[..., 1]
    u = control[..., 0]
    w = disturbance[..., 0] if len(disturbance) else Interval.point(0.0)
    tau = system.dt
    accel = (
        theta.sin().scale(system.gravity / system.length)
        - omega.scale(system.damping)
        + u.scale(1.0 / system.inertia)
    )
    next_theta = theta + omega.scale(tau)
    next_omega = omega + accel.scale(tau) + w
    return _stack_components([next_theta, next_omega])


def acc_interval(
    system, state: Interval, control: Interval, disturbance: Interval
) -> Interval:
    gap = state[..., 0]
    velocity = state[..., 1]
    acceleration = state[..., 2]
    u = control[..., 0]
    w = disturbance[..., 0] if len(disturbance) else Interval.point(0.0)
    tau = system.dt
    next_gap = gap + velocity.scale(tau)
    next_velocity = velocity + acceleration.scale(-tau) + w
    next_acceleration = acceleration.scale(1.0 - tau / system.lag) + u.scale(tau / system.lag)
    return _stack_components([next_gap, next_velocity, next_acceleration])
