"""Feedback-linearising experts for the feedback-linearizable plants.

For the Van der Pol oscillator, cancel the nonlinearity and impose linear
error dynamics:

``u = -(1 - s1^2) * mu * s2 + s1 - k1 * s1 - k2 * s2``

so that the closed loop behaves as ``s2(t+1) = s2 + tau (-k1 s1 - k2 s2)``.
For the inverted pendulum, cancel gravity the same way:

``u = m l^2 * (-(g / l) * sin(theta) - k1 * theta - k2 * omega)``.

With moderate gains these are strong (high safe-rate) but energy-hungry and
high-Lipschitz experts -- the κ1 role in Table I.
"""

from __future__ import annotations

import numpy as np

from repro.experts.base import Controller


class VanDerPolFeedbackLinearization(Controller):
    """Exactly-linearising state feedback with tunable linear gains."""

    def __init__(self, k1: float = 4.0, k2: float = 6.0, mu: float = 1.0, name: str = "feedback-linearization"):
        self.k1 = float(k1)
        self.k2 = float(k2)
        self.mu = float(mu)
        self.name = name

    def batch_control(self, states: np.ndarray) -> np.ndarray:
        """The square is ``np.float_power(s1, 2.0)``, which goes through libm
        ``pow`` like the scalar ``s1**2`` of the per-row formula; the array
        ``s1**2`` is a plain multiply and rounds differently on a few rows
        in 10^5."""

        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        s1 = states[:, 0]
        s2 = states[:, 1]
        cancel = -(1.0 - np.float_power(s1, 2.0)) * self.mu * s2 + s1
        stabilise = -self.k1 * s1 - self.k2 * s2
        return (cancel + stabilise)[:, None]


class PendulumFeedbackLinearization(Controller):
    """Gravity-cancelling torque controller for the inverted pendulum.

    The closed loop becomes the linear error dynamics
    ``omega(t+1) = omega + tau * (-k1 * theta - k2 * omega)`` (up to the
    plant's damping and disturbance): strong everywhere inside the safe
    region at the price of spending torque on the gravity-cancellation term.
    """

    def __init__(
        self,
        k1: float = 8.0,
        k2: float = 4.0,
        mass: float = 1.0,
        length: float = 1.0,
        gravity: float = 9.8,
        name: str = "pendulum-feedback-linearization",
    ):
        self.k1 = float(k1)
        self.k2 = float(k2)
        self.mass = float(mass)
        self.length = float(length)
        self.gravity = float(gravity)
        self.name = name

    def batch_control(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        theta = states[:, 0]
        omega = states[:, 1]
        inertia = self.mass * self.length**2
        cancel = -(self.gravity / self.length) * np.sin(theta)
        stabilise = -self.k1 * theta - self.k2 * omega
        return (inertia * (cancel + stabilise))[:, None]
