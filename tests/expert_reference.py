"""Frozen one-state-at-a-time reference of the nonlinear expert kernels.

A helper module, not a test module (pytest does not collect it).  It keeps
the per-row formulas the feedback-linearisation and polynomial experts used
to ship beside their batched ``batch_control``, so the tests can pin each
kernel to them bit for bit:

* :func:`vanderpol_feedback_linearization` -- ``u = -(1 - s1^2) mu s2 + s1
  - k1 s1 - k2 s2`` on one ``np.float64`` state, the square through libm
  ``pow``;
* :func:`pendulum_feedback_linearization` -- ``u = m l^2 (-(g / l)
  sin(theta) - k1 theta - k2 omega)``;
* :func:`polynomial` -- each output's monomials evaluated with a scalar
  ``np.prod`` and summed in order from ``0.0``.

:func:`reference_controls` stacks one of them over the rows of a batch.
"""

from __future__ import annotations

import numpy as np

from repro.experts.feedback_linearization import (
    PendulumFeedbackLinearization,
    VanDerPolFeedbackLinearization,
)
from repro.experts.polynomial import PolynomialController


def vanderpol_feedback_linearization(expert: VanDerPolFeedbackLinearization, state: np.ndarray) -> np.ndarray:
    s1, s2 = state
    cancel = -(1.0 - s1**2) * expert.mu * s2 + s1
    stabilise = -expert.k1 * s1 - expert.k2 * s2
    return np.array([cancel + stabilise])


def pendulum_feedback_linearization(expert: PendulumFeedbackLinearization, state: np.ndarray) -> np.ndarray:
    theta, omega = state
    inertia = expert.mass * expert.length**2
    cancel = -(expert.gravity / expert.length) * np.sin(theta)
    stabilise = -expert.k1 * theta - expert.k2 * omega
    return np.array([inertia * (cancel + stabilise)])


def polynomial(expert: PolynomialController, state: np.ndarray) -> np.ndarray:
    outputs = []
    for monomials in expert._polynomials:
        value = 0.0
        for coefficient, exponents in monomials:
            value += coefficient * float(np.prod(state**exponents))
        outputs.append(value)
    return np.asarray(outputs)


_FORMULAS = {
    VanDerPolFeedbackLinearization: vanderpol_feedback_linearization,
    PendulumFeedbackLinearization: pendulum_feedback_linearization,
    PolynomialController: polynomial,
}


def reference_controls(expert, states: np.ndarray) -> np.ndarray:
    """The expert's per-row formula on each row of ``states``, stacked ``(N, m)``."""

    formula = _FORMULAS[type(expert)]
    return np.stack([formula(expert, state) for state in np.atleast_2d(states)])
