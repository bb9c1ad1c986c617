"""Fast Gradient Sign Method attacks on the controller input.

Two uses, matching Algorithm 1 and Section IV:

* during robust distillation, FGSM generates the adversarial training state
  ``s + Delta * sign(grad_s l(kappa*(s; q), u))`` (that code path lives in
  :mod:`repro.core.distillation`, on :meth:`repro.nn.MLP.mse_gradients`);
* during evaluation, FGSM perturbs the measured state so as to maximally
  change the controller's output, which is the "optimized adversarial
  attack" of Table II.  :class:`FGSMAttack` implements the evaluation-time
  attacker as a perturbation callable for :func:`repro.systems.rollout`.

For neural controllers the input gradient is the network's closed-form VJP
(:meth:`repro.nn.MLP._vjp`); for arbitrary (black-box) controllers a
finite-difference fallback estimates the same sign vector.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.experts.base import Controller, NeuralController
from repro.systems.simulation import batch_controls
from repro.utils.seeding import get_rng

ControllerLike = Union[Controller, Callable[[np.ndarray], np.ndarray]]


def _control_change_gradient_batch(
    controller: ControllerLike, states: np.ndarray, epsilon: float = 1e-4
) -> np.ndarray:
    """Per-row gradient of the control-change objective for an ``(N, state_dim)`` batch.

    At the unperturbed point the gradient of ``0.5 * ||kappa(s') - kappa(s)||^2``
    is ``J(s)^T (kappa(s) - kappa(s)) = 0``, so instead we use the gradient of
    the output norm direction: the attack wants the perturbation that changes
    the control the most, which for a locally-linear controller is the top
    right-singular direction of the Jacobian.  We approximate it cheaply with
    the gradient of ``c^T kappa(s)`` where ``c`` is the sign of the nominal
    control (pushing the control away from its current value).

    Neural controllers get their per-row input gradients from one VJP over
    the whole batch, with ``c`` (times the output scale, when the controller
    rescales its output) as the upstream gradient; black-box controllers
    fall back to central finite differences, vectorised so each state
    dimension costs two batched controller evaluations instead of ``2 N``
    scalar ones.
    """

    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    nominal = batch_controls(controller, states)
    direction = np.sign(nominal)
    direction[direction == 0.0] = 1.0

    if isinstance(controller, NeuralController):
        saved: list = []
        controller.network._run(states, saved)
        upstream = direction if controller._scale is None else direction * controller._scale
        gradient, _ = controller.network._vjp(saved, upstream, True)
        return gradient

    gradient = np.zeros_like(states, dtype=np.float64)
    for index in range(states.shape[1]):
        plus = states.copy()
        minus = states.copy()
        plus[:, index] += epsilon
        minus[:, index] -= epsilon
        value_plus = np.sum(direction * batch_controls(controller, plus), axis=1)
        value_minus = np.sum(direction * batch_controls(controller, minus), axis=1)
        gradient[:, index] = (value_plus - value_minus) / (2.0 * epsilon)
    return gradient


def fgsm_perturbation(
    controller: ControllerLike,
    state: np.ndarray,
    bound: Union[float, Sequence[float]],
    maximize_control: bool = True,
) -> np.ndarray:
    """One FGSM step: ``s + bound * sign(grad)`` against the controller.

    ``maximize_control=True`` pushes the control further in its current
    direction (wasting energy and overshooting); ``False`` pushes against it
    (making the controller under-react near the safety boundary).  A
    single-row wrapper over :func:`fgsm_perturbation_batch`.
    """

    state = np.asarray(state, dtype=np.float64)
    return fgsm_perturbation_batch(
        controller, state[None, :], bound, maximize_control=maximize_control
    )[0]


def fgsm_perturbation_batch(
    controller: ControllerLike,
    states: np.ndarray,
    bound: Union[float, Sequence[float]],
    maximize_control: bool = True,
) -> np.ndarray:
    """Row-wise :func:`fgsm_perturbation` for an ``(N, state_dim)`` batch."""

    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    bound = np.atleast_1d(np.asarray(bound, dtype=np.float64))
    gradient = _control_change_gradient_batch(controller, states)
    sign = np.sign(gradient)
    sign[sign == 0.0] = 1.0
    if not maximize_control:
        sign = -sign
    return states + bound * sign


class FGSMAttack:
    """Evaluation-time FGSM attacker usable as a rollout perturbation.

    Parameters
    ----------
    controller:
        The controller under attack (white box, as in the paper).
    bound:
        Per-dimension perturbation bound ``Delta`` (typically 10-15 % of the
        state bound; see :func:`repro.attacks.perturbation_budget`).
    probability:
        Probability of attacking at each step (1.0 = attack every step).
    alternate:
        When ``True`` the attack direction alternates between amplifying and
        opposing the control, which destabilises controllers with large
        Lipschitz constants more effectively.
    maximize_control:
        Fixed attack direction used when ``alternate`` is ``False``:
        ``True`` amplifies the control (wasting energy and overshooting),
        ``False`` opposes it, making the controller under-react -- the
        stronger direction against weak stabilising controllers.
    """

    def __init__(
        self,
        controller: ControllerLike,
        bound: Union[float, Sequence[float]],
        probability: float = 1.0,
        alternate: bool = True,
        maximize_control: bool = True,
    ):
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.controller = controller
        self.bound = np.atleast_1d(np.asarray(bound, dtype=np.float64))
        self.probability = float(probability)
        self.alternate = alternate
        self.maximize_control = bool(maximize_control)
        self._step = 0

    def _direction(self) -> bool:
        if self.alternate:
            return (self._step % 2) == 0
        return self.maximize_control

    def __call__(self, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        rng = get_rng(rng)
        self._step += 1
        if self.probability < 1.0 and rng.uniform() > self.probability:
            return state
        return fgsm_perturbation(
            self.controller, state, self.bound, maximize_control=self._direction()
        )

    def perturb_batch(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Attack an ``(N, state_dim)`` batch of measurements at one time step.

        The step counter (and with it the ``alternate`` direction) advances
        once per *batch* step, so every batch member sees the same attack
        direction at a given simulation time -- with ``N = 1`` this consumes
        the random stream exactly like a scalar ``__call__``.
        """

        rng = get_rng(rng)
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        self._step += 1
        if self.probability < 1.0:
            attacked = rng.uniform(size=len(states)) <= self.probability
            if not np.any(attacked):
                return states
            result = states.copy()
            result[attacked] = fgsm_perturbation_batch(
                self.controller, states[attacked], self.bound, maximize_control=self._direction()
            )
            return result
        return fgsm_perturbation_batch(
            self.controller, states, self.bound, maximize_control=self._direction()
        )

    def reset(self) -> None:
        self._step = 0
