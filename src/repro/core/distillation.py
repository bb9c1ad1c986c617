"""Teacher-student distillation of the mixed controller (Section III-B).

Two distillers share the same dataset and student architecture:

* :class:`DirectDistiller` -- plain MSE regression of the student onto the
  teacher, producing the paper's ``kappa_D`` baseline.
* :class:`RobustDistiller` -- the paper's hybrid probabilistic learning
  process (Algorithm 1 lines 11-15): with probability ``p`` the training
  batch is replaced by FGSM adversarial examples
  ``s + Delta * sign(grad_s l(kappa*(s; q), u))`` and the loss always carries
  the L2 regulariser ``lambda * ||q||_2^2``, solving the min-max problem

  .. math:: \\min_q ( \\max_{||\\delta|| \\le \\Delta}
            l(\\kappa^*(s + \\delta; q), u) + \\lambda ||q||_2^2 )

  which empirically drives the student's Lipschitz constant down and with it
  improves robustness and verification time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import Tensor
from repro.core.config import DistillationConfig
from repro.experts.base import Controller, NeuralController
from repro.nn.layers import Activation, Linear
from repro.nn.network import MLP
from repro.nn.optim import Adam
from repro.systems.base import ControlSystem
from repro.systems.simulation import batch_controls, rollout_batch, sample_initial_states
from repro.utils.logging import TrainingLogger
from repro.utils.seeding import RngLike, get_rng


@dataclass
class DistillationDataset:
    """Supervised pairs ``(state, teacher control)`` for the regression."""

    states: np.ndarray
    controls: np.ndarray

    def __post_init__(self) -> None:
        self.states = np.atleast_2d(np.asarray(self.states, dtype=np.float64))
        self.controls = np.atleast_2d(np.asarray(self.controls, dtype=np.float64))
        if len(self.states) != len(self.controls):
            raise ValueError("states and controls must have the same length")

    def __len__(self) -> int:
        return len(self.states)

    def split(self, validation_fraction: float = 0.1, rng: RngLike = None) -> Tuple["DistillationDataset", "DistillationDataset"]:
        """Split into train/validation subsets."""

        if not 0.0 <= validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        order = get_rng(rng).permutation(len(self))
        cut = int(len(self) * (1.0 - validation_fraction))
        train_index, valid_index = order[:cut], order[cut:]
        return (
            DistillationDataset(self.states[train_index], self.controls[train_index]),
            DistillationDataset(self.states[valid_index], self.controls[valid_index]),
        )


def collect_distillation_dataset(
    system: ControlSystem,
    teacher: Controller,
    size: int,
    trajectory_fraction: float = 0.5,
    rng: RngLike = None,
    batch_size: int = 1,
) -> DistillationDataset:
    """Build the regression dataset by querying the teacher.

    A ``trajectory_fraction`` share of the states comes from closed-loop
    teacher rollouts (so the student sees the state distribution it will
    operate in) and the rest from uniform sampling of the safe region (so the
    student generalises over all of ``X``, which the verification step
    requires).

    ``batch_size`` is the vectorization width: how many teacher rollouts
    advance in lockstep (via :func:`repro.systems.simulation.rollout_batch`)
    and how many states each batched teacher-label query covers.  The
    default ``1`` consumes the random stream exactly like the historical
    per-trajectory/per-state loops (bit-identical datasets for the same
    seed); larger values are statistically equivalent, not bitwise (the
    stream is consumed step-major across the lockstep rollouts).
    """

    if size <= 0:
        raise ValueError("size must be positive")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    generator = get_rng(rng)
    trajectory_count = int(size * trajectory_fraction)
    states: list = []

    while len(states) < trajectory_count:
        remaining = trajectory_count - len(states)
        # One safe trajectory contributes at most horizon + 1 states; roll
        # just enough members in lockstep to plausibly cover the remainder.
        chunk = min(batch_size, max(1, -(-remaining // (system.horizon + 1))))
        initial_states = sample_initial_states(system, chunk, rng=generator)
        batch = rollout_batch(system, teacher, initial_states, rng=generator)
        for index in range(chunk):
            trajectory = batch.trajectory(index)
            safe_mask = system.is_safe_batch(trajectory.states)
            for state in trajectory.states[safe_mask][: trajectory_count - len(states)]:
                states.append(state)
            if len(states) >= trajectory_count:
                break

    remaining = size - len(states)
    if remaining > 0:
        uniform = system.safe_region.sample(generator, count=remaining)
        states.extend(list(uniform))

    states = np.asarray(states[:size])
    controls = np.concatenate(
        [
            system.clip_control_batch(batch_controls(teacher, states[start : start + batch_size]))
            for start in range(0, len(states), batch_size)
        ],
        axis=0,
    )
    return DistillationDataset(states, controls)


class _BaseDistiller:
    """Shared training-loop machinery for both distillers."""

    name = "distiller"

    def __init__(self, system: ControlSystem, config: Optional[DistillationConfig] = None, rng: RngLike = None):
        self.system = system
        self.config = config if config is not None else DistillationConfig()
        self._rng = get_rng(rng if rng is not None else self.config.seed)
        self.logger = TrainingLogger(self.name, verbose=self.config.verbose)
        self.student: Optional[MLP] = None

    # -- hooks -----------------------------------------------------------------
    def _draw_epoch(self, rng: np.random.Generator, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """One epoch's draws from ``rng``: the minibatch order of a ``size``-row
        dataset, then one adversarial-branch flag per minibatch.

        :meth:`distill` draws every epoch through here, before its batches,
        so calling it ``epochs`` times on a copy of the generator advances
        the copy exactly as far as a real :meth:`distill` would.  Plain
        regression draws no branch coins.
        """

        order = rng.permutation(size)
        return order, np.zeros(-(-size // self.config.batch_size), dtype=bool)

    def _batch_gradients(
        self,
        states: np.ndarray,
        controls: np.ndarray,
        student: MLP,
        parameters: Sequence[Tensor],
        adversarial: bool,
    ) -> Tuple[float, List[np.ndarray]]:
        """Minibatch loss and the gradient of each of ``parameters`` (which is
        ``student.parameters()``, hoisted out of the per-batch loop), computed
        without a tape; ``adversarial`` is the batch's flag from
        :meth:`_draw_epoch`."""

        raise NotImplementedError

    # -- training ----------------------------------------------------------------
    def _build_student(self) -> MLP:
        return MLP(
            self.system.state_dim,
            self.system.control_dim,
            hidden_sizes=self.config.hidden_sizes,
            activation=self.config.activation,
            seed=self.config.seed,
        )

    def distill(self, dataset: DistillationDataset, epochs: Optional[int] = None) -> NeuralController:
        """Train the student on the dataset and return it as a controller."""

        student = self._build_student()
        parameters = student.parameters()
        optimizer = Adam(parameters, lr=self.config.learning_rate)
        epochs = epochs if epochs is not None else self.config.epochs
        batch_size = self.config.batch_size
        for _ in range(epochs):
            epoch_losses = []
            order, adversarial = self._draw_epoch(self._rng, len(dataset))
            for batch, start in enumerate(range(0, len(dataset), batch_size)):
                index = order[start : start + batch_size]
                loss, grads = self._batch_gradients(
                    dataset.states[index], dataset.controls[index], student, parameters, adversarial[batch]
                )
                optimizer.apply_gradients(grads)
                epoch_losses.append(float(loss))
            self.logger.log(
                loss=float(np.mean(epoch_losses)) if epoch_losses else 0.0,
                lipschitz=_layer_norm_lipschitz(student),
            )
        self.student = student
        return NeuralController(student, name=self.controller_name())

    def controller_name(self) -> str:
        return self.name

    def evaluate_regression_error(self, dataset: DistillationDataset) -> float:
        """Mean squared regression error of the trained student on a dataset."""

        if self.student is None:
            raise RuntimeError("distill() must be called before evaluation")
        predictions = np.atleast_2d(self.student.predict(dataset.states))
        return float(np.mean((predictions - dataset.controls) ** 2))


class DirectDistiller(_BaseDistiller):
    """Plain regression distillation producing the ``kappa_D`` baseline."""

    name = "direct-distillation"

    def controller_name(self) -> str:
        return "kappaD"

    def _batch_gradients(
        self,
        states: np.ndarray,
        controls: np.ndarray,
        student: MLP,
        parameters: Sequence[Tensor],
        adversarial: bool,
    ) -> Tuple[float, List[np.ndarray]]:
        loss, _, grads = student.mse_gradients(states, controls)
        return loss, grads


class RobustDistiller(_BaseDistiller):
    """Probabilistic adversarial training + L2 regularisation (``kappa*``)."""

    name = "robust-distillation"

    def controller_name(self) -> str:
        return "kappa_star"

    def perturbation_bound(self) -> np.ndarray:
        """Delta: the FGSM bound as a fraction of the state value bound."""

        return self.config.perturbation_fraction * self.system.state_scale()

    def _fgsm_states(
        self, states: np.ndarray, controls: np.ndarray, student: MLP
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Algorithm 1 line 13: ``delta = Delta * sign(grad_s l(kappa*(s), u))``.

        Also returns the clean-loss parameter gradients that the same
        backward pass computes: :meth:`_batch_gradients` adds them to the
        adversarial step's gradients (a known defect kept so trained weights
        do not change; see ROADMAP).
        """

        _, input_gradient, clean_grads = student.mse_gradients(states, controls, input_grad=True)
        gradient_sign = np.sign(input_gradient)
        gradient_sign[gradient_sign == 0.0] = 1.0
        delta = self.perturbation_bound() * gradient_sign
        return states + delta, clean_grads

    def _draw_epoch(self, rng: np.random.Generator, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """The permutation, then line 12's coin per minibatch: ``z ~ U[0, 1]``,
        the adversarial branch when ``z <= p``."""

        order, flags = super()._draw_epoch(rng, size)
        return order, rng.uniform(size=len(flags)) <= self.config.adversarial_probability

    def _batch_gradients(
        self,
        states: np.ndarray,
        controls: np.ndarray,
        student: MLP,
        parameters: Sequence[Tensor],
        adversarial: bool,
    ) -> Tuple[float, List[np.ndarray]]:
        """MSE + ``lambda * ||q||_2^2`` with the gradients summed in the
        order of the composed tape: ``clean + ((mse + lambda q) + lambda q)``,
        ``clean`` being the FGSM pass's leftover on the adversarial branch."""

        clean_grads = None
        if adversarial:
            states, clean_grads = self._fgsm_states(states, controls, student)
        loss, _, grads = student.mse_gradients(states, controls)
        # Line 14: + lambda * ||q||_2^2
        weight = self.config.l2_weight
        penalty = np.asarray(0.0)
        for index, parameter in enumerate(parameters):
            array = parameter.data
            penalty = penalty + (array * array).sum()
            share = weight * array
            grads[index] = (grads[index] + share) + share
            if clean_grads is not None:
                grads[index] = clean_grads[index] + grads[index]
        return loss + weight * penalty, grads


def _layer_norm_lipschitz(network: MLP) -> float:
    """The footnote-1 bound with exact layer norms, for the per-epoch log.

    Unlike :func:`repro.nn.lipschitz.network_lipschitz` it keeps no memo: the
    weights change every epoch, so a memo entry would never be read again.
    """

    constant = 1.0
    for layer in network.layers:
        if isinstance(layer, Linear):
            constant *= float(np.linalg.norm(layer.weight.data, 2))
        elif isinstance(layer, Activation):
            constant *= layer.lipschitz_constant
    return constant
