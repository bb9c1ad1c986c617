"""Functional helpers built on top of :class:`repro.autodiff.Tensor`.

These are convenience wrappers used across the neural-network, RL and
distillation code: losses, probability-density helpers for Gaussian policies,
and a finite-difference gradient checker used by the test suite.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autodiff.tensor import ArrayLike, Tensor, _unbroadcast

_LOG_2PI = float(np.log(2.0 * np.pi))


def mse_loss(prediction: Tensor, target: ArrayLike) -> Tensor:
    """Mean squared error over every element, as one tape node.

    The VJP replays the ``sub -> mul -> mean`` tape it replaces: ``mean``
    hands each element ``g / n``, the self-product ``diff * diff`` sends
    ``(g / n) * diff`` to ``diff`` once per operand, summed in that order, and
    ``sub`` passes the sum to the prediction and its negation to the target --
    bit for bit the gradients of the composed ops.
    """

    target = Tensor.ensure(target)
    diff = prediction.data - target.data
    data = (diff * diff).mean()

    def backward_fn(grad: np.ndarray):
        share = np.asarray(grad, dtype=np.float64) / diff.size * diff
        total = share + share
        return (
            _unbroadcast(total, prediction.data.shape),
            _unbroadcast(-total, target.data.shape) if target.requires_grad else None,
        )

    return Tensor._from_op(data, (prediction, target), backward_fn, "mse")


def huber_loss(prediction: Tensor, target: ArrayLike, delta: float = 1.0) -> Tensor:
    """Smooth L1 (Huber) loss, useful for the DDPG critic.

    Implemented without branching on tensor values by combining the quadratic
    and linear regimes with a clip.
    """

    target = Tensor.ensure(target)
    diff = (prediction - target).abs()
    quadratic = diff.clip(0.0, delta)
    linear = diff - quadratic
    return (quadratic * quadratic * 0.5 + linear * delta).mean()


def l2_penalty(parameters: Sequence[Tensor]) -> Tensor:
    """Sum of squared parameter entries, the ``||q||_2^2`` regulariser.

    One tape node whose parents list every parameter twice, once per operand
    of the ``p * p`` it replaces: each copy receives ``g * p``, so a weight's
    gradient accumulates as ``(other contributions + g * p) + g * p``, the
    order (and therefore the bits) of the composed ``mul -> sum -> add`` tape.
    """

    parameters = list(parameters)
    arrays = [parameter.data for parameter in parameters]
    data = np.asarray(0.0)
    for array in arrays:
        data = data + (array * array).sum()

    def backward_fn(grad: np.ndarray):
        contributions = []
        for parameter, array in zip(parameters, arrays):
            share = grad * array if parameter.requires_grad else None
            contributions += [share, share]
        return contributions

    doubled = [parameter for parameter in parameters for _ in range(2)]
    return Tensor._from_op(data, doubled, backward_fn, "l2")


def gaussian_log_prob(actions: ArrayLike, mean: Tensor, log_std: Tensor) -> Tensor:
    """Log density of a diagonal Gaussian, summed over the action dimension.

    Parameters
    ----------
    actions:
        Batch of sampled actions, shape ``(batch, action_dim)``.
    mean:
        Policy mean, same shape as ``actions``.
    log_std:
        Log standard deviation, broadcastable to ``actions``.
    """

    actions = Tensor.ensure(actions)
    std = log_std.exp()
    z = (actions - mean) / std
    per_dim = z * z * (-0.5) - log_std - 0.5 * _LOG_2PI
    return per_dim.sum(axis=-1)


def gaussian_entropy(log_std: Tensor, action_dim: int) -> Tensor:
    """Entropy of a diagonal Gaussian with the given log standard deviation."""

    return log_std.sum() + 0.5 * action_dim * (1.0 + _LOG_2PI)


def gaussian_kl(mean_old: ArrayLike, log_std_old: ArrayLike, mean_new: Tensor, log_std_new: Tensor) -> Tensor:
    """KL divergence ``KL(old || new)`` between diagonal Gaussians.

    The old distribution is treated as constant (no gradient flows into it),
    matching the PPO adaptive-KL penalty of the paper's Algorithm 1 line 10.
    """

    mean_old = Tensor.ensure(mean_old).detach()
    log_std_old = Tensor.ensure(log_std_old).detach()
    var_old = (log_std_old * 2.0).exp()
    var_new = (log_std_new * 2.0).exp()
    term = (var_old + (mean_old - mean_new) * (mean_old - mean_new)) / (var_new * 2.0)
    per_dim = log_std_new - log_std_old + term - 0.5
    return per_dim.sum(axis=-1).mean()


def numerical_gradient(
    function: Callable[[np.ndarray], float],
    point: np.ndarray,
    epsilon: float = 1e-6,
) -> np.ndarray:
    """Central finite differences of a scalar function, for gradient checks."""

    point = np.asarray(point, dtype=np.float64)
    grad = np.zeros_like(point)
    flat = point.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = function(point)
        flat[index] = original - epsilon
        minus = function(point)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2.0 * epsilon)
    return grad


def check_gradient(
    function: Callable[[Tensor], Tensor],
    point: np.ndarray,
    epsilon: float = 1e-6,
    tolerance: float = 1e-4,
) -> bool:
    """Compare autodiff gradients against finite differences.

    ``function`` must map a tensor to a scalar tensor.  Returns ``True`` when
    the maximum absolute discrepancy is within ``tolerance``.
    """

    point = np.asarray(point, dtype=np.float64)
    tensor = Tensor(point, requires_grad=True)
    output = function(tensor)
    output.backward()
    analytic = tensor.grad

    def scalar_function(values: np.ndarray) -> float:
        return float(function(Tensor(values)).data)

    numeric = numerical_gradient(scalar_function, point, epsilon=epsilon)
    return bool(np.max(np.abs(analytic - numeric)) <= tolerance)
