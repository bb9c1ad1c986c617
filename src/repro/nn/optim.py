"""Gradient-descent optimisers: SGD (with momentum) and Adam."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.autodiff import Tensor


class Optimizer:
    """Base optimiser holding a list of parameter tensors."""

    def __init__(self, parameters: Sequence[Tensor]):
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer created with no parameters")

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def apply_gradients(self, grads: Sequence[np.ndarray], max_grad_norm: Optional[float] = None) -> None:
        """Store ``grads`` (one per parameter, in order) in ``.grad``, clip
        their global norm to ``max_grad_norm`` when given, and step."""

        for parameter, grad in zip(self.parameters, grads):
            parameter.grad = grad
        if max_grad_norm is not None:
            self.clip_grad_norm(max_grad_norm)
        self.step()

    def clip_grad_norm(self, max_norm: float) -> float:
        """Clip the global gradient norm in place and return the pre-clip norm."""

        total = 0.0
        for parameter in self.parameters:
            if parameter.grad is not None:
                total += float(np.sum(parameter.grad ** 2))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0.0:
            scale = max_norm / norm
            for parameter in self.parameters:
                if parameter.grad is not None:
                    parameter.grad = parameter.grad * scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Sequence[Tensor],
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def step(self) -> None:
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            if self.momentum:
                if self._velocity[index] is None:
                    self._velocity[index] = np.zeros_like(parameter.data)
                self._velocity[index] = self.momentum * self._velocity[index] + grad
                grad = self._velocity[index]
            parameter.data = parameter.data - self.lr * grad


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba), the default for every training loop."""

    def __init__(
        self,
        parameters: Sequence[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._sizes = [parameter.data.size for parameter in self.parameters]
        # First/second moments of every parameter, concatenated in order.
        self._m = np.zeros(sum(self._sizes))
        self._v = np.zeros(sum(self._sizes))

    def step(self) -> None:
        """One Adam update over all parameters as a single flat array chain.

        The gradients (and data) of every parameter with a ``.grad`` are
        concatenated and run through one elementwise chain, the same float64
        ops per element as a per-parameter loop, so the update is bit for bit
        the per-tensor one.  Each ``parameter.data`` is then *rebound* to its
        slice of the fresh result -- never written in place -- so an array
        captured before the step keeps its values.
        """

        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        live = [parameter for parameter in self.parameters if parameter.grad is not None]
        if not live:
            return
        grad = np.concatenate([parameter.grad.ravel() for parameter in live])
        data = np.concatenate([parameter.data.ravel() for parameter in live])
        if len(live) == len(self.parameters):
            span = slice(None)
        else:
            span = np.repeat([parameter.grad is not None for parameter in self.parameters], self._sizes)
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        m = self.beta1 * self._m[span] + (1.0 - self.beta1) * grad
        v = self.beta2 * self._v[span] + (1.0 - self.beta2) * grad ** 2
        self._m[span] = m
        self._v[span] = v
        updated = data - self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        start = 0
        for parameter in live:
            stop = start + parameter.data.size
            parameter.data = updated[start:stop].reshape(parameter.data.shape)
            start = stop
