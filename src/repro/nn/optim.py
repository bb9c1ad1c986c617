"""Gradient-descent optimisers: SGD (with momentum) and Adam.

An optimiser lays its parameters out as one flat vector
(:class:`FlatParameters`): one contiguous gradient vector, whose
per-parameter views the training losses hand :meth:`repro.nn.MLP._vjp` as
``out=``, and -- after the first Adam step -- one contiguous parameter
vector that every ``.data`` is a view of.  Adam, gradient clipping and the
distillers' L2 term then each run one chain of elementwise ops on the flat
vectors instead of one per parameter.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.autodiff import Tensor


class FlatParameters(list):
    """A list of parameter tensors laid out as one flat vector.

    ``grad`` is the flat gradient and ``grads`` its per-parameter views, in
    order: a loss writes into them (``MLP._vjp(..., out=grads)``) and hands
    ``grads`` to :meth:`Optimizer.apply_gradients`.  :meth:`data` is the
    flat parameter vector: the array of the last :meth:`bind` while every
    parameter still holds its view of it, else a fresh gather -- so a
    parameter rebound since (``load_state_dict``, a warm start) is read,
    never overwritten.
    """

    def __init__(self, parameters: Sequence[Tensor]):
        super().__init__(parameters)
        self.sizes = [parameter.data.size for parameter in self]
        bounds = np.cumsum([0, *self.sizes])
        self.layout = [
            (slice(int(start), int(stop)), parameter.data.shape)
            for start, stop, parameter in zip(bounds[:-1], bounds[1:], self)
        ]
        self.size = int(bounds[-1])
        self.grad = np.zeros(self.size)
        self.grads = tuple(self.views(self.grad))
        self._data: Optional[np.ndarray] = None
        self._data_views: tuple = ()

    def __reduce__(self):
        # Views do not survive a copy or a pickle; rebuild the layout instead.
        return FlatParameters, (list(self),)

    @classmethod
    def of(cls, parameters: Sequence[Tensor]) -> "FlatParameters":
        """``parameters`` itself when already laid out, else a new layout."""

        return parameters if isinstance(parameters, cls) else cls(parameters)

    def views(self, flat: np.ndarray) -> List[np.ndarray]:
        """The per-parameter views of a flat vector, in parameter order."""

        return [flat[span].reshape(shape) for span, shape in self.layout]

    def data(self) -> np.ndarray:
        """The parameters as one flat vector (see the class docstring)."""

        if self._data is not None and all(
            parameter.data is view for parameter, view in zip(self, self._data_views)
        ):
            return self._data
        return np.concatenate([parameter.data.ravel() for parameter in self])

    def bind(self, flat: np.ndarray, live: Sequence[bool]) -> None:
        """Rebind the ``.data`` of each ``live`` parameter to its view of
        ``flat`` (never a write into the old arrays)."""

        views = tuple(self.views(flat))
        for parameter, view, rebind in zip(self, views, live):
            if rebind:
                parameter.data = view
        self._data, self._data_views = flat, views

    def gather_grads(self) -> List[bool]:
        """Point each ``.grad`` at its view of :attr:`grad`, copying in one
        that was set elsewhere; returns which parameters have a gradient."""

        live = []
        for parameter, view in zip(self, self.grads):
            grad = parameter.grad
            if grad is not None and grad is not view:
                view[...] = np.reshape(grad, view.shape)
                parameter.grad = view
            live.append(grad is not None)
        return live


class Optimizer:
    """Base optimiser holding its parameter tensors as :class:`FlatParameters`."""

    def __init__(self, parameters: Sequence[Tensor]):
        self.parameters = FlatParameters(parameters)
        if not self.parameters:
            raise ValueError("optimizer created with no parameters")

    @property
    def grads(self) -> tuple:
        """The per-parameter views of the flat gradient, for ``out=``."""

        return self.parameters.grads

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def apply_gradients(self, grads: Sequence[np.ndarray], max_grad_norm: Optional[float] = None) -> None:
        """Store ``grads`` (one per parameter, in order) in ``.grad``, clip
        their global norm to ``max_grad_norm`` when given, and step.

        ``grads`` written into :attr:`grads` are used where they are; any
        other arrays are copied into the flat gradient first.
        """

        for parameter, grad in zip(self.parameters, grads):
            parameter.grad = grad
        if max_grad_norm is not None:
            self.clip_grad_norm(max_grad_norm)
        self.step()

    def clip_grad_norm(self, max_norm: float) -> float:
        """Clip the global gradient norm and return the pre-clip norm.

        The norm sums ``float(np.sum(np.square(g)))`` parameter by
        parameter, over slices of the flat gradient; a clip scales that
        vector in place.
        """

        flat = self.parameters
        live = flat.gather_grads()
        squares = np.square(flat.grad)
        total = 0.0
        for (span, _), has_grad in zip(flat.layout, live):
            if has_grad:
                total += float(np.add.reduce(squares[span], axis=None))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0.0:
            np.multiply(flat.grad, max_norm / norm, out=flat.grad)
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
        # First/second moments of the flat parameter vector.
        self._m = np.zeros(self.parameters.size)
        self._v = np.zeros(self.parameters.size)

    def step(self) -> None:
        """One Adam update over the flat parameter vector.

        One elementwise chain on the flat gradient and parameter vectors,
        the same float64 ops per element as a per-parameter loop, so the
        update is bit for bit the per-tensor one.  Each ``parameter.data``
        with a gradient is then *rebound* to its view of the fresh result --
        never written in place -- so an array captured before the step keeps
        its values; a parameter without a gradient keeps its data and
        moments.
        """

        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        flat = self.parameters
        live = flat.gather_grads()
        if not any(live):
            return
        grad, data = flat.grad, flat.data()
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        m = self.beta1 * self._m + (1.0 - self.beta1) * grad
        v = self.beta2 * self._v + (1.0 - self.beta2) * grad ** 2
        updated = data - self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        if not all(live):
            mask = np.repeat(live, flat.sizes)
            m, v = np.where(mask, m, self._m), np.where(mask, v, self._v)
            updated = np.where(mask, updated, data)
        self._m, self._v = m, v
        flat.bind(updated, live)
