"""The parameter holder of every trainable array.

A :class:`Tensor` is a float64 array with a ``.grad`` slot.  Networks own
their weights and biases as tensors; a training step computes every
gradient in closed form (:meth:`repro.nn.MLP._vjp` and the losses built on
it), stores it in ``.grad``, and an optimizer reads it from there.

The class stays at ``repro.autodiff.tensor.Tensor`` because the benchmark
tracer (``perfbench/tracer.py``) imports this module and reads that name.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class Tensor:
    """A float64 array with an optional gradient slot.

    Parameters
    ----------
    data:
        Anything convertible to a float64 NumPy array.
    requires_grad:
        Whether this tensor is a trainable parameter: modules collect the
        tensors that require grad as their parameters, and a training step
        fills their :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return a copy of the underlying data as a plain array."""

        return np.array(self.data, copy=True)

    def zero_grad(self) -> None:
        self.grad = None
