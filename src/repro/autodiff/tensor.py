"""A minimal reverse-mode autodiff tensor.

The design follows the classic tape-based approach: every differentiable
operation builds a node that remembers its parents and a closure computing the
vector-Jacobian product.  Calling :meth:`Tensor.backward` on a scalar output
topologically sorts the graph and accumulates gradients into every *leaf*
tensor that was created with ``requires_grad=True``.  ``.grad`` lives on
leaves only: interior nodes pass their gradient on to their parents and keep
nothing, so the only ``.grad`` arrays a backward pass allocates are the ones
an optimizer or an input-gradient attack actually reads.

Hot composite operations are single nodes with hand-written VJPs -- the whole
:class:`repro.nn.MLP` forward, :func:`repro.autodiff.functional.mse_loss` and
:func:`repro.autodiff.functional.l2_penalty` -- whose float64 ops and
gradient-accumulation order replay the composed tape exactly, so gradients are
bit-identical to building the same graph out of the primitives below.

Only the operations needed by the rest of the repository are implemented, but
each of them supports full NumPy broadcasting with correct gradient
reduction.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[float, int, Sequence, np.ndarray, "Tensor"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Used by evaluation code paths (rollouts, Monte-Carlo robustness
    estimation) where gradients are never needed, to keep memory bounded.
    """

    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether graph construction is currently enabled."""

    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    NumPy broadcasting can add leading dimensions and stretch size-1 axes;
    the corresponding gradient must be summed back over those axes.
    """

    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over broadcast (size-1) axes.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A NumPy array with an optional gradient tape entry.

    Parameters
    ----------
    data:
        Anything convertible to a float64 NumPy array.
    requires_grad:
        Whether gradients flow through this tensor during :meth:`backward`;
        a leaf (a tensor not produced by an operation) that requires grad
        accumulates them into :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        self.data = np.asarray(
            data.data if isinstance(data, Tensor) else data, dtype=np.float64
        )
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple["Tensor", ...] = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None
        self._op: str = "leaf"

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        parents = tuple(parents)
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = cls(data, requires_grad=False)
        out.requires_grad = requires
        if requires:
            out._parents = parents
            out._backward_fn = backward_fn
            out._op = op
        return out

    @staticmethod
    def ensure(value: ArrayLike) -> "Tensor":
        """Coerce ``value`` to a :class:`Tensor` (no-op when already one)."""

        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return a copy of the underlying data as a plain array."""

        return np.array(self.data, copy=True)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""

        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        ``grad`` defaults to ones (only valid for scalar outputs, matching
        the usual loss.backward() idiom).  Gradients are summed into the
        ``.grad`` of every reachable leaf that requires grad; interior nodes
        keep no ``.grad``.
        """

        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar output")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(np.float64)

        order = self._topological_order()
        grads = {id(self): np.array(grad, dtype=np.float64)}

        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward_fn is None:
                if node.grad is None:
                    node.grad = np.array(node_grad, copy=True)
                else:
                    node.grad = node.grad + node_grad
                continue
            contributions = node._backward_fn(node_grad)
            for parent, contribution in zip(node._parents, contributions):
                if contribution is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contribution
                else:
                    grads[key] = contribution

    def _topological_order(self) -> List["Tensor"]:
        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data + other.data

        def backward_fn(grad: np.ndarray):
            return (
                _unbroadcast(grad, self.data.shape),
                _unbroadcast(grad, other.data.shape),
            )

        return Tensor._from_op(data, (self, other), backward_fn, "add")

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return Tensor.ensure(other).__add__(self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data - other.data

        def backward_fn(grad: np.ndarray):
            return (
                _unbroadcast(grad, self.data.shape),
                _unbroadcast(-grad, other.data.shape),
            )

        return Tensor._from_op(data, (self, other), backward_fn, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor.ensure(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data * other.data
        self_data, other_data = self.data, other.data

        def backward_fn(grad: np.ndarray):
            return (
                _unbroadcast(grad * other_data, self_data.shape),
                _unbroadcast(grad * self_data, other_data.shape),
            )

        return Tensor._from_op(data, (self, other), backward_fn, "mul")

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return Tensor.ensure(other).__mul__(self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data / other.data
        self_data, other_data = self.data, other.data

        def backward_fn(grad: np.ndarray):
            return (
                _unbroadcast(grad / other_data, self_data.shape),
                _unbroadcast(-grad * self_data / (other_data ** 2), other_data.shape),
            )

        return Tensor._from_op(data, (self, other), backward_fn, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor.ensure(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward_fn(grad: np.ndarray):
            return (-grad,)

        return Tensor._from_op(data, (self,), backward_fn, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        data = self.data ** exponent
        self_data = self.data

        def backward_fn(grad: np.ndarray):
            return (grad * exponent * (self_data ** (exponent - 1)),)

        return Tensor._from_op(data, (self,), backward_fn, "pow")

    # ------------------------------------------------------------------
    # Matrix operations and shaping
    # ------------------------------------------------------------------
    def matmul(self, other: ArrayLike) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data @ other.data
        self_data, other_data = self.data, other.data

        def backward_fn(grad: np.ndarray):
            grad_self = grad_other = None
            if self.requires_grad:
                grad_self = _unbroadcast(grad @ np.swapaxes(other_data, -1, -2), self_data.shape)
            if other.requires_grad:
                grad_other = _unbroadcast(np.swapaxes(self_data, -1, -2) @ grad, other_data.shape)
            return grad_self, grad_other

        return Tensor._from_op(data, (self, other), backward_fn, "matmul")

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def transpose(self) -> "Tensor":
        data = self.data.T

        def backward_fn(grad: np.ndarray):
            return (grad.T,)

        return Tensor._from_op(data, (self,), backward_fn, "transpose")

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        data = self.data.reshape(shape)

        def backward_fn(grad: np.ndarray):
            return (grad.reshape(original),)

        return Tensor._from_op(data, (self,), backward_fn, "reshape")

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        original_shape = self.data.shape

        def backward_fn(grad: np.ndarray):
            full = np.zeros(original_shape, dtype=np.float64)
            np.add.at(full, index, grad)
            return (full,)

        return Tensor._from_op(data, (self,), backward_fn, "getitem")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        original_shape = self.data.shape

        def backward_fn(grad: np.ndarray):
            grad = np.asarray(grad, dtype=np.float64)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            return (np.broadcast_to(grad, original_shape).copy(),)

        return Tensor._from_op(data, (self,), backward_fn, "sum")

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.mean(axis=axis, keepdims=keepdims)
        original_shape = self.data.shape
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]

        def backward_fn(grad: np.ndarray):
            grad = np.asarray(grad, dtype=np.float64) / count
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            return (np.broadcast_to(grad, original_shape).copy(),)

        return Tensor._from_op(data, (self,), backward_fn, "mean")

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        self_data = self.data

        def backward_fn(grad: np.ndarray):
            grad = np.asarray(grad, dtype=np.float64)
            if axis is not None and not keepdims:
                expanded = np.expand_dims(data, axis)
                grad_expanded = np.expand_dims(grad, axis)
            else:
                expanded = data
                grad_expanded = grad
            mask = (self_data == expanded).astype(np.float64)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum(), 1.0)
            return (mask * grad_expanded,)

        return Tensor._from_op(data, (self,), backward_fn, "max")

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward_fn(grad: np.ndarray):
            return (grad * data,)

        return Tensor._from_op(data, (self,), backward_fn, "exp")

    def log(self) -> "Tensor":
        data = np.log(self.data)
        self_data = self.data

        def backward_fn(grad: np.ndarray):
            return (grad / self_data,)

        return Tensor._from_op(data, (self,), backward_fn, "log")

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward_fn(grad: np.ndarray):
            return (grad * 0.5 / data,)

        return Tensor._from_op(data, (self,), backward_fn, "sqrt")

    def abs(self) -> "Tensor":
        data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward_fn(grad: np.ndarray):
            return (grad * sign,)

        return Tensor._from_op(data, (self,), backward_fn, "abs")

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward_fn(grad: np.ndarray):
            return (grad * (1.0 - data ** 2),)

        return Tensor._from_op(data, (self,), backward_fn, "tanh")

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward_fn(grad: np.ndarray):
            return (grad * data * (1.0 - data),)

        return Tensor._from_op(data, (self,), backward_fn, "sigmoid")

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(np.float64)
        data = self.data * mask

        def backward_fn(grad: np.ndarray):
            return (grad * mask,)

        return Tensor._from_op(data, (self,), backward_fn, "relu")

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)
        mask = ((self.data >= low) & (self.data <= high)).astype(np.float64)

        def backward_fn(grad: np.ndarray):
            return (grad * mask,)

        return Tensor._from_op(data, (self,), backward_fn, "clip")

    # ------------------------------------------------------------------
    # Joining
    # ------------------------------------------------------------------
    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = -1) -> "Tensor":
        tensors = [Tensor.ensure(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]

        def backward_fn(grad: np.ndarray):
            pieces = []
            start = 0
            for size in sizes:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, start + size)
                pieces.append(grad[tuple(index)])
                start += size
            return tuple(pieces)

        return Tensor._from_op(data, tensors, backward_fn, "concat")
