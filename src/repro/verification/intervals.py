"""Interval arithmetic for reachable-set over-approximation.

A lightweight vectorised interval type: lower/upper bound arrays with the
usual arithmetic (natural inclusion functions).  Used to push state boxes
through the plants' dynamics and, together with the Bernstein range
enclosure, through the neural controller.

Every operation is elementwise, so an :class:`Interval` may carry bounds of
any shape: the verification analyses stack many boxes into ``(N, dim)``
intervals and push them through the same code paths as a single ``(dim,)``
interval.  The batched interval-bound-propagation kernels at the bottom of
the module (:func:`network_output_bounds_batch`,
:func:`refined_network_output_bounds_batch`) propagate a whole ``(M, dim)``
stack of boxes through an MLP with one matrix product per layer.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.systems.sets import Box

Scalar = Union[int, float]

#: Verification kernels evaluate networks in fixed-width row blocks.  BLAS
#: matrix products round slightly differently depending on the row count, so
#: evaluating every stack in padded blocks of this exact height makes each
#: row's result independent of how many boxes were batched together, so a
#: box's bounds agree bit for bit whether it was evaluated alone or stacked.
EVAL_BLOCK_ROWS = 64

#: Blocks handed to the blocked function per call, as one ``(k, 64, ...)``
#: stack.  ``np.matmul`` runs one BLAS product per 2-D slice of a stacked
#: operand, so every block rounds exactly as it would alone; the constant
#: only bounds the temporaries of one call (1024 rows).
STACK_BLOCKS = 16


def apply_row_blocked(function, rows: np.ndarray) -> np.ndarray:
    """Apply ``function`` to ``(N, ...)`` rows in fixed 64-row padded blocks.

    The final partial block is padded by repeating its last row (each row of
    a matrix product is computed independently, so padding rows cannot
    perturb real ones) and the padding is sliced off the output.
    ``function`` receives stacks of up to :data:`STACK_BLOCKS` whole blocks,
    shaped ``(k, 64, ...)``, and must treat the leading axis as a batch of
    independent blocks.  The returned array is freshly allocated.
    """

    count = rows.shape[0]
    if count == 0:
        raise ValueError("apply_row_blocked needs at least one row")
    blocks = -(-count // EVAL_BLOCK_ROWS)
    padding = blocks * EVAL_BLOCK_ROWS - count
    if padding:
        rows = np.concatenate([rows, np.repeat(rows[-1:], padding, axis=0)], axis=0)
    stack = rows.reshape((blocks, EVAL_BLOCK_ROWS) + rows.shape[1:])
    output = np.concatenate(
        [function(stack[start : start + STACK_BLOCKS]) for start in range(0, blocks, STACK_BLOCKS)], axis=0
    )
    return output.reshape((blocks * EVAL_BLOCK_ROWS,) + output.shape[2:])[:count]


def _sin_range(lower: np.ndarray, upper: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Elementwise range of ``sin`` over ``[lower, upper]`` (any shape).

    The extrema of ``sin`` sit at ``pi/2 + k*pi``: the range hits ``+1`` iff
    an even ``k`` falls inside the interval and ``-1`` iff an odd one does,
    so the enclosure needs only the endpoint values plus two parity tests --
    no per-element Python loop.
    """

    sin_lo = np.sin(lower)
    sin_hi = np.sin(upper)
    low = np.minimum(sin_lo, sin_hi)
    high = np.maximum(sin_lo, sin_hi)
    k_start = np.ceil((lower - np.pi / 2.0) / np.pi)
    k_end = np.floor((upper - np.pi / 2.0) / np.pi)
    has_any = k_end >= k_start
    multiple = (k_end - k_start) >= 1
    has_even = has_any & (multiple | (np.mod(k_start, 2.0) == 0.0))
    has_odd = has_any & (multiple | (np.mod(k_start, 2.0) != 0.0))
    full = (upper - lower) >= 2.0 * np.pi
    high = np.where(has_even | full, 1.0, high)
    low = np.where(has_odd | full, -1.0, low)
    return low, high


class Interval:
    """Elementwise interval ``[lower, upper]`` over NumPy arrays."""

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=np.float64))
        upper = np.atleast_1d(np.asarray(upper, dtype=np.float64))
        lower, upper = np.broadcast_arrays(lower, upper)
        if np.any(upper < lower):
            raise ValueError("interval upper bound below lower bound")
        self.lower = np.array(lower, dtype=np.float64)
        self.upper = np.array(upper, dtype=np.float64)

    # -- constructors -------------------------------------------------------
    @classmethod
    def point(cls, value) -> "Interval":
        value = np.asarray(value, dtype=np.float64)
        return cls(value, value)

    @classmethod
    def from_box(cls, box: Box) -> "Interval":
        return cls(box.low, box.high)

    def to_box(self) -> Box:
        return Box(self.lower, self.upper)

    # -- helpers ---------------------------------------------------------------
    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def center(self) -> np.ndarray:
        return (self.upper + self.lower) / 2.0

    def __getitem__(self, index) -> "Interval":
        return Interval(self.lower[index], self.upper[index])

    def __len__(self) -> int:
        return int(self.lower.size)

    def contains(self, value) -> bool:
        value = np.asarray(value, dtype=np.float64)
        return bool(np.all(value >= self.lower - 1e-12) and np.all(value <= self.upper + 1e-12))

    # -- arithmetic ---------------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Interval":
        if isinstance(other, Interval):
            return other
        return Interval.point(other)

    def __add__(self, other) -> "Interval":
        other = self._coerce(other)
        return Interval(self.lower + other.lower, self.upper + other.upper)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.upper, -self.lower)

    def __sub__(self, other) -> "Interval":
        other = self._coerce(other)
        return Interval(self.lower - other.upper, self.upper - other.lower)

    def __rsub__(self, other) -> "Interval":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Interval":
        other = self._coerce(other)
        candidates = np.stack(
            [
                self.lower * other.lower,
                self.lower * other.upper,
                self.upper * other.lower,
                self.upper * other.upper,
            ]
        )
        return Interval(candidates.min(axis=0), candidates.max(axis=0))

    __rmul__ = __mul__

    def square(self) -> "Interval":
        low_sq = self.lower**2
        high_sq = self.upper**2
        upper = np.maximum(low_sq, high_sq)
        lower = np.where((self.lower <= 0.0) & (self.upper >= 0.0), 0.0, np.minimum(low_sq, high_sq))
        return Interval(lower, upper)

    def sin(self) -> "Interval":
        return Interval(*_sin_range(self.lower, self.upper))

    def cos(self) -> "Interval":
        shifted = Interval(self.lower + np.pi / 2.0, self.upper + np.pi / 2.0)
        return shifted.sin()

    def clip(self, low, high) -> "Interval":
        low = np.asarray(low, dtype=np.float64)
        high = np.asarray(high, dtype=np.float64)
        return Interval(np.clip(self.lower, low, high), np.clip(self.upper, low, high))

    def scale(self, factor: Scalar) -> "Interval":
        factor = float(factor)
        if factor >= 0:
            return Interval(self.lower * factor, self.upper * factor)
        return Interval(self.upper * factor, self.lower * factor)

    def __repr__(self) -> str:
        pieces = ", ".join(f"[{lo:.4g}, {hi:.4g}]" for lo, hi in zip(self.lower, self.upper))
        return f"Interval({pieces})"


def network_output_bounds_batch(network, lows: np.ndarray, highs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Interval bound propagation through an MLP for an ``(M, dim)`` box stack.

    Propagates all ``M`` boxes with one centre/radius matrix product per
    linear layer and one elementwise monotone map per activation, returning
    ``(lower, upper)`` arrays of shape ``(M, output_dim)``.  This is the
    kernel behind every IBP query of the verification analyses; one box is
    the ``M = 1`` stack.
    """

    from repro.nn.layers import Activation, Linear
    from repro.nn.network import _apply_activation_array_named

    steps = []
    for layer in network.layers:
        if isinstance(layer, Linear):
            weight = layer.weight.data
            steps.append((weight, layer.bias.data, np.abs(weight)))
        elif isinstance(layer, Activation):
            steps.append(layer.name)

    def propagate(bounds: np.ndarray) -> np.ndarray:
        lower = bounds[..., 0]
        upper = bounds[..., 1]
        for step in steps:
            if isinstance(step, str):
                lower = _apply_activation_array_named(step, lower)
                upper = _apply_activation_array_named(step, upper)
                continue
            weight, bias, abs_weight = step
            center = (lower + upper) / 2.0
            radius = (upper - lower) / 2.0
            new_center = center @ weight + bias
            new_radius = radius @ abs_weight
            lower = new_center - new_radius
            upper = new_center + new_radius
        return np.stack([lower, upper], axis=-1)

    stacked = np.stack(
        [
            np.atleast_2d(np.asarray(lows, dtype=np.float64)),
            np.atleast_2d(np.asarray(highs, dtype=np.float64)),
        ],
        axis=-1,
    )  # (M, dim, 2): lower/upper travel together so blocks stay paired
    result = apply_row_blocked(propagate, stacked)
    return result[..., 0], result[..., 1]


def subdivide_boxes_batch(
    lows: np.ndarray, highs: np.ndarray, splits_per_dim: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Uniformly split each of ``M`` boxes into ``splits_per_dim**dim`` pieces.

    Returns ``(sub_lows, sub_highs)`` of shape ``(M * splits_per_dim**dim,
    dim)``, grouped so the pieces of box ``m`` occupy the contiguous slab
    ``[m * S**dim, (m + 1) * S**dim)``.
    """

    lows = np.atleast_2d(np.asarray(lows, dtype=np.float64))
    highs = np.atleast_2d(np.asarray(highs, dtype=np.float64))
    count, dimension = lows.shape
    edges = np.linspace(lows, highs, splits_per_dim + 1, axis=-1)  # (M, dim, S + 1)
    index_grid = np.stack(
        np.meshgrid(*[np.arange(splits_per_dim)] * dimension, indexing="ij"), axis=-1
    ).reshape(-1, dimension)  # (S**dim, dim)
    sub_lows = np.stack(
        [edges[:, axis, index_grid[:, axis]] for axis in range(dimension)], axis=-1
    )  # (M, S**dim, dim)
    sub_highs = np.stack(
        [edges[:, axis, index_grid[:, axis] + 1] for axis in range(dimension)], axis=-1
    )
    pieces = index_grid.shape[0]
    return sub_lows.reshape(count * pieces, dimension), sub_highs.reshape(count * pieces, dimension)


def refined_network_output_bounds_batch(
    network, lows: np.ndarray, highs: np.ndarray, splits_per_dim: int = 4
) -> Tuple[np.ndarray, np.ndarray]:
    """Refined IBP bounds for an ``(M, dim)`` stack of boxes.

    Plain IBP over-approximates more as a box gets wider; subdividing each
    box into ``splits_per_dim ** dim`` pieces, propagating the whole
    ``(M * S**dim, dim)`` stack through :func:`network_output_bounds_batch`
    at once, and hulling the per-piece bounds is still sound but
    substantially tighter -- at the cost of one larger matrix product per
    layer instead of ``M * S**dim`` small ones.
    """

    lows = np.atleast_2d(np.asarray(lows, dtype=np.float64))
    highs = np.atleast_2d(np.asarray(highs, dtype=np.float64))
    if splits_per_dim <= 1:
        return network_output_bounds_batch(network, lows, highs)
    count = lows.shape[0]
    sub_lows, sub_highs = subdivide_boxes_batch(lows, highs, splits_per_dim)
    piece_lower, piece_upper = network_output_bounds_batch(network, sub_lows, sub_highs)
    pieces = sub_lows.shape[0] // count
    lower = piece_lower.reshape(count, pieces, -1).min(axis=1)
    upper = piece_upper.reshape(count, pieces, -1).max(axis=1)
    return lower, upper

