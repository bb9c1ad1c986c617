"""Bernstein-polynomial over-approximation of a neural controller.

Following ReachNN (reference [21]), the controller ``kappa*: R^d -> R^m`` is
approximated over a box ``X_p`` by a multivariate Bernstein polynomial

.. math::  B_{d}(x) = \\sum_{k} f(x_k) \\prod_i \\binom{d_i}{k_i} t_i^{k_i} (1-t_i)^{d_i-k_i}

where ``t`` is ``x`` rescaled to the unit box and the coefficients are the
network evaluated on the uniform grid ``x_k``.  Two classical properties make
this useful for verification:

* **error bound** -- for an ``L``-Lipschitz function the approximation error
  is bounded by ``L/2 * sqrt(sum_i w_i^2 / d_i)`` (``w_i`` the box widths),
  so a larger Lipschitz constant forces higher degrees or finer partitions:
  exactly the mechanism behind the paper's verification-time comparison;
* **range enclosure** -- the polynomial's value over the box lies between the
  minimum and maximum coefficient, giving cheap control-output bounds for
  the reachability step.

The module is organised around **batched kernels** that operate on a
``(num_partitions, ...)`` stacked representation: grids, coefficients, error
bounds and range enclosures for a whole stack of boxes are computed with a
handful of NumPy calls (one network forward pass over the distinct points of
all grids).  A single box is a one-row stack: every network forward pass runs
in fixed-width row blocks, so a box fitted alone and the same box fitted in a
stack have bit-identical coefficients.  Each fit batch evaluates every
distinct grid point once: boxes that tile a region share faces, edges and
corners, and a shared grid point is evaluated once and gathered back onto
every grid holding it.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.network import MLP
from repro.verification.intervals import apply_row_blocked

#: An MLP, or a function mapping an ``(N, dim)`` batch of points to ``(N, out)``.
FunctionLike = Union[MLP, Callable[[np.ndarray], np.ndarray]]


def bernstein_error_bound_batch(
    lipschitz_constant: float, lows: np.ndarray, highs: np.ndarray, degrees: Sequence[int]
) -> np.ndarray:
    """Lipschitz error bounds for a ``(P, dim)`` stack of boxes, shape ``(P,)``.

    Row ``p`` is ``L/2 * sqrt(sum_i w_i^2 / d_i)`` for box ``p``'s widths
    ``w``; each row is computed from its own box alone.
    """

    degrees = np.asarray(degrees, dtype=np.float64)
    if np.any(degrees < 1):
        raise ValueError("degrees must be at least 1")
    lows = np.atleast_2d(np.asarray(lows, dtype=np.float64))
    highs = np.atleast_2d(np.asarray(highs, dtype=np.float64))
    widths = highs - lows
    return 0.5 * lipschitz_constant * np.sqrt(np.sum(widths**2 / degrees, axis=-1))


# ----------------------------------------------------------------------
# Batched kernels on the (num_partitions, ...) stacked representation
# ----------------------------------------------------------------------


def _normalised_degrees(degrees: Union[int, Sequence[int]], dimension: int) -> np.ndarray:
    degrees = np.atleast_1d(np.asarray(degrees, dtype=int))
    if degrees.size == 1:
        degrees = np.full(dimension, int(degrees[0]))
    if degrees.size != dimension:
        raise ValueError("one degree per input dimension is required")
    if np.any(degrees < 1):
        raise ValueError("degrees must be at least 1")
    return degrees


def _normalised_box_stack(lows: np.ndarray, highs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``atleast_2d``/``asarray`` normalisation of a ``(P, dim)`` box stack."""

    lows = np.atleast_2d(np.asarray(lows, dtype=np.float64))
    highs = np.atleast_2d(np.asarray(highs, dtype=np.float64))
    return lows, highs


def bernstein_grid_batch(lows: np.ndarray, highs: np.ndarray, degrees: Sequence[int]) -> np.ndarray:
    """Coefficient grids for a ``(P, dim)`` box stack, shape ``(P, G, dim)``.

    ``G = prod(degrees + 1)`` points per box: the ``ij`` meshgrid of each
    axis's ``linspace``, so row ``p`` equals the grid of the one-row stack
    ``lows[p:p + 1]`` exactly.  In ``ij`` order, axis ``k``'s column of the
    flattened grid is its ``degree + 1`` points with the trailing axes'
    point count as inner repeat and the leading axes' as outer tile -- a
    pattern a broadcast assignment reproduces directly, with no ``(G, dim)``
    index table and no final ``np.stack``.
    """

    lows, highs = _normalised_box_stack(lows, highs)
    count, dimension = lows.shape
    degrees = _normalised_degrees(degrees, dimension)
    sizes = [int(degree) + 1 for degree in degrees]
    out = np.empty((count, int(np.prod(sizes)), dimension))
    inner = 1
    for axis in range(dimension - 1, -1, -1):
        side = sizes[axis]
        points = np.linspace(lows[:, axis], highs[:, axis], side, axis=-1)
        outer = out.shape[1] // (side * inner)
        view = out.reshape(count, outer, side, inner, dimension)
        view[:, :, :, :, axis] = points[:, None, :, None]
        inner *= side
    return out


def _evaluate_function_batch(function: FunctionLike, points: np.ndarray) -> np.ndarray:
    """Evaluate ``function`` on a flat ``(N, dim)`` point array -> ``(N, out)``.

    MLPs are evaluated through :func:`apply_row_blocked` so the forward pass
    runs in fixed-width blocks: the coefficients of a box are then identical
    whether it was fitted alone or stacked with any number of others.  Any
    other function is called once on the whole ``(N, dim)`` batch, like the
    functions :func:`repro.nn.lipschitz.empirical_lipschitz` takes; the same
    holds for it as long as its rows do not depend on each other.
    """

    if isinstance(function, MLP):
        return np.atleast_2d(apply_row_blocked(function._run, points))
    return np.asarray(function(points), dtype=np.float64).reshape(len(points), -1)


def _distinct_grid_points(
    lows: np.ndarray, highs: np.ndarray, sizes: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct points of a box stack's grids and where each grid point is.

    Returns ``(points, inverse)``: the ``(U, dim)`` distinct grid points and,
    for each of the ``P * G`` flattened grid points, its row in ``points``,
    so ``points[inverse]`` is ``bernstein_grid_batch(...).reshape(-1, dim)``
    bit for bit.  Points are told apart by the bit patterns of their per-axis
    ``linspace`` coordinates (so ``-0.0`` and ``0.0`` stay distinct).  Each
    axis's coordinates get dense ids, which combine into one mixed-radix
    integer key per grid point; the key is re-ranked to dense ids whenever
    its radix outgrows ``2**(63 - bits)``, so it never overflows int64 and
    ``key << bits | position`` (``bits`` wide enough for any position) packs
    into one int64 whose plain sort groups equal points.  A dense key is
    below the stack's point count, so this holds for any stack of fewer
    than ``2**31`` grid points.
    """

    count, dimension = lows.shape
    grid = int(np.prod(sizes))
    total = count * grid
    bits = total.bit_length()
    axis_points = []
    key = np.zeros(count, dtype=np.int64)
    radix = 1
    for axis, side in enumerate(sizes):
        points = np.linspace(lows[:, axis], highs[:, axis], side, axis=-1)
        axis_points.append(np.ravel(points))
        values, ids = np.unique(points.view(np.uint64), return_inverse=True)
        key = key[..., None] * values.size + ids.reshape((count,) + (1,) * axis + (side,))
        radix *= values.size
        if radix > 1 << (63 - bits):
            ranks, dense = np.unique(key, return_inverse=True)
            key, radix = dense.reshape(key.shape), ranks.size
    # The arrays below each hold one integer per grid point; each is freed
    # as soon as it is used, to keep the peak near that of the plain grid.
    packed = key.reshape(-1)
    packed <<= bits
    packed |= np.arange(total)
    packed.sort()
    order = packed & ((1 << bits) - 1)
    packed >>= bits
    first = np.empty(total, dtype=bool)
    first[:1] = True
    np.not_equal(packed[1:], packed[:-1], out=first[1:])
    del key, packed
    ranks = np.cumsum(first)
    ranks -= 1
    inverse = np.empty_like(ranks)
    inverse[order] = ranks
    del ranks
    # Decode each distinct point from its first grid position: the box, then
    # the per-axis index in that box's ``ij`` grid (last axis fastest).
    boxes, positions = np.divmod(order[first], grid)
    del order, first
    points = np.empty((boxes.size, dimension))
    for axis in range(dimension - 1, -1, -1):
        positions, index = np.divmod(positions, sizes[axis])
        index += boxes * sizes[axis]
        points[:, axis] = axis_points[axis].take(index)
    return points, inverse


def bernstein_coefficients_batch(
    function: FunctionLike, lows: np.ndarray, highs: np.ndarray, degrees: Sequence[int]
) -> np.ndarray:
    """Coefficient tensors for a box stack, shape ``(P, *degrees + 1, out)``.

    Boxes that share faces, edges or corners share grid points, so each
    fit batch evaluates every distinct grid point once -- one stacked
    ``(U, dim)`` batch through the function -- and gathers the values back
    onto every box's grid.  Each row's value does not depend on the other
    rows evaluated with it (see :func:`_evaluate_function_batch`), so the
    coefficients equal each box's one-row fit bit for bit.
    """

    lows, highs = _normalised_box_stack(lows, highs)
    count, dimension = lows.shape
    degrees = _normalised_degrees(degrees, dimension)
    sizes = tuple(int(degree) + 1 for degree in degrees)
    points, inverse = _distinct_grid_points(lows, highs, sizes)
    values = _evaluate_function_batch(function, points)
    return values[inverse].reshape((count,) + sizes + (values.shape[-1],))


def bernstein_enclosure_batch(
    coefficients: np.ndarray, errors: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Range enclosures from a ``(P, *degrees + 1, out)`` coefficient stack.

    Returns ``(lower, upper)`` of shape ``(P, out)``: the per-box
    coefficient min/max, inflated by the per-box approximation ``errors``
    when given.
    """

    count = coefficients.shape[0]
    out_dim = coefficients.shape[-1]
    flat = coefficients.reshape(count, -1, out_dim)
    # Freshly allocated (returned to callers); reductions and error
    # inflation run with ``out=`` so no intermediate stacks are built.
    lower = np.empty((count, out_dim), dtype=coefficients.dtype)
    upper = np.empty((count, out_dim), dtype=coefficients.dtype)
    flat.min(axis=1, out=lower)
    flat.max(axis=1, out=upper)
    if errors is not None:
        errors = np.asarray(errors, dtype=np.float64).reshape(count, 1)
        np.subtract(lower, errors, out=lower)
        np.add(upper, errors, out=upper)
    return lower, upper
