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
bounds, range enclosures and evaluations for a whole stack of boxes are
computed with a handful of NumPy calls (one network forward pass over the
distinct points of all grids).  :class:`BernsteinApproximation` is the
single-box view: its fit is the batch-of-one special case of the same
kernels, so a box fitted alone and the same box fitted in a stack have
bit-identical coefficients.  Each fit batch evaluates every distinct grid
point once: boxes that tile a region share faces, edges and corners, and a
shared grid point is evaluated once and gathered back onto every grid
holding it.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.lipschitz import network_lipschitz
from repro.nn.network import MLP
from repro.systems.sets import Box
from repro.verification.intervals import Interval, apply_row_blocked

#: An MLP, or a function mapping an ``(N, dim)`` batch of points to ``(N, out)``.
FunctionLike = Union[MLP, Callable[[np.ndarray], np.ndarray]]


def bernstein_error_bound(lipschitz_constant: float, box: Box, degrees: Sequence[int]) -> float:
    """Lipschitz-based uniform error bound of the Bernstein approximation."""

    degrees = np.asarray(degrees, dtype=np.float64)
    if np.any(degrees < 1):
        raise ValueError("degrees must be at least 1")
    widths = box.widths
    return float(0.5 * lipschitz_constant * np.sqrt(np.sum(widths**2 / degrees)))


def bernstein_error_bound_batch(
    lipschitz_constant: float, lows: np.ndarray, highs: np.ndarray, degrees: Sequence[int]
) -> np.ndarray:
    """Error bounds for a ``(P, dim)`` stack of boxes, shape ``(P,)``.

    Row ``p`` equals ``bernstein_error_bound(L, Box(lows[p], highs[p]),
    degrees)`` bit for bit: the arithmetic is identical, only vectorised
    across the partition axis.
    """

    degrees = np.asarray(degrees, dtype=np.float64)
    if np.any(degrees < 1):
        raise ValueError("degrees must be at least 1")
    lows = np.atleast_2d(np.asarray(lows, dtype=np.float64))
    highs = np.atleast_2d(np.asarray(highs, dtype=np.float64))
    widths = highs - lows
    return 0.5 * lipschitz_constant * np.sqrt(np.sum(widths**2 / degrees, axis=-1))


def degrees_for_error(lipschitz_constant: float, box: Box, target_error: float, max_degree: int = 64) -> np.ndarray:
    """Smallest per-dimension degree achieving ``target_error`` (uniform degrees).

    Inverts the error bound; degrees are capped at ``max_degree``, mirroring
    how a real verifier would give up and partition instead.
    """

    if target_error <= 0:
        raise ValueError("target_error must be positive")
    widths = box.widths
    # With a uniform degree d: error = L/2 * sqrt(sum(w_i^2) / d)  =>  d = L^2 sum(w^2) / (4 err^2)
    required = (lipschitz_constant**2) * float(np.sum(widths**2)) / (4.0 * target_error**2)
    degree = int(np.clip(np.ceil(required), 1, max_degree))
    return np.full(box.dimension, degree, dtype=int)


# ----------------------------------------------------------------------
# Batched kernels on the (num_partitions, ...) stacked representation
# ----------------------------------------------------------------------


def _binomials(degree: int) -> np.ndarray:
    """``C(degree, k)`` for ``k = 0..degree`` as float64.

    Exact integers rounded once; equal to SciPy's float ``comb`` bit for bit
    up to degree 30, where SciPy's own rounding starts to differ.
    """

    return np.array([math.comb(degree, k) for k in range(degree + 1)], dtype=np.float64)


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

    ``G = prod(degrees + 1)`` points per box, in the same ``ij`` meshgrid
    order (and with the same per-axis ``linspace`` arithmetic) as the
    single-box grid, so row ``p`` reproduces ``Box(lows[p], highs[p])``'s
    scalar grid exactly.  In ``ij`` order, axis ``k``'s column of the
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
    coefficients equal a per-box fit bit for bit.
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


def bernstein_evaluate_batch(
    coefficients: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    degrees: Sequence[int],
    points: np.ndarray,
) -> np.ndarray:
    """Evaluate box ``p``'s polynomial at ``points[p]``, shape ``(P, out)``.

    Contracts one axis of the stacked coefficient tensor per input
    dimension against the batched Bernstein basis -- ``dim`` einsum calls
    for the whole stack instead of ``P`` scalar de-Casteljau loops.
    """

    lows = np.atleast_2d(np.asarray(lows, dtype=np.float64))
    highs = np.atleast_2d(np.asarray(highs, dtype=np.float64))
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    degrees = _normalised_degrees(degrees, lows.shape[1])
    widths = highs - lows
    widths = np.where(widths == 0.0, 1.0, widths)
    t = np.clip((points - lows) / widths, 0.0, 1.0)
    result = coefficients
    for axis, degree in enumerate(degrees):
        ks = np.arange(int(degree) + 1)
        t_axis = t[:, axis : axis + 1]
        basis = _binomials(int(degree)) * (t_axis**ks) * ((1.0 - t_axis) ** (int(degree) - ks))
        result = np.einsum("pk,pk...->p...", basis, result)
    return result


class BernsteinApproximation:
    """Bernstein polynomial fit of a (possibly vector-valued) function on a box.

    The single-box view of the batched kernels above: construction fits the
    coefficients as the batch-of-one special case of
    :func:`bernstein_coefficients_batch` (same grid arithmetic, same stacked
    network evaluation), so a scalar fit and row ``p`` of a batched fit are
    bit-for-bit identical.
    """

    def __init__(
        self,
        function: FunctionLike,
        box: Box,
        degrees: Union[int, Sequence[int]],
        lipschitz_constant: Optional[float] = None,
        coefficients: Optional[np.ndarray] = None,
    ):
        self.box = box
        self.degrees = _normalised_degrees(degrees, box.dimension)
        self._function = function
        if lipschitz_constant is None and isinstance(function, MLP):
            lipschitz_constant = network_lipschitz(function)
        self.lipschitz_constant = lipschitz_constant
        if coefficients is None:
            coefficients = bernstein_coefficients_batch(
                function, box.low[None, :], box.high[None, :], self.degrees
            )[0]
        self.coefficients = coefficients

    @classmethod
    def from_coefficients(
        cls,
        function: FunctionLike,
        box: Box,
        degrees: Union[int, Sequence[int]],
        coefficients: np.ndarray,
        lipschitz_constant: Optional[float] = None,
    ) -> "BernsteinApproximation":
        """Wrap a precomputed coefficient tensor (e.g. one row of a batched fit)."""

        return cls(function, box, degrees, lipschitz_constant=lipschitz_constant, coefficients=coefficients)

    # ------------------------------------------------------------------
    def _evaluate_function(self, points: np.ndarray) -> np.ndarray:
        return _evaluate_function_batch(self._function, points)

    # ------------------------------------------------------------------
    @property
    def output_dim(self) -> int:
        return int(self.coefficients.shape[-1])

    def _basis(self, t: float, degree: int) -> np.ndarray:
        ks = np.arange(degree + 1)
        return _binomials(degree) * (t**ks) * ((1.0 - t) ** (degree - ks))

    def evaluate(self, point: Sequence[float]) -> np.ndarray:
        """Evaluate the Bernstein polynomial at one point inside the box."""

        point = np.asarray(point, dtype=np.float64)
        widths = np.where(self.box.widths == 0.0, 1.0, self.box.widths)
        t = np.clip((point - self.box.low) / widths, 0.0, 1.0)
        result = self.coefficients
        for axis, (value, degree) in enumerate(zip(t, self.degrees)):
            basis = self._basis(float(value), int(degree))
            result = np.tensordot(basis, result, axes=([0], [0]))
        return np.atleast_1d(result)

    def error_bound(self) -> float:
        """Uniform approximation error bound epsilon over the box."""

        if self.lipschitz_constant is None:
            raise ValueError("a Lipschitz constant is needed for the analytic error bound")
        return bernstein_error_bound(self.lipschitz_constant, self.box, self.degrees)

    def empirical_error(self, samples: int = 256, rng=None) -> float:
        """Sampled maximum deviation between the polynomial and the function."""

        points = self.box.sample(rng, count=samples)
        function_values = self._evaluate_function(points)
        polynomial_values = np.stack([self.evaluate(point) for point in points], axis=0)
        return float(np.max(np.abs(function_values - polynomial_values)))

    def range_enclosure(self, include_error: bool = True) -> Interval:
        """Output bounds over the box from the coefficient min/max (+ error)."""

        flat = self.coefficients.reshape(-1, self.output_dim)
        lower = flat.min(axis=0)
        upper = flat.max(axis=0)
        if include_error and self.lipschitz_constant is not None:
            epsilon = self.error_bound()
            lower = lower - epsilon
            upper = upper + epsilon
        return Interval(lower, upper)

    def num_coefficients(self) -> int:
        """Number of stored coefficients: the verification-cost driver."""

        return int(np.prod([degree + 1 for degree in self.degrees]))
