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
computed with a handful of NumPy calls (one network forward pass for all
grids).  :class:`BernsteinApproximation` is the single-box view: its fit is
the batch-of-one special case of the same kernels, so a box fitted alone and
the same box fitted in a stack have bit-identical coefficients.
:class:`CoefficientCache` memoises coefficient tensors keyed by box, so a
box revisited during refinement or repeated reachability queries is never
refit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import comb

from repro.nn.lipschitz import network_lipschitz
from repro.nn.network import MLP
from repro.systems.sets import Box
from repro.verification.intervals import Interval, apply_row_blocked

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
    whether it was fitted alone or stacked with any number of others.
    """

    if isinstance(function, MLP):
        return np.atleast_2d(apply_row_blocked(function._run, points))
    return np.atleast_2d(np.stack([np.atleast_1d(function(point)) for point in points], axis=0))


def bernstein_coefficients_batch(
    function: FunctionLike, lows: np.ndarray, highs: np.ndarray, degrees: Sequence[int]
) -> np.ndarray:
    """Coefficient tensors for a box stack, shape ``(P, *degrees + 1, out)``.

    All ``P`` grids are evaluated with a *single* forward pass through the
    function (one stacked ``(P * G, dim)`` batch for an MLP), which is the
    core speedup over fitting one partition at a time.
    """

    lows, highs = _normalised_box_stack(lows, highs)
    count, dimension = lows.shape
    degrees = _normalised_degrees(degrees, dimension)
    grids = bernstein_grid_batch(lows, highs, degrees)
    values = _evaluate_function_batch(function, grids.reshape(-1, dimension))
    shape = (count,) + tuple(int(degree) + 1 for degree in degrees) + (values.shape[-1],)
    return values.reshape(shape)


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
        basis = comb(int(degree), ks) * (t_axis**ks) * ((1.0 - t_axis) ** (int(degree) - ks))
        result = np.einsum("pk,pk...->p...", basis, result)
    return result


class CoefficientCache:
    """Memoises Bernstein coefficient tensors keyed by (box, degrees).

    During refinement and reachability the same box is queried repeatedly --
    most prominently when a reach box covers a whole partition, so the
    "local" fit over the overlap *is* the partition's fit.  The cache keys
    on the exact bound bytes, fits only the missing boxes (in one stacked
    network evaluation) and keeps a bounded FIFO of tensors.
    """

    def __init__(self, function: FunctionLike, max_entries: int = 65536):
        self._function = function
        self._store: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0

    def _function_tag(self) -> bytes:
        """Identity of the fitted function, folded into every key.

        For an MLP this is a digest of the current weights, so sharing a
        cache across networks -- or mutating a network's weights between
        partitionings -- can never serve another function's coefficients.
        Computed once per :meth:`get_batch` call, never per box.  Non-MLP callables are keyed by
        object identity.
        """

        if isinstance(self._function, MLP):
            from repro.nn.lipschitz import _weights_digest

            return _weights_digest(self._function).encode("utf-8")
        return repr(id(self._function)).encode("utf-8")

    def _keys(self, lows: np.ndarray, highs: np.ndarray, degrees: np.ndarray) -> list:
        """One key per row of a ``(P, dim)`` box stack, under one tag."""

        prefix = self._function_tag() + degrees.tobytes()
        return [prefix + lows[index].tobytes() + highs[index].tobytes() for index in range(lows.shape[0])]

    def __len__(self) -> int:
        return len(self._store)

    def _evict(self) -> None:
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)

    def get_batch(self, lows: np.ndarray, highs: np.ndarray, degrees: Sequence[int]) -> np.ndarray:
        """Stacked coefficients for a ``(P, dim)`` box stack, fitting only misses."""

        lows, highs = _normalised_box_stack(lows, highs)
        degrees = _normalised_degrees(degrees, lows.shape[1])
        keys = self._keys(lows, highs, degrees)
        missing = [index for index, key in enumerate(keys) if key not in self._store]
        self.hits += len(keys) - len(missing)
        self.misses += len(missing)
        tensors = [self._store.get(key) for key in keys]
        if missing:
            fresh = bernstein_coefficients_batch(
                self._function, lows[missing], highs[missing], degrees
            )
            for position, index in enumerate(missing):
                tensors[index] = fresh[position]
                self._store[keys[index]] = fresh[position]
            self._evict()
        return np.stack(tensors, axis=0)


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
        return comb(degree, ks) * (t**ks) * ((1.0 - t) ** (degree - ks))

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
