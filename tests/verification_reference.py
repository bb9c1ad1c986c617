"""Frozen one-box-at-a-time reference of the verification flow.

A helper module, not a test module (pytest does not collect it).  It keeps
the scalar code that ``repro.verification`` used to ship beside its batched
path, so the tests can pin the batched path to it bit for bit:

* the one-box views of the kernels: :class:`BernsteinApproximation` (a
  one-row coefficient fit plus the scalar point evaluator, the range
  enclosure and the analytic error bound), :func:`bernstein_error_bound`,
  :func:`binomials`, :func:`network_output_bounds`,
  :func:`refined_network_output_bounds` and :func:`interval_dynamics`;
* :func:`reference_partition` -- the FIFO-queue partitioner: pop a box,
  accept it when its Lipschitz error bound meets the target (or when
  splitting would overrun ``max_partitions``), otherwise bisect it with
  :meth:`Box.split` and enqueue both halves; then fit one
  :class:`BernsteinApproximation` per accepted box;
* :func:`reference_control_bounds` -- the per-overlap loop: intersect the
  query with every partition it touches, fit a fresh Bernstein model on
  each overlap, intersect its range enclosure with refined IBP bounds, and
  hull the results;
* :func:`reference_reachable_sets` -- the reach loop over those bounds;
* :func:`reference_invariant_set` -- one control enclosure and one
  interval-dynamics image per grid cell, then the elimination fixed point.

Beside the point evaluator and the scalar error bound, only one-row
wrappers and orchestration live here.  The kernels they call (grids,
coefficient fits, IBP, interval dynamics) are pinned separately against
their own frozen references by ``test_kernel_differential.py``.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.nn.lipschitz import network_lipschitz
from repro.nn.network import MLP
from repro.systems.sets import Box
from repro.verification.bernstein import bernstein_coefficients_batch
from repro.verification.intervals import (
    Interval,
    network_output_bounds_batch,
    refined_network_output_bounds_batch,
)
from repro.verification.invariant import InvariantSetResult
from repro.verification.reachability import ReachabilityResult
from repro.verification.system_models import interval_dynamics_batch
from repro.verification.verifier import VerificationReport


def binomials(degree: int) -> np.ndarray:
    """``C(degree, k)`` for ``k = 0..degree`` as float64 (exact integers rounded once)."""

    return np.array([math.comb(degree, k) for k in range(degree + 1)], dtype=np.float64)


def bernstein_error_bound(lipschitz_constant: float, box: Box, degrees) -> float:
    """Lipschitz error bound ``L/2 * sqrt(sum_i w_i^2 / d_i)`` of one box."""

    degrees = np.asarray(degrees, dtype=np.float64)
    if np.any(degrees < 1):
        raise ValueError("degrees must be at least 1")
    widths = box.widths
    return float(0.5 * lipschitz_constant * np.sqrt(np.sum(widths**2 / degrees)))


class BernsteinApproximation:
    """Bernstein polynomial of a function on one box, with a scalar evaluator.

    The fit is the one-row stack of
    :func:`repro.verification.bernstein.bernstein_coefficients_batch`;
    :meth:`evaluate` contracts the coefficient tensor with one Bernstein
    basis vector per axis at a single point.
    """

    def __init__(self, function, box: Box, degrees, lipschitz_constant=None, coefficients=None):
        if coefficients is None:
            coefficients = bernstein_coefficients_batch(function, box.low[None, :], box.high[None, :], degrees)[0]
        self.box = box
        self.coefficients = coefficients
        self.degrees = np.array(coefficients.shape[:-1], dtype=int) - 1
        self._function = function
        if lipschitz_constant is None and isinstance(function, MLP):
            lipschitz_constant = network_lipschitz(function)
        self.lipschitz_constant = lipschitz_constant

    @classmethod
    def from_coefficients(cls, function, box: Box, coefficients: np.ndarray, lipschitz_constant=None):
        """Wrap a precomputed coefficient tensor (e.g. one row of a batched fit)."""

        return cls(function, box, None, lipschitz_constant=lipschitz_constant, coefficients=coefficients)

    @property
    def output_dim(self) -> int:
        return int(self.coefficients.shape[-1])

    def evaluate(self, point) -> np.ndarray:
        """Evaluate the polynomial at one point inside the box."""

        point = np.asarray(point, dtype=np.float64)
        widths = np.where(self.box.widths == 0.0, 1.0, self.box.widths)
        t = np.clip((point - self.box.low) / widths, 0.0, 1.0)
        result = self.coefficients
        for value, degree in zip(t, self.degrees):
            ks = np.arange(degree + 1)
            basis = binomials(int(degree)) * (float(value) ** ks) * ((1.0 - float(value)) ** (degree - ks))
            result = np.tensordot(basis, result, axes=([0], [0]))
        return np.atleast_1d(result)

    def error_bound(self) -> float:
        if self.lipschitz_constant is None:
            raise ValueError("a Lipschitz constant is needed for the analytic error bound")
        return bernstein_error_bound(self.lipschitz_constant, self.box, self.degrees)

    def empirical_error(self, samples: int = 256, rng=None) -> float:
        """Sampled maximum deviation between the polynomial and the function."""

        points = self.box.sample(rng, count=samples)
        if isinstance(self._function, MLP):
            function_values = self._function.predict(points)
        else:
            function_values = np.asarray(self._function(points), dtype=np.float64).reshape(samples, -1)
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
        return int(np.prod(self.degrees + 1))


def network_output_bounds(network, box: Box) -> Interval:
    """IBP bounds of one box: the ``M = 1`` stack of the batch kernel."""

    lower, upper = network_output_bounds_batch(network, box.low[None, :], box.high[None, :])
    return Interval(lower[0], upper[0])


def interval_dynamics(system, state: Interval, control: Interval, disturbance: Interval) -> Interval:
    """One-step interval image of one state box: the ``N = 1`` stack."""

    image = interval_dynamics_batch(
        system,
        Interval(state.lower[None, :], state.upper[None, :]),
        Interval(control.lower[None, :], control.upper[None, :]),
        disturbance,
    )
    return Interval(image.lower[0], image.upper[0])


@dataclass
class ReferencePartition:
    """Per-partition boxes and Bernstein models, one object each."""

    network: object
    domain: Box
    boxes: List[Box]
    models: List[BernsteinApproximation]
    lipschitz_constant: float
    refinement_steps: int

    def __post_init__(self):
        self.lows = np.stack([box.low for box in self.boxes], axis=0)
        self.highs = np.stack([box.high for box in self.boxes], axis=0)

    @property
    def num_partitions(self) -> int:
        return len(self.boxes)

    @property
    def max_error(self) -> float:
        return max(model.error_bound() for model in self.models)

    def total_coefficients(self) -> int:
        return sum(model.num_coefficients() for model in self.models)

    def overlapping_indices(self, box: Box) -> np.ndarray:
        """Indices of partitions intersecting ``box`` (closed boxes)."""

        return np.nonzero(np.all(self.lows <= box.high, axis=-1) & np.all(box.low <= self.highs, axis=-1))[0]


def reference_refine(
    domain: Box, degrees: np.ndarray, lipschitz_constant: float, target_error: float, max_partitions: int
) -> Tuple[List[Box], int]:
    """Breadth-first refinement of ``domain``: accepted boxes and split count.

    Boxes are processed in FIFO order so that, when the partition budget
    runs out, the accepted boxes have roughly uniform size.
    """

    pending: deque = deque([domain])
    accepted: List[Box] = []
    refinements = 0
    while pending:
        box = pending.popleft()
        error = bernstein_error_bound(lipschitz_constant, box, degrees)
        if error <= target_error or (len(accepted) + len(pending) + 2) > max_partitions:
            accepted.append(box)
            continue
        first, second = box.split()
        pending.extend([first, second])
        refinements += 1
    return accepted, refinements


def reference_partition(
    network,
    domain: Box,
    target_error: float,
    degree: int = 3,
    max_partitions: int = 4096,
    lipschitz_constant: Optional[float] = None,
) -> ReferencePartition:
    """:func:`repro.verification.partition.partition_network`, one box at a time."""

    if lipschitz_constant is None:
        lipschitz_constant = network_lipschitz(network)
    degrees = np.full(domain.dimension, int(degree), dtype=int)
    accepted, refinements = reference_refine(domain, degrees, lipschitz_constant, target_error, max_partitions)
    models = [
        BernsteinApproximation(network, box, degrees=degrees, lipschitz_constant=lipschitz_constant)
        for box in accepted
    ]
    return ReferencePartition(network, domain, accepted, models, lipschitz_constant, refinements)


def refined_network_output_bounds(network, box: Box, splits_per_dim: int = 4) -> Interval:
    """Refined IBP bounds of one box: the ``M = 1`` case of the batch kernel."""

    lower, upper = refined_network_output_bounds_batch(
        network, box.low[None, :], box.high[None, :], splits_per_dim=splits_per_dim
    )
    return Interval(lower[0], upper[0])


def reference_control_bounds(partition: ReferencePartition, box: Box, include_error: bool = True) -> Interval:
    """Output enclosure over ``box``, one partition overlap at a time."""

    splits = 4 if partition.domain.dimension <= 2 else 2
    enclosure: Optional[Interval] = None
    for index in partition.overlapping_indices(box):
        overlap = partition.boxes[index].intersection(box)
        if overlap is None:
            continue
        local = BernsteinApproximation(
            partition.network,
            overlap,
            degrees=partition.models[index].degrees,
            lipschitz_constant=partition.lipschitz_constant,
        )
        bounds = local.range_enclosure(include_error=include_error)
        ibp = refined_network_output_bounds(partition.network, overlap, splits_per_dim=splits)
        lower = np.maximum(bounds.lower, ibp.lower)
        upper = np.minimum(bounds.upper, ibp.upper)
        tightened = Interval(np.minimum(lower, upper), upper)
        if enclosure is not None:
            tightened = Interval(
                np.minimum(enclosure.lower, tightened.lower), np.maximum(enclosure.upper, tightened.upper)
            )
        enclosure = tightened
    if enclosure is None:
        raise ValueError("query box does not intersect the partitioned domain")
    return enclosure


def reference_reachable_sets(
    system, partition: ReferencePartition, initial_box: Box, steps: int, work_budget: Optional[int] = None
) -> ReachabilityResult:
    """:func:`repro.verification.reachability.reachable_sets` over the reference bounds."""

    start = time.perf_counter()
    disturbance_interval = Interval.from_box(system.disturbance.bound())
    boxes: List[Box] = [initial_box]
    current = initial_box
    work = 0
    status = "verified"
    for step in range(steps):
        if not system.safe_region.contains_box(current, tolerance=1e-9):
            status = "unsafe"
            break
        query = system.safe_region.intersection(current) or current
        control_bounds = reference_control_bounds(partition, query)
        work += partition.total_coefficients()
        if work_budget is not None and work > work_budget:
            status = "resource-exhausted"
            break
        control = control_bounds.clip(system.control_bound.low, system.control_bound.high)
        current = interval_dynamics(system, Interval.from_box(current), control, disturbance_interval).to_box()
        boxes.append(current)
    else:
        step = steps - 1
        if not system.safe_region.contains_box(current, tolerance=1e-9):
            status = "unsafe"
    return ReachabilityResult(
        boxes=boxes,
        status=status,
        steps_completed=step + 1,
        elapsed_seconds=time.perf_counter() - start,
        work=work,
        num_partitions=partition.num_partitions,
        approximation_error=partition.max_error,
    )


def cell_index_ranges(domain: Box, box: Box, resolution: int) -> Optional[List[Tuple[int, int]]]:
    """Grid-index ranges overlapped by ``box``; ``None`` if it leaves the domain."""

    ranges: List[Tuple[int, int]] = []
    for axis in range(domain.dimension):
        width = (domain.high[axis] - domain.low[axis]) / resolution
        if box.low[axis] < domain.low[axis] - 1e-9 or box.high[axis] > domain.high[axis] + 1e-9:
            return None
        first = int(np.floor((box.low[axis] - domain.low[axis]) / width))
        last = int(np.ceil((box.high[axis] - domain.low[axis]) / width)) - 1
        first = int(np.clip(first, 0, resolution - 1))
        last = int(np.clip(last, 0, resolution - 1))
        ranges.append((first, last))
    return ranges


def reference_invariant_set(
    system, partition: ReferencePartition, grid_resolution: int, max_iterations: int = 200
) -> InvariantSetResult:
    """:func:`repro.verification.invariant.compute_invariant_set`, one cell at a time."""

    start = time.perf_counter()
    domain = system.safe_region
    disturbance_interval = Interval.from_box(system.disturbance.bound())
    cells = domain.subdivide(grid_resolution)
    images = []
    for cell in cells:
        control = reference_control_bounds(partition, cell).clip(system.control_bound.low, system.control_bound.high)
        image = interval_dynamics(system, Interval.from_box(cell), control, disturbance_interval)
        images.append(cell_index_ranges(domain, image.to_box(), grid_resolution))

    shape = (grid_resolution,) * domain.dimension
    alive = np.ones(shape, dtype=bool)
    iterations = 0
    changed = True
    while changed and iterations < max_iterations:
        changed = False
        iterations += 1
        for index, ranges in enumerate(images):
            cell = np.unravel_index(index, shape)
            if not alive[cell]:
                continue
            if ranges is None or not alive[tuple(slice(first, last + 1) for first, last in ranges)].all():
                alive[cell] = False
                changed = True
    return InvariantSetResult(
        cells=cells,
        invariant_mask=alive.reshape(-1),
        iterations=iterations,
        elapsed_seconds=time.perf_counter() - start,
        work=len(cells),
        num_partitions=partition.num_partitions,
        approximation_error=partition.max_error,
        grid_resolution=grid_resolution,
    )


def reference_verify_controller(
    system,
    network,
    name: str = "controller",
    target_error: float = 0.5,
    degree: int = 3,
    max_partitions: int = 2048,
    reach_initial_box: Optional[Box] = None,
    reach_steps: int = 15,
    reach_work_budget: Optional[int] = None,
    invariant_grid: Optional[int] = None,
) -> VerificationReport:
    """:func:`repro.verification.verifier.verify_controller` on the reference flow."""

    start = time.perf_counter()
    lipschitz_constant = network_lipschitz(network)
    partition = reference_partition(
        network, system.safe_region, target_error, degree, max_partitions, lipschitz_constant
    )
    partition_seconds = time.perf_counter() - start
    reach = None
    if reach_initial_box is not None:
        reach = reference_reachable_sets(system, partition, reach_initial_box, reach_steps, reach_work_budget)
    invariant = None
    if invariant_grid is not None:
        invariant = reference_invariant_set(system, partition, invariant_grid)
    return VerificationReport(
        controller_name=name,
        lipschitz_constant=lipschitz_constant,
        num_partitions=partition.num_partitions,
        approximation_error=partition.max_error,
        partition_seconds=partition_seconds,
        reachability=reach,
        invariant=invariant,
    )
