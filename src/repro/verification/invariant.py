"""Control-invariant-set computation for neural-controlled systems.

Definition 1 of the paper: ``X_I`` is a subset of the safe region such that
every trajectory starting in it stays in it forever (for every admissible
disturbance).  We compute an inner approximation with the standard
grid-based fixed-point elimination used by invariant-set tools such as the
one of Xue & Zhan (reference [22]):

1. grid the safe region into cells;
2. over-approximate, once per cell, the one-step image of the cell under the
   Bernstein surrogate of the controller (error folded into the
   disturbance) with interval arithmetic;
3. repeatedly remove every cell whose image is not covered by the remaining
   cells, until a fixed point is reached.

The surviving union of cells is control invariant by construction.  Cells
whose image computation is more conservative (wider control intervals --
i.e. a larger controller Lipschitz constant) are eliminated more often, so a
high-``L`` controller yields a smaller invariant set computed in more time:
the Fig. 3 comparison.

Step 2 -- the dominant cost -- consumes the **batched** surrogate: the
control enclosures of the cells are computed as stacked Bernstein + IBP
evaluations (:meth:`PartitionedApproximation.control_bounds_batch`), the
one-step images as one vectorised interval-dynamics call, and the
grid-index ranges as a few array expressions.  With two CPUs the first half
of the cells' enclosures runs on a :class:`~repro.utils.parallel.TaskExecutor`
worker while this process computes the second half; each query row's
enclosure does not depend on the rows batched with it, so the split changes
no bit of the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.systems.base import ControlSystem
from repro.systems.sets import Box
from repro.utils.parallel import TaskExecutor, default_worker_count
from repro.verification.intervals import Interval
from repro.verification.partition import PartitionedApproximation
from repro.verification.system_models import interval_dynamics_batch


@dataclass
class InvariantSetResult:
    """Outcome of the invariant-set computation."""

    #: All grid cells of the safe region.
    cells: List[Box]
    #: Boolean mask: True for cells belonging to the invariant set.
    invariant_mask: np.ndarray
    #: Number of elimination sweeps until the fixed point.
    iterations: int
    #: Wall-clock time in seconds.
    elapsed_seconds: float
    #: Total one-step image computations performed (work proxy).
    work: int
    #: Number of controller partitions used by the Bernstein surrogate.
    num_partitions: int
    #: Approximation error folded into the disturbance.
    approximation_error: float
    #: Per-dimension grid resolution.
    grid_resolution: int

    @property
    def invariant_cells(self) -> List[Box]:
        return [cell for cell, alive in zip(self.cells, self.invariant_mask) if alive]

    def volume_fraction(self) -> float:
        """Fraction of the safe region covered by the invariant set."""

        total = sum(cell.volume() for cell in self.cells)
        inside = sum(cell.volume() for cell in self.invariant_cells)
        return inside / total if total > 0 else 0.0

    def contains(self, point: np.ndarray) -> bool:
        point = np.asarray(point, dtype=np.float64)
        return any(cell.contains(point) for cell in self.invariant_cells)


def _cell_index_ranges_batch(
    domain: Box, image_lows: np.ndarray, image_highs: np.ndarray, resolution: int
) -> List[Optional[List[Tuple[int, int]]]]:
    """Grid-index ranges overlapped by each of an ``(N, dim)`` image stack.

    Entry ``n`` lists one inclusive ``(first, last)`` cell range per axis,
    or is ``None`` when image ``n`` leaves the domain.
    """

    width = (domain.high - domain.low) / resolution
    outside = np.any(image_lows < domain.low - 1e-9, axis=-1) | np.any(
        image_highs > domain.high + 1e-9, axis=-1
    )
    first = np.clip(np.floor((image_lows - domain.low) / width), 0, resolution - 1).astype(int)
    last = np.clip(np.ceil((image_highs - domain.low) / width) - 1, 0, resolution - 1).astype(int)
    return [
        None if outside[index] else list(zip(first[index].tolist(), last[index].tolist()))
        for index in range(image_lows.shape[0])
    ]


def _control_bounds(
    approximation: PartitionedApproximation, lows: np.ndarray, highs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Pool task: the control enclosures of a stack of grid cells."""

    return approximation.control_bounds_batch(lows, highs)


def _grid_control_bounds(
    approximation: PartitionedApproximation, cell_lows: np.ndarray, cell_highs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Control enclosures of every grid cell, in cell order: the first half
    on a one-worker executor (inline on one CPU), the second half here.  A
    worker that dies raises :class:`~repro.utils.parallel.WorkerLost`
    naming ``invariant_control_bounds``."""

    half = cell_lows.shape[0] // 2
    outcomes = {}
    with TaskExecutor(1 if default_worker_count(2) > 1 else 0, outcomes.__setitem__) as executor:
        executor.submit(
            "invariant_control_bounds", _control_bounds, approximation, cell_lows[:half], cell_highs[:half]
        )
        second = approximation.control_bounds_batch(cell_lows[half:], cell_highs[half:])
        executor.drain()
    first = outcomes["invariant_control_bounds"]
    return np.concatenate([first[0], second[0]]), np.concatenate([first[1], second[1]])


def compute_invariant_set(
    system: ControlSystem,
    approximation: PartitionedApproximation,
    grid_resolution: int = 16,
    max_iterations: int = 200,
) -> InvariantSetResult:
    """Grid-based inner approximation of the control invariant set under
    the partitioned Bernstein surrogate ``approximation``."""

    if grid_resolution < 2:
        raise ValueError("grid_resolution must be at least 2")
    start = time.perf_counter()
    domain = system.safe_region
    epsilon = approximation.max_error
    disturbance_interval = Interval.from_box(system.disturbance.bound())

    cells = domain.subdivide(grid_resolution)
    num_cells = len(cells)
    alive = np.ones(num_cells, dtype=bool)
    shape = tuple([grid_resolution] * domain.dimension)

    # One-step image of every cell, computed once (it does not depend on the
    # current alive set).
    cell_lows = np.stack([cell.low for cell in cells], axis=0)
    cell_highs = np.stack([cell.high for cell in cells], axis=0)
    # control_bounds_batch already includes the Bernstein approximation
    # error; clip to the admissible control box.
    control_lower, control_upper = _grid_control_bounds(approximation, cell_lows, cell_highs)
    control_lower = np.clip(control_lower, system.control_bound.low, system.control_bound.high)
    control_upper = np.clip(control_upper, system.control_bound.low, system.control_bound.high)
    work = num_cells
    image = interval_dynamics_batch(
        system,
        Interval(cell_lows, cell_highs),
        Interval(control_lower, control_upper),
        disturbance_interval,
    )
    images = _cell_index_ranges_batch(domain, image.lower, image.upper, grid_resolution)

    alive_grid = alive.reshape(shape)
    iterations = 0
    changed = True
    while changed and iterations < max_iterations:
        changed = False
        iterations += 1
        flat_alive = alive_grid.reshape(-1)
        for index in range(num_cells):
            if not flat_alive[index]:
                continue
            ranges = images[index]
            if ranges is None:
                flat_alive[index] = False
                changed = True
                continue
            slices = tuple(slice(first, last + 1) for first, last in ranges)
            if not bool(np.all(alive_grid[slices])):
                flat_alive[index] = False
                changed = True
        alive_grid = flat_alive.reshape(shape)

    elapsed = time.perf_counter() - start
    return InvariantSetResult(
        cells=cells,
        invariant_mask=alive_grid.reshape(-1).copy(),
        iterations=iterations,
        elapsed_seconds=elapsed,
        work=work,
        num_partitions=approximation.num_partitions,
        approximation_error=epsilon,
        grid_resolution=grid_resolution,
    )
