"""Reachable-set over-approximation of the neural-controlled closed loop.

Combines the pieces of Section III-C: the controller is abstracted by the
partitioned Bernstein surrogate (its approximation error is folded into the
disturbance, ``Omega_hat = Omega (+) eps``), and the plant dynamics are
evaluated with interval arithmetic.  Starting from an initial box, the
procedure produces one state box per step; safety over the horizon holds if
every box stays inside the safe region ``X`` (Fig. 4's experiment).

Each horizon step consumes the **batched** surrogate on a one-row stack:
the controller enclosure over the current box is one
:meth:`PartitionedApproximation.control_bounds_batch` call (one stacked
Bernstein + IBP evaluation across every overlapped partition, through the
partition's coefficient cache), followed by one
:func:`interval_dynamics_batch` step -- a handful of NumPy calls per step
instead of a Python loop over partitions.

A per-run resource budget models the behaviour the paper reports for
``kappa_D`` on the 3-D system ("memory segmentation fault after 12 reachable
set computations"): when the accumulated work (Bernstein coefficients
evaluated across partitions) exceeds the budget, verification aborts with
``status='resource-exhausted'`` instead of running forever.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.systems.base import ControlSystem
from repro.systems.sets import Box
from repro.verification.intervals import Interval
from repro.verification.partition import PartitionedApproximation
from repro.verification.system_models import interval_dynamics_batch


@dataclass
class ReachabilityResult:
    """Outcome of a bounded-horizon reachability run."""

    #: One box per step, starting with the initial box.
    boxes: List[Box]
    #: "verified", "unsafe", or "resource-exhausted".
    status: str
    #: Number of steps actually completed.
    steps_completed: int
    #: Wall-clock time of the computation in seconds.
    elapsed_seconds: float
    #: Total Bernstein coefficients evaluated (the work / memory proxy).
    work: int
    #: Number of controller partitions used.
    num_partitions: int
    #: Approximation error folded into the disturbance.
    approximation_error: float

    @property
    def safe(self) -> bool:
        return self.status == "verified"


def reachable_sets(
    system: ControlSystem,
    approximation: PartitionedApproximation,
    initial_box: Box,
    steps: int,
    work_budget: Optional[int] = None,
) -> ReachabilityResult:
    """Propagate ``initial_box`` for ``steps`` steps under the surrogate controller."""

    if steps <= 0:
        raise ValueError("steps must be positive")
    start = time.perf_counter()
    disturbance = Interval.from_box(system.disturbance.bound())
    control_low = system.control_bound.low
    control_high = system.control_bound.high
    epsilon = approximation.max_error
    boxes: List[Box] = [initial_box]
    current = initial_box
    work = 0
    status = "verified"

    for step in range(steps):
        if not system.safe_region.contains_box(current, tolerance=1e-9):
            status = "unsafe"
            break
        query = system.safe_region.intersection(current) or current
        lower, upper = approximation.control_bounds_batch(query.low[None, :], query.high[None, :])
        work += approximation.total_coefficients()
        if work_budget is not None and work > work_budget:
            status = "resource-exhausted"
            break
        # The control bounds already account for the Bernstein approximation
        # error (Omega_hat = Omega (+) eps in the paper's notation), so the
        # only remaining step is clipping to the admissible control box.
        control = Interval(np.clip(lower, control_low, control_high), np.clip(upper, control_low, control_high))
        image = interval_dynamics_batch(
            system, Interval(current.low[None, :], current.high[None, :]), control, disturbance
        )
        current = Box(image.lower[0], image.upper[0])
        boxes.append(current)
    else:
        if not system.safe_region.contains_box(current, tolerance=1e-9):
            status = "unsafe"

    elapsed = time.perf_counter() - start
    return ReachabilityResult(
        boxes=boxes,
        status=status,
        steps_completed=step + 1,
        elapsed_seconds=elapsed,
        work=work,
        num_partitions=approximation.num_partitions,
        approximation_error=epsilon,
    )

