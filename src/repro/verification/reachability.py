"""Reachable-set over-approximation of the neural-controlled closed loop.

Combines the pieces of Section III-C: the controller is abstracted by the
partitioned Bernstein surrogate (its approximation error is folded into the
disturbance, ``Omega_hat = Omega (+) eps``), and the plant dynamics are
evaluated with interval arithmetic.  Starting from an initial box, the
procedure produces one state box per step; safety over the horizon holds if
every box stays inside the safe region ``X`` (Fig. 4's experiment).

Each horizon step consumes the **batched** surrogate: the controller
enclosure over the current box is one stacked Bernstein + IBP evaluation
across every overlapped partition (through the partition's coefficient
cache), followed by one vectorised interval-dynamics step -- a handful of
NumPy calls per step instead of a Python loop over partitions.

A per-run resource budget models the behaviour the paper reports for
``kappa_D`` on the 3-D system ("memory segmentation fault after 12 reachable
set computations"): when the accumulated work (Bernstein coefficients
evaluated across partitions) exceeds the budget, verification aborts with
``status='resource-exhausted'`` instead of running forever.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.nn.network import MLP
from repro.systems.base import ControlSystem
from repro.systems.sets import Box
from repro.verification.intervals import Interval
from repro.verification.partition import PartitionedApproximation, partition_network
from repro.verification.system_models import interval_dynamics


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
    disturbance_box = system.disturbance.bound()
    epsilon = approximation.max_error
    boxes: List[Box] = [initial_box]
    current = initial_box
    work = 0
    status = "verified"

    for step in range(steps):
        if not system.safe_region.contains_box(current, tolerance=1e-9):
            status = "unsafe"
            break
        clipped_query = system.safe_region.intersection(current) or current
        control_bounds = approximation.control_bounds(clipped_query)
        work += approximation.total_coefficients()
        if work_budget is not None and work > work_budget:
            status = "resource-exhausted"
            break
        # control_bounds already accounts for the Bernstein approximation
        # error (Omega_hat = Omega (+) eps in the paper's notation), so the
        # only remaining step is clipping to the admissible control box.
        control = control_bounds.clip(system.control_bound.low, system.control_bound.high)
        state_interval = Interval.from_box(current)
        disturbance_interval = Interval.from_box(disturbance_box)
        next_interval = interval_dynamics(system, state_interval, control, disturbance_interval)
        current = next_interval.to_box()
        boxes.append(current)
    else:
        step = steps - 1
        if not system.safe_region.contains_box(current, tolerance=1e-9):
            status = "unsafe"

    elapsed = time.perf_counter() - start
    return ReachabilityResult(
        boxes=boxes,
        status=status,
        steps_completed=min(step + 1, steps) if steps else 0,
        elapsed_seconds=elapsed,
        work=work,
        num_partitions=approximation.num_partitions,
        approximation_error=epsilon,
    )


def verify_reach_safety(
    system: ControlSystem,
    network: MLP,
    initial_box: Box,
    steps: int,
    target_error: float = 0.5,
    degree: int = 3,
    max_partitions: int = 2048,
    work_budget: Optional[int] = None,
) -> ReachabilityResult:
    """End-to-end reachability verification of a neural controller.

    Builds the partitioned Bernstein surrogate over the safe region and runs
    :func:`reachable_sets`; this is the entry point the Fig. 4 benchmark
    uses, reporting both the verdict and the verification time.
    """

    approximation = partition_network(
        network,
        system.safe_region,
        target_error=target_error,
        degree=degree,
        max_partitions=max_partitions,
    )
    return reachable_sets(system, approximation, initial_box, steps, work_budget=work_budget)
