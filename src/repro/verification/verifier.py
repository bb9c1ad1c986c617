"""High-level verification driver used by the benchmarks and the sweep.

Wraps the partitioning, reachability and invariant-set machinery into a
single call that reports everything the paper's verifiability comparison
needs: verdicts, wall-clock times, the number of partitions, the Bernstein
approximation error and the work performed, for a given neural controller.
It is the one place that partitions: the network is partitioned once and
both analyses take that :class:`PartitionedApproximation`.

The analyses run the frontier-batched partitioner and the stacked
Bernstein/IBP enclosure kernels.  Many (controller, system) verification
jobs can be fanned out across processes with
:class:`repro.verification.sweep.VerificationSweep`; with two CPUs the
invariant-set analysis splits its grid's control enclosures between this
process and one :class:`~repro.utils.parallel.TaskExecutor` worker.  Both
run on the executor of the matrix and kappa_D, which does not nest: inside
a sweep's pool worker the invariant analysis runs inline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.nn.lipschitz import network_lipschitz
from repro.nn.network import MLP
from repro.systems.base import ControlSystem
from repro.systems.sets import Box
from repro.verification.invariant import InvariantSetResult, compute_invariant_set
from repro.verification.partition import PartitionedApproximation, partition_network
from repro.verification.reachability import ReachabilityResult, reachable_sets


@dataclass
class VerificationReport:
    """Everything measured while verifying one neural controller."""

    controller_name: str
    lipschitz_constant: float
    num_partitions: int
    approximation_error: float
    partition_seconds: float
    reachability: Optional[ReachabilityResult] = None
    invariant: Optional[InvariantSetResult] = None

    @property
    def total_seconds(self) -> float:
        total = self.partition_seconds
        if self.reachability is not None:
            total += self.reachability.elapsed_seconds
        if self.invariant is not None:
            total += self.invariant.elapsed_seconds
        return total

    @property
    def verified(self) -> bool:
        verdicts = []
        if self.reachability is not None:
            verdicts.append(self.reachability.safe)
        if self.invariant is not None:
            verdicts.append(self.invariant.volume_fraction() > 0.0)
        return bool(verdicts) and all(verdicts)

    def summary(self) -> dict:
        summary = {
            "controller": self.controller_name,
            "lipschitz": self.lipschitz_constant,
            "partitions": self.num_partitions,
            "epsilon": self.approximation_error,
            "total_seconds": self.total_seconds,
            "verified": self.verified,
        }
        if self.reachability is not None:
            summary["reach_status"] = self.reachability.status
            summary["reach_seconds"] = self.reachability.elapsed_seconds
            summary["reach_work"] = self.reachability.work
            summary["reach_steps"] = self.reachability.steps_completed
        if self.invariant is not None:
            summary["invariant_fraction"] = self.invariant.volume_fraction()
            summary["invariant_seconds"] = self.invariant.elapsed_seconds
            summary["invariant_work"] = self.invariant.work
        return summary


def verify_controller(
    system: ControlSystem,
    network: MLP,
    name: str = "controller",
    target_error: float = 0.5,
    degree: int = 3,
    max_partitions: int = 2048,
    reach_initial_box: Optional[Box] = None,
    reach_steps: int = 15,
    reach_work_budget: Optional[int] = None,
    invariant_grid: Optional[int] = None,
    time_budget_seconds: Optional[float] = None,
) -> VerificationReport:
    """Run the selected verification analyses on one neural controller.

    ``reach_initial_box`` enables the bounded-horizon reachability analysis
    (Fig. 4); ``invariant_grid`` enables the invariant-set computation
    (Fig. 3).  Either may be omitted to run only the other analysis.

    ``time_budget_seconds`` is a wall-clock budget checked at phase
    boundaries: a reachability analysis that has not started when the
    budget runs out is reported with ``status='resource-exhausted'`` (zero
    steps), and a pending invariant-set analysis is skipped.
    """

    start = time.perf_counter()
    deadline = start + float(time_budget_seconds) if time_budget_seconds is not None else None
    lipschitz_constant = network_lipschitz(network)
    approximation: PartitionedApproximation = partition_network(
        network,
        system.safe_region,
        target_error=target_error,
        degree=degree,
        max_partitions=max_partitions,
        lipschitz_constant=lipschitz_constant,
    )
    partition_seconds = time.perf_counter() - start

    def budget_exhausted() -> bool:
        return deadline is not None and time.perf_counter() > deadline

    reach_result: Optional[ReachabilityResult] = None
    if reach_initial_box is not None:
        if budget_exhausted():
            reach_result = ReachabilityResult(
                boxes=[reach_initial_box],
                status="resource-exhausted",
                steps_completed=0,
                elapsed_seconds=0.0,
                work=0,
                num_partitions=approximation.num_partitions,
                approximation_error=approximation.max_error,
            )
        else:
            reach_result = reachable_sets(
                system,
                approximation,
                reach_initial_box,
                steps=reach_steps,
                work_budget=reach_work_budget,
            )

    invariant_result: Optional[InvariantSetResult] = None
    if invariant_grid is not None and not budget_exhausted():
        invariant_result = compute_invariant_set(system, approximation, grid_resolution=invariant_grid)

    return VerificationReport(
        controller_name=name,
        lipschitz_constant=lipschitz_constant,
        num_partitions=approximation.num_partitions,
        approximation_error=approximation.max_error,
        partition_seconds=partition_seconds,
        reachability=reach_result,
        invariant=invariant_result,
    )
