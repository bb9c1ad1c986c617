"""Fig. 3: invariant set of the oscillator for kappa* vs kappa_D.

The paper computes the control invariant set X_I of the Van der Pol
oscillator for both distilled controllers: kappa* verifies in ~32 minutes
with their toolchain whereas kappa_D needs ~11 hours and yields a more
conservative set, and 1500 simulations from inside X_I all remain safe.

This benchmark reproduces the same protocol with the repository's Bernstein
+ interval verifier: it reports the invariant-set fraction, partition count
and wall-clock time for both controllers, and replays simulations from the
robust student's invariant set to confirm they stay safe.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import run_once
from repro.systems.simulation import rollout
from repro.utils.plotting import ascii_heatmap
from repro.verification import verify_controller

SIMULATION_CHECKS = 150  # the paper uses 1500; scaled down for the quick mode


def test_fig3_invariant_set(benchmark, scale, pipeline_results):
    bundle = pipeline_results["vanderpol"]
    system = bundle["system"]
    result = bundle["result"]
    students = {"kappa_star": result.student, "kappaD": result.direct_student}

    def compute_all():
        reports = {}
        for name, controller in students.items():
            reports[name] = verify_controller(
                system,
                controller.network,
                name=name,
                target_error=0.5,
                degree=3,
                max_partitions=scale.max_partitions,
                invariant_grid=scale.invariant_grid,
            )
        return reports

    reports = run_once(benchmark, compute_all)

    print()
    print(f"Fig. 3 (oscillator invariant sets, {scale.name} scale)")
    for name, report in reports.items():
        invariant = report.invariant
        print(
            f"  {name}: L = {report.lipschitz_constant:.2f}, partitions = {invariant.num_partitions}, "
            f"invariant fraction = {100 * invariant.volume_fraction():.1f}% of X, "
            f"iterations = {invariant.iterations}, time = {report.total_seconds:.1f}s"
        )
        if invariant.volume_fraction() > 0:
            heatmap = ascii_heatmap(invariant.invariant_mask, invariant.grid_resolution, title=f"X_I for {name}")
            print("  " + heatmap.replace("\n", "\n  "))

    robust_report = reports["kappa_star"].invariant
    direct_report = reports["kappaD"].invariant

    # Shape checks mirroring the paper's observations.
    # 1) The robust student needs no more partitions (verification work) than
    #    the direct student.
    assert robust_report.num_partitions <= direct_report.num_partitions
    # 2) Its invariant set is at least as large (kappa_D's is more conservative).
    assert robust_report.volume_fraction() >= direct_report.volume_fraction() - 1e-9

    # 3) Simulations from inside the invariant set remain safe (the paper's
    #    1500-simulation check).
    cells = robust_report.invariant_cells
    if cells:
        rng = np.random.default_rng(0)
        unsafe = 0
        for _ in range(SIMULATION_CHECKS):
            cell = cells[int(rng.integers(0, len(cells)))]
            trajectory = rollout(system, result.student, cell.sample(rng), horizon=100, rng=rng)
            if not trajectory.safe:
                unsafe += 1
        print(f"  simulations from X_I (kappa_star): {SIMULATION_CHECKS - unsafe}/{SIMULATION_CHECKS} safe")
        assert unsafe <= int(0.02 * SIMULATION_CHECKS)
