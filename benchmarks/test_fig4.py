"""Fig. 4: reachable set of the 3-D system over the first 15 control steps.

The paper propagates the reachable set of the 3-D system from the corner box
``[-0.11, -0.105] x [0.205, 0.21] x [0.1, 0.11]`` for 15 steps: kappa*
verifies within minutes while kappa_D aborts (memory blow-up after 12
reachable-set computations) because of its larger Lipschitz constant.

The benchmark reproduces the protocol: both students are analysed from the
same initial box with the same work budget; kappa* is expected to complete
("verified") using no more work than kappa_D, whose larger Lipschitz
constant forces more partitions.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.nn.lipschitz import network_lipschitz
from repro.systems.sets import Box
from repro.utils.plotting import box_series_table
from repro.verification import verify_controller

PAPER_INITIAL_BOX = Box([-0.11, 0.205, 0.1], [-0.105, 0.21, 0.11])
REACH_STEPS = 15


def test_fig4_reachability(benchmark, scale, pipeline_results):
    bundle = pipeline_results["3d"]
    system = bundle["system"]
    result = bundle["result"]
    students = {"kappa_star": result.student, "kappaD": result.direct_student}

    # The same finite resource budget for both controllers, mimicking the
    # fixed memory of the paper's verification server.
    work_budget = 40 * scale.max_partitions * 4**3

    def compute_all():
        reports = {}
        for name, controller in students.items():
            reports[name] = verify_controller(
                system,
                controller.network,
                name=name,
                target_error=0.4,
                degree=3,
                max_partitions=scale.max_partitions,
                reach_initial_box=PAPER_INITIAL_BOX,
                reach_steps=REACH_STEPS,
                reach_work_budget=work_budget,
            ).reachability
        return reports

    reports = run_once(benchmark, compute_all)

    print()
    print(f"Fig. 4 (3-D system reachability, {scale.name} scale, {REACH_STEPS} steps)")
    for name, report in reports.items():
        lipschitz = network_lipschitz(students[name].network)
        print(
            f"  {name}: L = {lipschitz:.2f}, partitions = {report.num_partitions}, "
            f"status = {report.status} after {report.steps_completed} steps, "
            f"work = {report.work}, time = {report.elapsed_seconds:.2f}s"
        )
        table = box_series_table(report.boxes, dimensions=(0, 1), title=f"    reach tube (x, y) for {name}")
        print("\n".join("    " + line for line in table.splitlines()[1:]))

    robust = reports["kappa_star"]
    direct = reports["kappaD"]
    # Shape checks: the robust student completes its analysis and needs no
    # more verification work than the direct student.
    assert robust.status == "verified"
    assert robust.num_partitions <= direct.num_partitions
    assert robust.work <= direct.work
