#!/usr/bin/env python
"""Print one identity line per frozen benchmark student's verification.

Runs ``verify_controller`` on each frozen kappa* student under
``perfbench/students/`` with the benchmark's own ``verify`` budgets and
prints, per scenario::

    <scenario> status=<reach status> partitions=<P> epsilon=<repr(eps)>
        steps=<reach steps completed> work=<reach work>
        iterations=<invariant elimination sweeps, or - without one> sha256=<digest>

(on one line), where the digest covers every reach box (low and high bytes,
in order) and the invariant mask (when the scenario computes one).  Two
trees print the same lines exactly when their verdicts, reach boxes, reach
counters, approximation errors, partition counts, invariant masks and
elimination sweep counts are identical, so comparing the output before and
after a change is a one-command identity check::

    make verify-digests          # or: python tools/verify_digests.py

BLAS is pinned to one thread, as in the benchmark.  The students are read,
never written, and no bytecode is cached under ``perfbench/``.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.dont_write_bytecode = True
REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "perfbench"), str(REPO / "src")]

from fixtures import load_fixtures, pin_threads  # noqa: E402

pin_threads()

from workloads import INVARIANT_GRID, SCENARIOS, VERIFY_BUDGETS  # noqa: E402


def digest_line(name: str, report) -> str:
    """The identity line of one scenario's verification report."""

    import numpy as np

    reach = report.reachability
    digest = hashlib.sha256()
    for box in reach.boxes:
        digest.update(np.ascontiguousarray(box.low, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(box.high, dtype=np.float64).tobytes())
    if report.invariant is not None:
        digest.update(np.ascontiguousarray(report.invariant.invariant_mask, dtype=bool).tobytes())
    iterations = "-" if report.invariant is None else report.invariant.iterations
    return (
        f"{name} status={reach.status} partitions={report.num_partitions} "
        f"epsilon={report.approximation_error!r} steps={reach.steps_completed} work={reach.work} "
        f"iterations={iterations} sha256={digest.hexdigest()}"
    )


def main() -> int:
    from repro.nn.network import MLP
    from repro.verification.verifier import verify_controller

    fixtures = load_fixtures(SCENARIOS)
    for name in SCENARIOS:
        arrays, architecture = fixtures.students[name]
        network = MLP.from_architecture(architecture)
        network.load_state_dict(arrays)
        system = fixtures.systems[name]
        budget = VERIFY_BUDGETS[name]
        report = verify_controller(
            system,
            network,
            name=f"kappa_star@{name}",
            target_error=budget["target_error"],
            degree=budget["degree"],
            max_partitions=budget["max_partitions"],
            reach_initial_box=system.initial_set.scale(budget["reach_box_scale"]),
            reach_steps=budget["reach_steps"],
            invariant_grid=INVARIANT_GRID[name],
        )
        print(digest_line(name, report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
