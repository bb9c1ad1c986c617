"""Regenerate the frozen kappa* students the ``verify`` workload verifies.

Trains every catalog scenario once with the ``train`` workload's code
(``jobs.runner.execute_train`` at the pinned budgets and widths, seed 0)
and writes ``students/<scenario>.npz`` plus ``students/manifest.json``
with each student's weights digest.  Run from the repository root::

    python3 perfbench/freeze.py

Regenerating changes the ``verify`` workload: do it only in a change that
redefines the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from fixtures import MANIFEST, ROOT, STUDENTS, pin_threads, student_digest

SEED = 0


def main() -> int:
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from repro.jobs.runner import execute_train
    from repro.utils.persistence import load_student_controller
    from workloads import SCENARIOS, train_spec

    STUDENTS.mkdir(exist_ok=True)
    entries = {}
    scratch = tempfile.mkdtemp(prefix="freeze-", dir=ROOT)
    try:
        for name in SCENARIOS:
            output = os.path.join(scratch, name)
            execute_train(train_spec(name, SEED, output))
            target = STUDENTS / f"{name}.npz"
            shutil.copyfile(os.path.join(output, "kappa_star.npz"), target)
            digest = student_digest(load_student_controller(output).network)
            entries[name] = {"file": target.name, "weights_digest": digest, "seed": SEED}
            print(f"{name}: {digest}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    MANIFEST.write_text(json.dumps({"students": entries}, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
