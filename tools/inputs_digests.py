#!/usr/bin/env python
"""Print the benchmark's inputs digest of each workload and its input drift.

For each of the benchmark's workloads (``train``, ``verify``, ``matrix``)
this prints the ``inputs_digest`` the benchmark records -- a digest of what
the workload computes, resolved through the job layer -- and then the
``input_drift()`` list (the places where the program's defaults no longer
match the benchmark's pinned tables)::

    train <sha256>
    verify <sha256>
    matrix <sha256>
    drift none

Two trees print the same lines exactly when the benchmark asks both of them
to compute the same thing, so comparing the output before and after a
change is a one-command check::

    make inputs-digests          # or: python tools/inputs_digests.py

The frozen students are read, never written, and no bytecode is cached
under ``perfbench/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.dont_write_bytecode = True
REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "perfbench"), str(REPO / "src")]

from fixtures import load_fixtures, pin_threads  # noqa: E402

pin_threads()

from workloads import SCENARIOS, WORKLOADS, input_drift, inputs_digest  # noqa: E402


def main() -> int:
    students = load_fixtures(SCENARIOS).digests
    for workload in WORKLOADS:
        print(f"{workload} {inputs_digest(workload, students)}", flush=True)
    drift = input_drift()
    print(f"drift {', '.join(drift) if drift else 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
