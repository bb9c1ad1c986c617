"""The job layer: typed job specs and the one path that executes them.

* :mod:`repro.jobs.messages` -- the typed job specs, one per job kind.
* :mod:`repro.jobs.runner` -- resolve a spec to its identity, then
  execute it; the CLI verbs, ``tools/`` and the benchmark all call it.
"""

from repro.jobs.messages import (
    EvaluateJobSpec,
    JobSpec,
    MatrixJobSpec,
    TrainJobSpec,
    VerifySweepJobSpec,
)
from repro.jobs.runner import JobSpecError, resolve_job

__all__ = [
    "JobSpec",
    "TrainJobSpec",
    "EvaluateJobSpec",
    "VerifySweepJobSpec",
    "MatrixJobSpec",
    "JobSpecError",
    "resolve_job",
]
