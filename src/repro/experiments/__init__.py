"""Resumable experiment run store: digest-keyed caching of pipeline stages.

:mod:`repro.experiments.digest` canonicalises resolved configurations into
content digests; :mod:`repro.experiments.store` keeps one directory entry
per completed stage under that digest.  The scenario matrix runner
(:func:`repro.scenarios.run_scenario_matrix`), the verification sweep
harness (:class:`repro.verification.sweep.VerificationSweep`) and the CLI
(``repro scenarios run --run-dir``, ``repro runs list|show|gc``) all share
the same store, which is what turns repeated large sweeps into incremental
workloads: unchanged cells are loaded, only missing ones execute.

See ``docs/experiments.md`` for the store layout and resume workflow.
"""

from repro.experiments.digest import (
    canonical_json,
    canonicalize,
    config_digest,
    weights_digest,
)
from repro.experiments.store import RunKey, RunStore, run_key

__all__ = [
    "canonicalize",
    "canonical_json",
    "config_digest",
    "weights_digest",
    "RunKey",
    "RunStore",
    "run_key",
]
