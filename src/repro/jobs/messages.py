"""Typed job specs: one frozen dataclass per job kind.

One spec per job *kind* -- ``train``, ``evaluate``, ``verify-sweep``,
``matrix`` -- mirroring the corresponding CLI verb's flags, built on
:mod:`repro.utils.messages` (the same strict-round-trip dialect as the
telemetry event log).  A spec is pure description: no paths are opened
and no scenario is built until :mod:`repro.jobs.runner` resolves it.
``type(spec).from_json(spec.to_json())`` round-trips exactly and rejects
unknown fields, because silently dropping one would change which job the
digest identifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, Optional, Tuple

from repro.utils.messages import MessageValidationError, TypedMessage

__all__ = [
    "JobSpec",
    "TrainJobSpec",
    "EvaluateJobSpec",
    "VerifySweepJobSpec",
    "MatrixJobSpec",
]

_PERTURBATIONS = ("none", "attack", "noise")


@dataclass(frozen=True)
class JobSpec(TypedMessage):
    """Base of every job description; ``TYPE`` is the job kind."""


@dataclass(frozen=True)
class TrainJobSpec(JobSpec):
    """Run the Cocktail pipeline on one scenario (mirrors ``repro train``).

    ``None`` budgets resolve to the scenario's ``train_budget`` hints and
    then to the pinned defaults, exactly like the CLI flags.  Every field
    that defaults to ``None`` is such a budget, named after its hint key.
    ``output`` is optional here (a train with a run store can persist
    through the store alone); the CLI always sets it.
    """

    TYPE: ClassVar[str] = "train"
    system: str = "vanderpol"
    output: str = ""
    mixing_epochs: Optional[int] = None
    mixing_steps: Optional[int] = None
    distill_epochs: Optional[int] = None
    dataset_size: Optional[int] = None
    eval_samples: Optional[int] = None
    num_envs: Optional[int] = None
    train_batch_size: Optional[int] = None
    eval_batch_size: int = 0
    seed: int = 0

    def _validate(self) -> None:
        if not self.system:
            raise MessageValidationError("TrainJobSpec.system must be non-empty")


@dataclass(frozen=True)
class EvaluateJobSpec(JobSpec):
    """Evaluate a saved controller (mirrors ``repro evaluate``)."""

    TYPE: ClassVar[str] = "evaluate"
    system: str = "vanderpol"
    controller_dir: str = ""
    controller: str = "kappa_star"
    perturbation: str = "none"
    fraction: float = 0.1
    samples: int = 200
    batch_size: int = 0
    seed: int = 0

    def _validate(self) -> None:
        if not self.system:
            raise MessageValidationError("EvaluateJobSpec.system must be non-empty")
        if not self.controller_dir:
            raise MessageValidationError("EvaluateJobSpec.controller_dir must be non-empty")
        if self.perturbation not in _PERTURBATIONS:
            raise MessageValidationError(
                f"EvaluateJobSpec.perturbation must be one of {_PERTURBATIONS}, "
                f"got {self.perturbation!r}"
            )
        if self.samples <= 0:
            raise MessageValidationError("EvaluateJobSpec.samples must be > 0")


@dataclass(frozen=True)
class VerifySweepJobSpec(JobSpec):
    """Verify many saved controllers (mirrors ``repro verify-sweep``).

    ``specs`` entries use the CLI's ``SYSTEM:DIR[:CONTROLLER]`` syntax.
    ``None`` analysis budgets resolve to each entry's scenario
    ``verify_budget`` hints and then to the ``SweepJob`` defaults, exactly
    like the CLI flags; zero-valued ``invariant_grid`` / ``work_budget`` /
    ``time_budget`` mean "off" / "unbounded", as on the command line.
    Schema v2 dropped the ``engine`` field (a payload that still carries it
    is refused); v3 made the five analysis budgets optional.
    """

    TYPE: ClassVar[str] = "verify-sweep"
    SCHEMA_VERSION: ClassVar[int] = 3
    specs: Tuple[str, ...] = ()
    target_error: Optional[float] = None
    degree: Optional[int] = None
    max_partitions: Optional[int] = None
    reach_steps: Optional[int] = None
    reach_box_scale: Optional[float] = None
    invariant_grid: int = 0
    work_budget: int = 0
    time_budget: float = 0.0
    jobs: int = 0

    def _validate(self) -> None:
        if not self.specs:
            raise MessageValidationError(
                "VerifySweepJobSpec.specs must name at least one SYSTEM:DIR[:CONTROLLER] entry"
            )


@dataclass(frozen=True)
class MatrixJobSpec(JobSpec):
    """Run the scenario matrix (mirrors ``repro scenarios run``).

    The one description of a matrix run: the CLI builds it,
    :func:`repro.scenarios.run_scenario_matrix` takes it, a sharded run's
    manifest records it (all but ``jobs``) and the merge replays it.  An
    empty ``scenarios`` tuple means the whole catalog.  Shard fields are
    deliberately absent: sharding is a run-topology concern, not part of a
    job's identity.  Schema v2
    dropped the ``engine`` field; a payload that still carries it is
    refused.
    """

    TYPE: ClassVar[str] = "matrix"
    SCHEMA_VERSION: ClassVar[int] = 2
    scenarios: Tuple[str, ...] = ()
    perturbations: Tuple[str, ...] = _PERTURBATIONS
    samples: int = 32
    fraction: float = 0.1
    train: bool = True
    verify: bool = True
    jobs: int = 0
    seed: int = 0
    budget_scale: float = 1.0
    train_overrides: Dict = field(default_factory=dict)
    verify_overrides: Dict = field(default_factory=dict)

    def _validate(self) -> None:
        if self.samples <= 0:
            raise MessageValidationError("MatrixJobSpec.samples must be > 0")
        if not self.perturbations:
            raise MessageValidationError("MatrixJobSpec.perturbations must be non-empty")
        for perturbation in self.perturbations:
            if perturbation not in _PERTURBATIONS:
                raise MessageValidationError(
                    f"MatrixJobSpec.perturbations entries must be one of {_PERTURBATIONS}, "
                    f"got {perturbation!r}"
                )
        for name in ("train_overrides", "verify_overrides"):
            if not isinstance(getattr(self, name), dict):
                raise MessageValidationError(f"MatrixJobSpec.{name} must be an object")
