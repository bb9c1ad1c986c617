"""Typed wire messages of the job service: job specs and the RPC API.

Two message families, both built on :mod:`repro.utils.messages` (the same
strict-round-trip / forward-tolerant dialect as the telemetry event log):

Job specs (:data:`JOB_REGISTRY`)
    One frozen dataclass per job *kind* -- ``train``, ``evaluate``,
    ``verify-sweep``, ``matrix`` -- mirroring the corresponding CLI verb's
    flags.  A spec is pure description: no paths are opened and no
    scenario is built until :mod:`repro.jobs.runner` resolves it.  Spec
    parsing (:func:`parse_job_spec`) is deliberately *strict in both
    directions*: an unknown kind or a *newer* schema version is an error,
    never a best-effort decode, because silently dropping an unknown spec
    field would change which job the digest identifies.

API messages (:data:`API_REGISTRY`)
    The request/reply envelopes ``repro serve`` speaks over ``POST /rpc``:
    :class:`SubmitJob`, :class:`JobStatus`, :class:`CancelJob`,
    :class:`ListJobs`, :class:`JobEvents`, :class:`ServerStatus`,
    :class:`Shutdown` and their replies, plus the typed :class:`ErrorReply`.
    These *are* forward tolerant (:func:`parse_api_message`): an older
    client keeps talking to a newer daemon, and unknown payloads wrap as
    :class:`UnknownMessage` instead of raising.

The embedded ``job`` dictionaries inside replies are themselves typed
(:class:`JobView`), so a client can re-validate them with
:func:`parse_api_message` too.
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict, Mapping, Optional, Sequence, Tuple, Type

from repro.utils.messages import (
    MessageValidationError,
    TypedMessage,
    parse_message,
    register_message,
)

__all__ = [
    "JOB_REGISTRY",
    "API_REGISTRY",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobSpec",
    "TrainJobSpec",
    "EvaluateJobSpec",
    "VerifySweepJobSpec",
    "MatrixJobSpec",
    "parse_job_spec",
    "build_job_spec",
    "ApiMessage",
    "SubmitJob",
    "JobStatus",
    "CancelJob",
    "ListJobs",
    "JobEvents",
    "ServerStatus",
    "Shutdown",
    "JobView",
    "JobReply",
    "JobList",
    "JobEventsReply",
    "ServerStatusReply",
    "ShutdownReply",
    "ErrorReply",
    "UnknownMessage",
    "parse_api_message",
]

#: Every state a job moves through.  ``attached`` is the single-flight
#: state: the submission coalesced onto a running job with the same digest
#: and resolves to that primary's terminal state.  ``cached`` is terminal
#: on arrival: the digest was already in the run store.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled", "cached", "attached")

#: States a job never leaves (``wait``/``--wait`` stop polling here).
TERMINAL_STATES = ("done", "failed", "cancelled", "cached")

_PERTURBATIONS = ("none", "attack", "noise")


# ---------------------------------------------------------------------------
# job specs
# ---------------------------------------------------------------------------

#: Wire job-kind name -> spec class, populated by ``_register_job``.
JOB_REGISTRY: Dict[str, Type["JobSpec"]] = {}

_register_job = register_message(JOB_REGISTRY)


@dataclass(frozen=True)
class JobSpec(TypedMessage):
    """Base of every job description; ``TYPE`` is the job kind."""


@_register_job
@dataclass(frozen=True)
class TrainJobSpec(JobSpec):
    """Run the Cocktail pipeline on one scenario (mirrors ``repro train``).

    ``None`` budgets resolve to the scenario's ``train_budget`` hints and
    then to the CPU-derived defaults, exactly like the CLI flags.
    ``output`` is optional here (the daemon persists through the run store);
    the CLI always sets it.
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


@_register_job
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


@_register_job
@dataclass(frozen=True)
class VerifySweepJobSpec(JobSpec):
    """Verify many saved controllers (mirrors ``repro verify-sweep``).

    ``specs`` entries use the CLI's ``SYSTEM:DIR[:CONTROLLER]`` syntax;
    zero-valued budgets mean "unbounded", as on the command line.  Schema
    v2 dropped the ``engine`` field; a payload that still carries it is
    refused.
    """

    TYPE: ClassVar[str] = "verify-sweep"
    SCHEMA_VERSION: ClassVar[int] = 2
    specs: Tuple[str, ...] = ()
    target_error: float = 0.5
    degree: int = 3
    max_partitions: int = 2048
    reach_steps: int = 15
    reach_box_scale: float = 0.1
    invariant_grid: int = 0
    work_budget: int = 0
    time_budget: float = 0.0
    jobs: int = 0

    def _validate(self) -> None:
        if not self.specs:
            raise MessageValidationError(
                "VerifySweepJobSpec.specs must name at least one SYSTEM:DIR[:CONTROLLER] entry"
            )


@_register_job
@dataclass(frozen=True)
class MatrixJobSpec(JobSpec):
    """Run the scenario matrix (mirrors ``repro scenarios run``).

    An empty ``scenarios`` tuple means the whole catalog.  Shard fields are
    deliberately absent: sharding is a run-topology concern, not part of a
    job's identity -- the daemon's worker pool plays that role.  Schema v2
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


def parse_job_spec(payload: Mapping) -> JobSpec:
    """Decode a job-spec payload, strictly.

    Unlike the API envelope, a spec is never decoded best-effort: dropping
    a field the daemon does not know would silently change the job's
    resolved config and therefore its digest -- two "identical" submissions
    would stop deduplicating.  Unknown kinds and newer versions raise
    :class:`~repro.utils.messages.MessageValidationError` instead.
    """

    if not isinstance(payload, Mapping):
        raise MessageValidationError(
            f"job spec must be a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("type")
    cls = JOB_REGISTRY.get(kind)
    if cls is None:
        raise MessageValidationError(
            f"unknown job kind {kind!r}; known kinds: {sorted(JOB_REGISTRY)}"
        )
    version = payload.get("version")
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        raise MessageValidationError(f"{kind}: unreadable spec version {version!r}")
    if version > cls.SCHEMA_VERSION:
        raise MessageValidationError(
            f"{kind}: spec version {version} is newer than this service supports "
            f"(v{cls.SCHEMA_VERSION})"
        )
    return cls.from_json(payload)


def _coerce(kind: str, name: str, raw: str, annotation):
    """Parse one ``--set KEY=VALUE`` string into the field's declared type."""

    origin = typing.get_origin(annotation)
    if origin is typing.Union:  # Optional[T]
        if raw.strip().lower() in ("", "none", "null"):
            return None
        inner = [arm for arm in typing.get_args(annotation) if arm is not type(None)]
        return _coerce(kind, name, raw, inner[0])
    if annotation is bool:
        lowered = raw.strip().lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise MessageValidationError(f"{kind}.{name}: cannot parse {raw!r} as a boolean")
    if annotation is int:
        try:
            return int(raw)
        except ValueError:
            raise MessageValidationError(f"{kind}.{name}: cannot parse {raw!r} as an integer")
    if annotation is float:
        try:
            return float(raw)
        except ValueError:
            raise MessageValidationError(f"{kind}.{name}: cannot parse {raw!r} as a number")
    if origin in (tuple, Tuple):
        return tuple(piece.strip() for piece in raw.split(",") if piece.strip())
    if annotation in (Dict, dict) or origin is dict:
        try:
            value = json.loads(raw)
        except json.JSONDecodeError as error:
            raise MessageValidationError(f"{kind}.{name}: not valid JSON ({error})")
        if not isinstance(value, dict):
            raise MessageValidationError(f"{kind}.{name}: expected a JSON object, got {raw!r}")
        return value
    return raw  # str fields take the value verbatim


def build_job_spec(kind: str, assignments: Sequence[str] = ()) -> JobSpec:
    """Build a spec from a kind plus ``KEY=VALUE`` strings (``repro submit``).

    Keys are field names (``-`` accepted for ``_``); values parse according
    to the field's declared type -- ``scenarios=a,b`` for tuples,
    ``train_overrides={"mixing_epochs":1}`` for dicts, ``none`` for
    optional budgets.  Unknown kinds/fields and unparsable values raise
    :class:`~repro.utils.messages.MessageValidationError` naming the
    alternatives.
    """

    cls = JOB_REGISTRY.get(kind)
    if cls is None:
        raise MessageValidationError(
            f"unknown job kind {kind!r}; known kinds: {sorted(JOB_REGISTRY)}"
        )
    hints = typing.get_type_hints(cls)
    names = [spec.name for spec in fields(cls)]
    kwargs = {}
    for assignment in assignments:
        key, equals, raw = assignment.partition("=")
        if not equals:
            raise MessageValidationError(f"bad --set {assignment!r}; expected KEY=VALUE")
        key = key.strip().replace("-", "_")
        if key not in names:
            raise MessageValidationError(f"{kind} has no field {key!r}; fields: {names}")
        kwargs[key] = _coerce(kind, key, raw, hints[key])
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# API envelope
# ---------------------------------------------------------------------------

#: Wire ``type`` name -> API message class.
API_REGISTRY: Dict[str, Type["ApiMessage"]] = {}

_register_api = register_message(API_REGISTRY)


@dataclass(frozen=True)
class ApiMessage(TypedMessage):
    """Base of every request/reply the daemon speaks."""


@_register_api
@dataclass(frozen=True)
class SubmitJob(ApiMessage):
    """Submit one job spec; ``force`` re-executes even on a digest hit."""

    TYPE: ClassVar[str] = "submit-job"
    spec: Dict = field(default_factory=dict)
    force: bool = False

    def _validate(self) -> None:
        if not isinstance(self.spec, dict) or not self.spec:
            raise MessageValidationError("SubmitJob.spec must be a non-empty job-spec object")


@_register_api
@dataclass(frozen=True)
class JobStatus(ApiMessage):
    """Ask for one job's view (and its result once terminal)."""

    TYPE: ClassVar[str] = "job-status"
    job_id: str = ""

    def _validate(self) -> None:
        if not self.job_id:
            raise MessageValidationError("JobStatus.job_id must be non-empty")


@_register_api
@dataclass(frozen=True)
class CancelJob(ApiMessage):
    """Cancel a queued/running/attached job; finished jobs refuse."""

    TYPE: ClassVar[str] = "cancel-job"
    job_id: str = ""

    def _validate(self) -> None:
        if not self.job_id:
            raise MessageValidationError("CancelJob.job_id must be non-empty")


@_register_api
@dataclass(frozen=True)
class ListJobs(ApiMessage):
    """List every job the daemon knows, optionally filtered by state."""

    TYPE: ClassVar[str] = "list-jobs"
    state: Optional[str] = None

    def _validate(self) -> None:
        if self.state is not None and self.state not in JOB_STATES:
            raise MessageValidationError(
                f"ListJobs.state must be one of {JOB_STATES}, got {self.state!r}"
            )


@_register_api
@dataclass(frozen=True)
class JobEvents(ApiMessage):
    """Poll a job's telemetry stream from a byte-offset cursor.

    ``cursor`` is opaque to the client: echo the previous reply's cursor
    (``{}`` to start from the beginning).
    """

    TYPE: ClassVar[str] = "job-events"
    job_id: str = ""
    cursor: Dict = field(default_factory=dict)

    def _validate(self) -> None:
        if not self.job_id:
            raise MessageValidationError("JobEvents.job_id must be non-empty")


@_register_api
@dataclass(frozen=True)
class ServerStatus(ApiMessage):
    """Ask the daemon about itself (pool size, job counts, uptime)."""

    TYPE: ClassVar[str] = "server-status"


@_register_api
@dataclass(frozen=True)
class Shutdown(ApiMessage):
    """Stop the daemon: cancel outstanding work, then exit the serve loop."""

    TYPE: ClassVar[str] = "shutdown"


@_register_api
@dataclass(frozen=True)
class JobView(ApiMessage):
    """One job as the daemon sees it; embedded in every job-carrying reply.

    ``digest`` is the run-store key of the job's resolved config -- the
    identity single-flight dedupe coalesces on.  ``attached_to`` names the
    primary submission this one coalesced onto (empty otherwise), and
    ``spec`` preserves the originating spec payload so failures are
    attributable without daemon-side state.
    """

    TYPE: ClassVar[str] = "job-view"
    job_id: str = ""
    kind: str = ""
    digest: str = ""
    state: str = "queued"
    submitted_unix: float = 0.0
    started_unix: float = 0.0
    finished_unix: float = 0.0
    error: str = ""
    attached_to: str = ""
    spec: Dict = field(default_factory=dict)

    def _validate(self) -> None:
        if not self.job_id:
            raise MessageValidationError("JobView.job_id must be non-empty")
        if self.state not in JOB_STATES:
            raise MessageValidationError(
                f"JobView.state must be one of {JOB_STATES}, got {self.state!r}"
            )


@_register_api
@dataclass(frozen=True)
class JobReply(ApiMessage):
    """Reply to submit/status/cancel: the job view plus any result payload."""

    TYPE: ClassVar[str] = "job-reply"
    job: Dict = field(default_factory=dict)
    result: Dict = field(default_factory=dict)

    def _validate(self) -> None:
        if not isinstance(self.job, dict) or not self.job:
            raise MessageValidationError("JobReply.job must be a non-empty job-view object")

    def view(self) -> JobView:
        """The embedded job view, re-validated as a typed message."""

        return JobView.from_json(self.job, strict=False)


@_register_api
@dataclass(frozen=True)
class JobList(ApiMessage):
    """Reply to :class:`ListJobs`: job views in submission order."""

    TYPE: ClassVar[str] = "job-list"
    jobs: Tuple[Dict, ...] = ()

    def views(self) -> Tuple[JobView, ...]:
        return tuple(JobView.from_json(job, strict=False) for job in self.jobs)


@_register_api
@dataclass(frozen=True)
class JobEventsReply(ApiMessage):
    """Reply to :class:`JobEvents`: raw event-log lines plus the new cursor."""

    TYPE: ClassVar[str] = "job-events-reply"
    job_id: str = ""
    lines: Tuple[str, ...] = ()
    cursor: Dict = field(default_factory=dict)
    done: bool = False


@_register_api
@dataclass(frozen=True)
class ServerStatusReply(ApiMessage):
    """Reply to :class:`ServerStatus`."""

    TYPE: ClassVar[str] = "server-status-reply"
    pid: int = 0
    run_dir: str = ""
    workers: int = 0
    started_unix: float = 0.0
    jobs: Dict = field(default_factory=dict)


@_register_api
@dataclass(frozen=True)
class ShutdownReply(ApiMessage):
    """Reply to :class:`Shutdown`; the daemon exits after sending it."""

    TYPE: ClassVar[str] = "shutdown-reply"
    stopping: bool = True


@_register_api
@dataclass(frozen=True)
class ErrorReply(ApiMessage):
    """Typed in-band error; ``code`` is machine-matchable, ``error`` human.

    Codes: ``bad-request`` (transport/envelope), ``bad-spec`` (the job spec
    failed validation or resolution), ``unknown-job``, ``conflict``
    (cancel-after-finish), ``shutting-down``, ``internal``.
    """

    TYPE: ClassVar[str] = "error"
    error: str = ""
    code: str = "bad-request"

    def _validate(self) -> None:
        if not self.error:
            raise MessageValidationError("ErrorReply.error must be non-empty")


@dataclass(frozen=True)
class UnknownMessage(ApiMessage):
    """An API payload this endpoint cannot type (foreign/future schema).

    Deliberately *not* registered; preserves the raw payload so a caller
    can log or forward it.
    """

    TYPE: ClassVar[str] = "unknown"
    type_name: str = ""
    version: int = 0
    payload: Dict = field(default_factory=dict)

    @classmethod
    def wrap(cls, payload: Mapping) -> "UnknownMessage":
        version = payload.get("version")
        return cls(
            type_name=str(payload.get("type", "")),
            version=version if isinstance(version, int) and not isinstance(version, bool) else 0,
            payload=dict(payload),
        )


def parse_api_message(payload: Mapping) -> ApiMessage:
    """Decode one API payload (forward tolerant, like telemetry events).

    Same-version payloads decode strictly; newer versions decode from the
    known fields; unknown types wrap as :class:`UnknownMessage`.
    """

    return parse_message(payload, API_REGISTRY, UnknownMessage)
