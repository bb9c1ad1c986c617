"""Versioned, typed run-telemetry events.

Every message the telemetry stream carries is one validated dataclass --
the ``named_types`` idiom: the class *is* the schema.  Each event declares
a wire name (``TYPE``), a ``SCHEMA_VERSION``, and typed fields that are
checked on construction, so a malformed event fails loudly at the emitter
instead of silently corrupting a log that a live ``repro runs watch`` or a
cross-run ``repro runs stats`` aggregation reads later.

The generic machinery (field validation, strict/tolerant ``from_json``,
registry routing) lives in :mod:`repro.utils.messages` and is shared with
the job specs (:mod:`repro.jobs.messages`); this module owns the
telemetry *family*: the event classes, their registry, and the
:class:`UnknownEvent` wrapper.

Wire format
-----------
One JSON object per event::

    {"type": "cell-finished", "version": 1, "ts": ..., "shard": "main", ...}

``to_json``/``from_json`` round-trip exactly (tuples survive the JSON list
round-trip), and :func:`parse_event` is *forward tolerant*: a payload whose
``version`` is newer than this reader's class is decoded best-effort from
the fields it knows (unknown extra fields are ignored), and a payload whose
type is unknown altogether comes back as an :class:`UnknownEvent` instead
of an exception -- an old ``watch`` client keeps working against a newer
fleet.  Within the *same* version the contract is strict: missing or
mistyped fields raise :class:`EventValidationError`.

Versioning policy (see ``docs/telemetry.md``): adding an *optional* field
keeps the version; adding a required field, renaming or retyping anything
bumps ``SCHEMA_VERSION``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, Mapping, Optional, Tuple, Type

from repro.utils.messages import (
    MessageValidationError,
    TypedMessage,
    decode_message_line,
    parse_message,
    register_message,
)

__all__ = [
    "EventValidationError",
    "TelemetryEvent",
    "UnknownEvent",
    "RunStarted",
    "CellStarted",
    "CellFinished",
    "CellCached",
    "ShardHeartbeat",
    "SweepJobFinished",
    "StageTiming",
    "RunFinished",
    "EVENT_REGISTRY",
    "register_event",
    "parse_event",
    "decode_line",
]

#: The cell kinds the matrix runner produces (one per pipeline stage).
CELL_KINDS = ("train", "evaluate", "verify")

#: Historical name for the shared validation error -- the *same* class, so
#: ``except EventValidationError`` and ``except MessageValidationError``
#: are interchangeable across the telemetry events and the job specs.
EventValidationError = MessageValidationError

#: Wire ``type`` name -> event class, populated by :func:`register_event`.
EVENT_REGISTRY: Dict[str, Type["TelemetryEvent"]] = {}

#: Class decorator adding events to :data:`EVENT_REGISTRY` by ``TYPE``.
register_event = register_message(EVENT_REGISTRY)


@dataclass(frozen=True)
class TelemetryEvent(TypedMessage):
    """Base event: a timestamp plus the emitting source ("shard") label.

    ``ts`` is unix seconds stamped by the emitter; ``shard`` names the
    event-log file the line lives in (``"main"``, ``"shard-2-of-4"``, ...),
    which is how the reader attributes liveness per worker.
    """

    ts: float
    shard: str


def _require_counts(event: TelemetryEvent, *names: str) -> None:
    for name in names:
        if getattr(event, name) < 0:
            raise EventValidationError(f"{type(event).__name__}.{name} must be >= 0")


def _require_cell_kind(event: TelemetryEvent) -> None:
    if event.cell not in CELL_KINDS:
        raise EventValidationError(
            f"{type(event).__name__}.cell must be one of {CELL_KINDS}, got {event.cell!r}"
        )


@register_event
@dataclass(frozen=True)
class RunStarted(TelemetryEvent):
    """A matrix runner (one shard or the sole process) began executing."""

    TYPE: ClassVar[str] = "run-started"
    scenarios: Tuple[str, ...] = ()
    cells_total: int = 0
    cells_owned: int = 0
    pid: int = 0

    def _validate(self) -> None:
        _require_counts(self, "cells_total", "cells_owned", "pid")
        if self.cells_owned > self.cells_total:
            raise EventValidationError("RunStarted.cells_owned cannot exceed cells_total")


@register_event
@dataclass(frozen=True)
class CellStarted(TelemetryEvent):
    """One matrix cell began *computing* (cache probes emit no start)."""

    TYPE: ClassVar[str] = "cell-started"
    scenario: str = ""
    controller: str = ""
    cell: str = "evaluate"
    perturbation: Optional[str] = None

    def _validate(self) -> None:
        _require_cell_kind(self)


@register_event
@dataclass(frozen=True)
class CellFinished(TelemetryEvent):
    """One matrix cell finished computing; wall-clock timings live here.

    ``seconds`` is deliberately *only* in the event log -- never in run-store
    rows -- which is what keeps merged CSVs byte-identical across reruns.
    """

    TYPE: ClassVar[str] = "cell-finished"
    scenario: str = ""
    controller: str = ""
    cell: str = "evaluate"
    perturbation: Optional[str] = None
    seconds: float = 0.0
    status: str = "ok"
    safe_rate: Optional[float] = None

    def _validate(self) -> None:
        _require_cell_kind(self)
        if self.seconds < 0:
            raise EventValidationError("CellFinished.seconds must be >= 0")
        if self.safe_rate is not None and not 0.0 <= self.safe_rate <= 1.0:
            raise EventValidationError("CellFinished.safe_rate must be within [0, 1]")


@register_event
@dataclass(frozen=True)
class CellCached(TelemetryEvent):
    """One matrix cell was answered from the run store instead of computed."""

    TYPE: ClassVar[str] = "cell-cached"
    scenario: str = ""
    controller: str = ""
    cell: str = "evaluate"
    perturbation: Optional[str] = None

    def _validate(self) -> None:
        _require_cell_kind(self)


@register_event
@dataclass(frozen=True)
class ShardHeartbeat(TelemetryEvent):
    """Periodic liveness beacon with the shard's running accounting."""

    TYPE: ClassVar[str] = "shard-heartbeat"
    cells_done: int = 0
    cells_computed: int = 0
    cells_cached: int = 0
    cells_stolen: int = 0
    cells_skipped: int = 0

    def _validate(self) -> None:
        _require_counts(
            self, "cells_done", "cells_computed", "cells_cached", "cells_stolen", "cells_skipped"
        )


@register_event
@dataclass(frozen=True)
class SweepJobFinished(TelemetryEvent):
    """One verification job of a scenario matrix's verify cell completed.

    The matrix emits it for every verify cell, computed or replayed from
    the run store (``cached``); :class:`~repro.verification.sweep.VerificationSweep`
    itself emits no telemetry.
    """

    TYPE: ClassVar[str] = "sweep-job-finished"
    job: str = ""
    system: str = ""
    status: str = "ok"
    seconds: float = 0.0
    cached: bool = False
    verified: bool = False

    def _validate(self) -> None:
        if self.seconds < 0:
            raise EventValidationError("SweepJobFinished.seconds must be >= 0")


@register_event
@dataclass(frozen=True)
class StageTiming(TelemetryEvent):
    """Wall-clock seconds of one training-pipeline stage (mixing, ...)."""

    TYPE: ClassVar[str] = "stage-timing"
    scenario: str = ""
    stage: str = ""
    seconds: float = 0.0

    def _validate(self) -> None:
        if not self.stage:
            raise EventValidationError("StageTiming.stage must be non-empty")
        if self.seconds < 0:
            raise EventValidationError("StageTiming.seconds must be >= 0")


@register_event
@dataclass(frozen=True)
class RunFinished(TelemetryEvent):
    """A matrix runner finished; final accounting mirrors its report."""

    TYPE: ClassVar[str] = "run-finished"
    status: str = "ok"
    cells_computed: int = 0
    cells_cached: int = 0
    cells_stolen: int = 0
    cells_skipped: int = 0
    rows: int = 0
    seconds: float = 0.0

    def _validate(self) -> None:
        _require_counts(self, "cells_computed", "cells_cached", "cells_stolen", "cells_skipped", "rows")
        if self.seconds < 0:
            raise EventValidationError("RunFinished.seconds must be >= 0")


@dataclass(frozen=True)
class UnknownEvent(TelemetryEvent):
    """A payload this reader cannot type (foreign type or future schema).

    Deliberately *not* registered: it preserves the raw payload plus the
    best-effort ``ts``/``shard`` so multiplexed time-ordering still works,
    and aggregation simply skips it.
    """

    TYPE: ClassVar[str] = "unknown"
    type_name: str = ""
    version: int = 0
    payload: Dict = field(default_factory=dict)

    @classmethod
    def wrap(cls, payload: Mapping) -> "UnknownEvent":
        ts = payload.get("ts")
        shard = payload.get("shard")
        version = payload.get("version")
        return cls(
            ts=float(ts) if isinstance(ts, (int, float)) and not isinstance(ts, bool) else 0.0,
            shard=shard if isinstance(shard, str) else "",
            type_name=str(payload.get("type", "")),
            version=version if isinstance(version, int) and not isinstance(version, bool) else 0,
            payload=dict(payload),
        )


def parse_event(payload: Mapping) -> TelemetryEvent:
    """Decode one wire payload into its typed event.

    Routing is by the payload's ``type``/``version``: a registered type at
    (or below) this reader's ``SCHEMA_VERSION`` decodes strictly, a *newer*
    version decodes tolerantly from the known fields, and anything else --
    unknown type, unreadable version, a newer payload missing even the
    known required fields -- wraps as :class:`UnknownEvent`.  Only a
    same-version malformed payload raises :class:`EventValidationError`.
    """

    return parse_message(payload, EVENT_REGISTRY, UnknownEvent)


def decode_line(line) -> Optional[TelemetryEvent]:
    """Robust file-side decode of one log line; ``None`` for non-events.

    Torn or truncated lines (a worker died mid-append) and non-JSON debris
    return ``None``; structurally valid JSON that fails typing comes back
    as :class:`UnknownEvent` -- a live tailer must never crash on one bad
    line.
    """

    return decode_message_line(line, EVENT_REGISTRY, UnknownEvent)
