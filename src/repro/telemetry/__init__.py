"""Typed run telemetry: versioned event log, one-shot reader, run stats.

The observability layer over the scenario-matrix / run-store machinery:

* :mod:`repro.telemetry.events` -- versioned, typed, self-validating event
  records (one class per message; strict round-trip, forward-tolerant
  reads);
* :mod:`repro.telemetry.emitter` -- crash-safe append-only JSONL logs
  under ``<run_dir>/events/<source>.jsonl``, one file per process;
* :mod:`repro.telemetry.reader` -- a one-shot read that multiplexes and
  time-orders the events of every file of a run directory;
* :mod:`repro.telemetry.aggregate` -- cross-run statistics behind ``repro
  runs stats`` (exact computed/cached accounting, cache hit rate, cost per
  cell and stage, verified fractions).

A matrix run on one host writes ``events/main.jsonl``.  The per-shard
files (``events/shard-i-of-N.jsonl``) come only from
:func:`repro.scenarios.run_sharded_matrix`, the two-shard stand-in the
repository benchmark calls; they leave with it (ROADMAP items 8 and 15).

Wall-clock timings live *only* in this event stream; run-store rows stay
timing-free and deterministic, which is what keeps merged matrix CSVs
byte-identical whether or not telemetry is enabled (see
``docs/telemetry.md``).
"""

from repro.telemetry.events import (
    EVENT_REGISTRY,
    CellCached,
    CellFinished,
    CellStarted,
    EventValidationError,
    RunFinished,
    RunStarted,
    StageTiming,
    SweepJobFinished,
    TelemetryEvent,
    UnknownEvent,
    decode_line,
    parse_event,
)
from repro.telemetry.emitter import (
    EVENTS_DIRNAME,
    NullTelemetryEmitter,
    TelemetryEmitter,
    events_dir,
)
from repro.telemetry.reader import read_events
from repro.telemetry.aggregate import (
    FleetState,
    ShardState,
    accounting,
    fleet_stats,
    fold_events,
)

__all__ = [
    "EVENT_REGISTRY",
    "EVENTS_DIRNAME",
    "CellCached",
    "CellFinished",
    "CellStarted",
    "EventValidationError",
    "FleetState",
    "NullTelemetryEmitter",
    "RunFinished",
    "RunStarted",
    "ShardState",
    "StageTiming",
    "SweepJobFinished",
    "TelemetryEmitter",
    "TelemetryEvent",
    "UnknownEvent",
    "accounting",
    "decode_line",
    "events_dir",
    "fleet_stats",
    "fold_events",
    "parse_event",
    "read_events",
]
