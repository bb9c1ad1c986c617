"""Typed run telemetry: versioned event log, live tailer, fleet stats.

The observability layer over the scenario-matrix / run-store machinery:

* :mod:`repro.telemetry.events` -- versioned, typed, self-validating event
  records (one class per message; strict round-trip, forward-tolerant
  reads);
* :mod:`repro.telemetry.emitter` -- crash-safe append-only JSONL logs
  under ``<run_dir>/events/<source>.jsonl``, one file per process;
* :mod:`repro.telemetry.reader` -- a tailer that multiplexes and
  time-orders events across shard files for live follow;
* :mod:`repro.telemetry.aggregate` -- cross-run fleet statistics (exact
  computed/cached accounting, cache hit rate, cost per cell, verified
  fractions, straggler and stale-shard detection) plus the ``repro runs
  watch`` rendering.

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
    ShardHeartbeat,
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
from repro.telemetry.reader import EventTailer, read_events
from repro.telemetry.aggregate import (
    FleetState,
    ShardState,
    accounting,
    find_stragglers,
    fleet_stats,
    fold_events,
    render_watch,
    stale_shards,
    watch_snapshot,
)

__all__ = [
    "EVENT_REGISTRY",
    "EVENTS_DIRNAME",
    "CellCached",
    "CellFinished",
    "CellStarted",
    "EventTailer",
    "EventValidationError",
    "FleetState",
    "NullTelemetryEmitter",
    "RunFinished",
    "RunStarted",
    "ShardHeartbeat",
    "ShardState",
    "StageTiming",
    "SweepJobFinished",
    "TelemetryEmitter",
    "TelemetryEvent",
    "UnknownEvent",
    "accounting",
    "decode_line",
    "events_dir",
    "find_stragglers",
    "fleet_stats",
    "fold_events",
    "parse_event",
    "read_events",
    "render_watch",
    "stale_shards",
    "watch_snapshot",
]
