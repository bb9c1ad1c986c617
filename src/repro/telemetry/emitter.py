"""Crash-safe append-only JSONL event logs.

One :class:`TelemetryEmitter` owns one file, ``<run_dir>/events/<source>.jsonl``
-- one file per emitting process, so concurrent processes never contend
on a lock, and the reader multiplexes.  Every event is a single complete
line written with one ``os.write`` to an ``O_APPEND`` descriptor, which
POSIX guarantees lands atomically: concurrent writers (processes, or
threads sharing one emitter) can only ever interleave whole lines, never
tear one.  A worker killed mid-write leaves at most one truncated final
line, which the reader skips; everything before it is intact -- the same
at-most-one-partial-artefact contract the run store's atomic publish
gives.

Telemetry must never take a run down: once the log file cannot be
written (disk full, directory removed), the emitter goes quiet instead of
raising, and ``broken`` reports it.

Timestamps come from an injectable ``clock`` so the golden-log tests can
pin the wire format byte for byte.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Callable, Optional, Type, Union

from repro.telemetry.events import TelemetryEvent

__all__ = ["EVENTS_DIRNAME", "events_dir", "TelemetryEmitter", "NullTelemetryEmitter"]

#: Subdirectory of a run directory holding the per-process event logs.
EVENTS_DIRNAME = "events"


def events_dir(run_dir: Union[str, Path]) -> Path:
    """Where a run directory keeps its event logs (may not exist yet)."""

    return Path(run_dir) / EVENTS_DIRNAME


class TelemetryEmitter:
    """Appends typed events to ``<run_dir>/events/<source>.jsonl``.

    ``source`` labels the emitting process (``"main"``, ``"shard-1-of-2"``)
    and becomes both the file name and every event's ``shard`` field; the
    emitter stamps ``ts`` from ``clock`` at emit time.  Use as a context
    manager, or call :meth:`close` when the run ends.
    """

    def __init__(
        self,
        run_dir: Union[str, Path],
        source: str = "main",
        clock: Callable[[], float] = time.time,
    ):
        if not source or "/" in source or source.startswith("."):
            raise ValueError(f"bad telemetry source name {source!r}")
        self.root = events_dir(run_dir)
        self.source = str(source)
        self.clock = clock
        self.path = self.root / f"{self.source}.jsonl"
        self.emitted = 0
        self.broken = False
        self._fd: Optional[int] = None
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "TelemetryEmitter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the file descriptor (idempotent)."""

        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    # -- emission ------------------------------------------------------
    def emit(self, event_type: Type[TelemetryEvent], **fields) -> Optional[TelemetryEvent]:
        """Construct, validate and append one event; returns it (or None).

        Field validation errors propagate (they are emitter-side bugs);
        I/O errors silence the emitter for the rest of the run instead --
        observability must never abort the observed work.
        """

        event = event_type(ts=float(self.clock()), shard=self.source, **fields)
        if self.broken:
            return None
        line = (event.to_line() + "\n").encode("utf-8")
        try:
            with self._lock:
                if self._fd is None:
                    self.root.mkdir(parents=True, exist_ok=True)
                    self._fd = os.open(self.path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
                os.write(self._fd, line)
            self.emitted += 1
        except OSError:
            self.broken = True
            return None
        return event


class NullTelemetryEmitter:
    """The do-nothing emitter used when telemetry is disabled.

    Mirrors the :class:`TelemetryEmitter` surface so call sites need no
    ``if`` guards; everything is a no-op.
    """

    source = ""
    path = None
    emitted = 0
    broken = False

    def __enter__(self) -> "NullTelemetryEmitter":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def emit(self, event_type, **fields) -> None:
        return None

    def close(self) -> None:
        return None
