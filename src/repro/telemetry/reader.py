"""One-shot, multiplexed read of a run directory's event logs.

Each process appends to its own ``events/<source>.jsonl``;
:func:`read_events` is the other half of that contract: read every log
file, skip a torn final line (its writer died mid-append, or is still
appending), and hand back one time-ordered stream -- events sorted by
``ts`` with a stable (file, sequence) tie-break, so a read is
deterministic even when two processes share a clock tick.  Aggregation
(``repro runs stats``) folds what it returns.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from repro.telemetry.emitter import events_dir
from repro.telemetry.events import TelemetryEvent, decode_line

__all__ = ["read_events"]


def read_events(run_dir: Union[str, Path]) -> List[TelemetryEvent]:
    """Every complete event under ``<run_dir>/events/``, time-ordered."""

    root = events_dir(run_dir)
    if not root.is_dir():
        return []
    batch = []
    for path in sorted(root.glob("*.jsonl")):
        try:
            data = path.read_bytes()
        except OSError:
            continue
        # What follows the last newline is a torn line (or nothing).
        for sequence, line in enumerate(data.split(b"\n")[:-1]):
            event = decode_line(line)
            if event is not None:
                batch.append((event.ts, path.name, sequence, event))
    batch.sort(key=lambda item: item[:3])
    return [item[3] for item in batch]
