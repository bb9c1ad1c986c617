"""Cross-run aggregation over event logs.

Everything here is a pure fold over the typed event stream -- no store
reads, no re-execution -- which is the point: ``repro runs stats`` must
reproduce the matrix runner's ``cells_computed``/``cells_cached``
accounting *from the log alone* (each counter increment in the runner
emits exactly one :class:`~repro.telemetry.events.CellFinished` /
:class:`~repro.telemetry.events.CellCached`, so counting events equals the
summed reports).  On top of the exact accounting sit cache hit rate, cost
per cell and stage, and per-scenario verified fractions and mean safe
rates.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.telemetry.events import (
    CellCached,
    CellFinished,
    RunFinished,
    StageTiming,
    SweepJobFinished,
    TelemetryEvent,
    UnknownEvent,
)
from repro.telemetry.reader import read_events

__all__ = [
    "ShardState",
    "FleetState",
    "fold_events",
    "accounting",
    "fleet_stats",
]

#: A cell's identity inside the fold: (scenario, controller, kind, perturbation).
CellIdentity = Tuple[str, str, str, Optional[str]]


@dataclass
class ShardState:
    """Everything the fold knows about one emitting process."""

    source: str
    computed: int = 0
    cached: int = 0
    finished: bool = False


@dataclass
class FleetState:
    """The fold of one (or many) event streams."""

    shards: Dict[str, ShardState] = field(default_factory=dict)
    events: int = 0
    unknown_events: int = 0
    #: Every finished cell: (identity, seconds, status, safe_rate).
    finished_cells: List[Tuple[CellIdentity, float, str, Optional[float]]] = field(default_factory=list)
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    sweep_jobs: List[SweepJobFinished] = field(default_factory=list)

    @property
    def cells_computed(self) -> int:
        return sum(shard.computed for shard in self.shards.values())

    @property
    def cells_cached(self) -> int:
        return sum(shard.cached for shard in self.shards.values())

    @property
    def all_finished(self) -> bool:
        """Every source that ever emitted has published its run-finished."""

        return bool(self.shards) and all(shard.finished for shard in self.shards.values())


def fold_events(events: Sequence[TelemetryEvent], state: Optional[FleetState] = None) -> FleetState:
    """Fold a time-ordered event batch into (or onto) a :class:`FleetState`.

    Passing ``state`` folds onto it, which is how :func:`fleet_stats`
    accumulates several run directories.  ``run-started`` and
    ``cell-started`` events carry nothing the fold needs.
    """

    if state is None:
        state = FleetState()
    for event in events:
        state.events += 1
        shard = state.shards.get(event.shard)
        if shard is None:
            shard = state.shards[event.shard] = ShardState(source=event.shard)
        if isinstance(event, CellFinished):
            identity = (event.scenario, event.controller, event.cell, event.perturbation)
            shard.computed += 1
            state.finished_cells.append((identity, event.seconds, event.status, event.safe_rate))
        elif isinstance(event, CellCached):
            shard.cached += 1
        elif isinstance(event, StageTiming):
            state.stage_seconds[event.stage] = state.stage_seconds.get(event.stage, 0.0) + event.seconds
        elif isinstance(event, SweepJobFinished):
            state.sweep_jobs.append(event)
        elif isinstance(event, RunFinished):
            shard.finished = True
        elif isinstance(event, UnknownEvent):
            state.unknown_events += 1
    return state


def accounting(state: FleetState) -> Dict[str, int]:
    """The matrix runner's accounting, recovered from the log alone."""

    return {
        "cells_computed": state.cells_computed,
        "cells_cached": state.cells_cached,
    }


def _seconds_summary(samples: List[float]) -> Dict[str, float]:
    if not samples:
        return {"count": 0, "total": 0.0, "mean": 0.0, "median": 0.0, "max": 0.0}
    return {
        "count": len(samples),
        "total": sum(samples),
        "mean": sum(samples) / len(samples),
        "median": statistics.median(samples),
        "max": max(samples),
    }


def fleet_stats(run_dirs: Sequence[Union[str, Path]]) -> Dict:
    """Aggregate one or many run directories' event logs into one summary.

    A directory named twice, under any spelling, folds once (and is keyed
    in ``per_run`` by its first spelling).  The returned dictionary is
    JSON-able with deterministic content given the logs; ``repro runs
    stats --json`` serialises it with sorted keys for scripts.
    """

    state = FleetState()
    per_run = {}
    deduped = {}
    for run_dir in run_dirs:
        deduped.setdefault(Path(run_dir).resolve(), run_dir)
    for run_dir in deduped.values():
        events = read_events(run_dir)
        per_run[str(run_dir)] = accounting(fold_events(events))
        state = fold_events(events, state=state)

    computed, cached = state.cells_computed, state.cells_cached
    served = computed + cached
    by_kind: Dict[str, List[float]] = {}
    safe_rates: Dict[str, List[float]] = {}
    statuses: Dict[str, int] = {}
    for (scenario, _, kind, _), seconds, status, safe_rate in state.finished_cells:
        by_kind.setdefault(kind, []).append(seconds)
        statuses[status] = statuses.get(status, 0) + 1
        if safe_rate is not None:
            safe_rates.setdefault(scenario, []).append(safe_rate)

    scenarios: Dict[str, Dict] = {}
    for event in state.sweep_jobs:
        row = scenarios.setdefault(event.system, {"verify_jobs": 0, "verified": 0})
        row["verify_jobs"] += 1
        row["verified"] += int(event.verified)
    for name, rates in safe_rates.items():
        scenarios.setdefault(name, {})["mean_safe_rate"] = sum(rates) / len(rates)
    for name, row in scenarios.items():
        if row.get("verify_jobs"):
            row["verified_fraction"] = row["verified"] / row["verify_jobs"]

    return {
        "runs": len(per_run),
        "per_run": per_run,
        "events": state.events,
        "shards": len(state.shards),
        "all_finished": state.all_finished,
        "cells_computed": computed,
        "cells_cached": cached,
        "cache_hit_rate": (cached / served) if served else 0.0,
        "cell_seconds": _seconds_summary([seconds for _, seconds, _, _ in state.finished_cells]),
        "cell_seconds_by_kind": {kind: _seconds_summary(samples) for kind, samples in sorted(by_kind.items())},
        "cell_statuses": dict(sorted(statuses.items())),
        "stage_seconds": dict(sorted(state.stage_seconds.items())),
        "scenarios": {name: dict(sorted(row.items())) for name, row in sorted(scenarios.items())},
    }
