"""Cross-run aggregation and the live fleet view over event logs.

Everything here is a pure fold over the typed event stream -- no store
reads, no re-execution -- which is the point: ``repro runs stats`` must
reproduce the matrix runner's ``cells_computed``/``cells_cached``
accounting *from the log alone* (each counter increment in the runner
emits exactly one :class:`~repro.telemetry.events.CellFinished` /
:class:`~repro.telemetry.events.CellCached`, so counting events equals the
summed shard reports), and ``repro runs watch`` renders the same fold
incrementally while the fleet is still running.

On top of the exact accounting sit the fleet diagnostics the ROADMAP asks
for: cache hit rate, cost per cell, per-scenario verified fractions and
mean safe rates, straggler cells (cost far above their kind's median) and
stale shards (no event within the staleness window and no ``run-finished``).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.telemetry.events import (
    CellCached,
    CellFinished,
    CellStarted,
    RunFinished,
    RunStarted,
    ShardHeartbeat,
    StageTiming,
    SweepJobFinished,
    TelemetryEvent,
)
from repro.telemetry.reader import read_events

__all__ = [
    "ShardState",
    "FleetState",
    "fold_events",
    "accounting",
    "find_stragglers",
    "stale_shards",
    "fleet_stats",
    "render_watch",
    "watch_snapshot",
]

#: A cell's identity inside the fold: (scenario, controller, kind, perturbation).
CellIdentity = Tuple[str, str, str, Optional[str]]

#: A finished cell counts as a straggler beyond this multiple of the
#: median cost of its kind (given at least this many samples to trust).
STRAGGLER_FACTOR = 4.0
STRAGGLER_MIN_SAMPLES = 3

#: Default seconds of event silence before a live shard counts as stale.
DEFAULT_STALE_AFTER = 15.0


@dataclass
class ShardState:
    """Everything the fold knows about one emitting process."""

    source: str
    first_ts: float = 0.0
    last_ts: float = 0.0
    cells_total: int = 0
    cells_owned: int = 0
    computed: int = 0
    cached: int = 0
    skipped: int = 0
    status: str = "running"
    finished: bool = False
    #: Cells started but not yet finished/cached, in start order.
    in_flight: Dict[CellIdentity, float] = field(default_factory=dict)

    @property
    def cells_done(self) -> int:
        return self.computed + self.cached

    def current_cell(self) -> Optional[Tuple[CellIdentity, float]]:
        """The oldest in-flight cell (identity, started-at), if any."""

        if not self.in_flight:
            return None
        identity = min(self.in_flight, key=lambda key: self.in_flight[key])
        return identity, self.in_flight[identity]


@dataclass
class FleetState:
    """The fold of one (or many) event streams."""

    shards: Dict[str, ShardState] = field(default_factory=dict)
    events: int = 0
    unknown_events: int = 0
    scenarios: List[str] = field(default_factory=list)
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
        """Every shard that ever emitted has published its run-finished."""

        return bool(self.shards) and all(shard.finished for shard in self.shards.values())


def _shard(state: FleetState, event: TelemetryEvent) -> ShardState:
    shard = state.shards.get(event.shard)
    if shard is None:
        shard = state.shards[event.shard] = ShardState(source=event.shard, first_ts=event.ts)
    shard.last_ts = max(shard.last_ts, event.ts)
    return shard


def fold_events(events: Sequence[TelemetryEvent], state: Optional[FleetState] = None) -> FleetState:
    """Fold a time-ordered event batch into (or onto) a :class:`FleetState`.

    Incremental by design: the watch loop keeps one state and folds each
    :meth:`~repro.telemetry.reader.EventTailer.poll` batch onto it.
    """

    if state is None:
        state = FleetState()
    for event in events:
        state.events += 1
        shard = _shard(state, event)
        if isinstance(event, RunStarted):
            shard.cells_total = max(shard.cells_total, event.cells_total)
            shard.cells_owned = max(shard.cells_owned, event.cells_owned)
            for name in event.scenarios:
                if name not in state.scenarios:
                    state.scenarios.append(name)
        elif isinstance(event, CellStarted):
            shard.in_flight[(event.scenario, event.controller, event.cell, event.perturbation)] = event.ts
        elif isinstance(event, CellFinished):
            identity = (event.scenario, event.controller, event.cell, event.perturbation)
            shard.in_flight.pop(identity, None)
            shard.computed += 1
            state.finished_cells.append((identity, event.seconds, event.status, event.safe_rate))
        elif isinstance(event, CellCached):
            identity = (event.scenario, event.controller, event.cell, event.perturbation)
            shard.in_flight.pop(identity, None)
            shard.cached += 1
        elif isinstance(event, ShardHeartbeat):
            shard.skipped = max(shard.skipped, event.cells_skipped)
        elif isinstance(event, StageTiming):
            state.stage_seconds[event.stage] = state.stage_seconds.get(event.stage, 0.0) + event.seconds
        elif isinstance(event, SweepJobFinished):
            state.sweep_jobs.append(event)
        elif isinstance(event, RunFinished):
            shard.finished = True
            shard.status = event.status
            shard.skipped = max(shard.skipped, event.cells_skipped)
            shard.in_flight.clear()
        else:
            state.unknown_events += 1
    return state


def accounting(state: FleetState) -> Dict[str, int]:
    """The matrix runner's accounting, recovered from the log alone."""

    return {
        "cells_computed": state.cells_computed,
        "cells_cached": state.cells_cached,
    }


def find_stragglers(
    state: FleetState,
    factor: float = STRAGGLER_FACTOR,
    min_samples: int = STRAGGLER_MIN_SAMPLES,
) -> List[Dict]:
    """Finished cells costing > ``factor`` x the median of their kind."""

    by_kind: Dict[str, List[float]] = {}
    for (_, _, kind, _), seconds, _, _ in state.finished_cells:
        by_kind.setdefault(kind, []).append(seconds)
    stragglers = []
    for (scenario, controller, kind, perturbation), seconds, status, _ in state.finished_cells:
        population = by_kind[kind]
        if len(population) < min_samples:
            continue
        median = statistics.median(population)
        if median > 0 and seconds > factor * median:
            stragglers.append(
                {
                    "scenario": scenario,
                    "controller": controller,
                    "cell": kind,
                    "perturbation": perturbation,
                    "seconds": seconds,
                    "median_seconds": median,
                    "factor": seconds / median,
                    "status": status,
                }
            )
    stragglers.sort(key=lambda row: -row["factor"])
    return stragglers


def stale_shards(
    state: FleetState, now: Optional[float] = None, stale_after: float = DEFAULT_STALE_AFTER
) -> List[str]:
    """Sources still unfinished whose last event is older than the window."""

    now = time.time() if now is None else now
    return sorted(
        shard.source
        for shard in state.shards.values()
        if not shard.finished and now - shard.last_ts > stale_after
    )


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


def fleet_stats(
    run_dirs: Sequence[Union[str, Path]],
    now: Optional[float] = None,
    stale_after: float = DEFAULT_STALE_AFTER,
) -> Dict:
    """Aggregate one or many run directories' event logs into fleet stats.

    The returned dictionary is JSON-able with deterministic content given
    the logs (``stale_shards`` is the one wall-clock-dependent entry);
    ``repro runs stats --json`` serialises it with sorted keys for
    scripts.  A ``repro serve`` run dir aggregates the same way: its
    ``job-<id>`` event streams are read like any other source.
    """

    state = FleetState()
    per_run = {}
    deduped = []
    for run_dir in run_dirs:
        if str(run_dir) not in {str(seen) for seen in deduped}:
            deduped.append(run_dir)
    for run_dir in deduped:
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
        "stragglers": find_stragglers(state),
        "stale_shards": stale_shards(state, now=now, stale_after=stale_after),
    }


def _cell_label(identity: CellIdentity) -> str:
    scenario, controller, kind, perturbation = identity
    label = f"{kind} {scenario}:{controller}"
    if perturbation is not None:
        label += f":{perturbation}"
    return label


def render_watch(
    state: FleetState, now: Optional[float] = None, stale_after: float = DEFAULT_STALE_AFTER
) -> str:
    """One text frame of the live fleet view (per-shard table + footer)."""

    now = time.time() if now is None else now
    header = (
        f"{'shard':16s} {'status':20s} {'done':>9s} {'comp':>6s} {'cache':>6s} "
        f"{'age':>7s}  current"
    )
    lines = [header, "-" * len(header)]
    stale = set(stale_shards(state, now=now, stale_after=stale_after))
    for source in sorted(state.shards):
        shard = state.shards[source]
        status = shard.status if shard.finished else ("stale?" if source in stale else "running")
        total = f"{shard.cells_done}/{shard.cells_total}" if shard.cells_total else str(shard.cells_done)
        age = max(0.0, now - shard.last_ts)
        current = shard.current_cell()
        busy = "-"
        if current is not None and not shard.finished:
            identity, started = current
            busy = f"{_cell_label(identity)} ({max(0.0, now - started):.1f}s)"
        lines.append(
            f"{source:16s} {status:20s} {total:>9s} {shard.computed:6d} {shard.cached:6d} "
            f"{age:6.1f}s  {busy}"
        )
    computed, cached = state.cells_computed, state.cells_cached
    served = computed + cached
    hit_rate = f"{100.0 * cached / served:.1f}%" if served else "-"
    lines.append(
        f"{len(state.shards)} shard(s) | {computed} computed, {cached} cached "
        f"(hit rate {hit_rate}) | "
        f"{'all finished' if state.all_finished else 'running'}"
    )
    return "\n".join(lines)


def watch_snapshot(
    run_dir: Union[str, Path],
    now: Optional[float] = None,
    stale_after: float = DEFAULT_STALE_AFTER,
) -> str:
    """Fold a run directory's whole event history into one watch frame."""

    return render_watch(fold_events(read_events(run_dir)), now=now, stale_after=stale_after)
