"""Stage-level wall-clock timing shared by the pipeline and the matrix.

:class:`StageTimer` is the one way the repo measures named stages: the
Cocktail pipeline times its four training stages with it (the
``stage_seconds`` dict on :class:`repro.core.cocktail.CocktailResult` is a
``StageTimer`` export), and the scenario matrix forwards those stages into
``StageTiming`` telemetry events.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, TypeVar

__all__ = ["StageTimer"]

T = TypeVar("T")


class StageTimer:
    """Accumulates wall-clock seconds per named stage.

    Stages may run more than once (seconds accumulate), nest freely, and
    are reported in first-start order so exports read like the pipeline
    executed.
    """

    def __init__(self) -> None:
        self._seconds: Dict[str, float] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Context manager timing one stage::

            with timer.stage("mixing"):
                train_mixing()
        """

        if not name:
            raise ValueError("stage name must be non-empty")
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._seconds[name] = self._seconds.get(name, 0.0) + elapsed

    def timed(self, name: str, fn: Callable[[], T]) -> T:
        """Run ``fn`` under :meth:`stage` and return its result."""

        with self.stage(name):
            return fn()

    def seconds(self, name: str) -> float:
        """Accumulated seconds of one stage (0.0 if it never ran)."""

        return self._seconds.get(name, 0.0)

    def total(self) -> float:
        return sum(self._seconds.values())

    def as_dict(self) -> Dict[str, float]:
        """Plain ``{stage: seconds}`` copy, in first-start order."""

        return dict(self._seconds)

    def emit_to(self, telemetry, scenario: str = "") -> None:
        """Emit one ``StageTiming`` event per stage to a telemetry emitter.

        ``telemetry`` is any object with the
        :class:`repro.telemetry.TelemetryEmitter` ``emit(event_cls, **fields)``
        surface; the import is deferred so profiling stays dependency-free
        for callers that never touch telemetry.
        """

        from repro.telemetry import StageTiming

        for stage, seconds in self._seconds.items():
            telemetry.emit(StageTiming, scenario=scenario, stage=stage, seconds=seconds)
