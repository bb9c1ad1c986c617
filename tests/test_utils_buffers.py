"""StageTimer behavior."""

from __future__ import annotations

import pytest

from repro.utils.profiling import StageTimer


class TestStageTimer:
    def test_timed_returns_result_and_records(self):
        timer = StageTimer()
        assert timer.timed("work", lambda: 42) == 42
        assert timer.seconds("work") >= 0.0
        assert set(timer.as_dict()) == {"work"}
        assert timer.total() == pytest.approx(timer.seconds("work"))

    def test_stages_accumulate_and_keep_first_start_order(self):
        timer = StageTimer()
        with timer.stage("one"):
            pass
        with timer.stage("two"):
            pass
        first = timer.seconds("one")
        with timer.stage("one"):
            pass
        assert timer.seconds("one") >= first
        assert list(timer.as_dict()) == ["one", "two"]

    def test_stage_records_even_when_body_raises(self):
        timer = StageTimer()
        with pytest.raises(RuntimeError):
            with timer.stage("boom"):
                raise RuntimeError("boom")
        assert timer.seconds("boom") >= 0.0
        assert "boom" in timer.as_dict()

    def test_unknown_stage_is_zero_and_empty_name_rejected(self):
        timer = StageTimer()
        assert timer.seconds("never-ran") == 0.0
        with pytest.raises(ValueError):
            with timer.stage(""):
                pass

    def test_emit_to_produces_stage_timing_events(self):
        from repro.telemetry import StageTiming

        emitted = []

        class Emitter:
            def emit(self, event_cls, **fields):
                emitted.append((event_cls, fields))

        timer = StageTimer()
        timer.timed("mixing", lambda: None)
        timer.timed("dataset", lambda: None)
        timer.emit_to(Emitter(), scenario="vanderpol")
        assert [cls for cls, _ in emitted] == [StageTiming, StageTiming]
        assert [fields["stage"] for _, fields in emitted] == ["mixing", "dataset"]
        assert all(fields["scenario"] == "vanderpol" for _, fields in emitted)
        assert all(fields["seconds"] >= 0.0 for _, fields in emitted)
