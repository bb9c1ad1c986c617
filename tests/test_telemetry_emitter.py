"""Crash-safe event-log emitter and the one-shot multiplexing reader.

Pins the contracts downstream tooling builds on:

* the wire format is byte-stable given a pinned clock (golden-log test);
* appends are whole-line atomic -- concurrent emitting threads can only
  interleave complete lines, never tear one;
* a torn trailing line (a worker died mid-append) is skipped by the
  reader and picked up once completed;
* the reader multiplexes many per-process files into one stream ordered
  by (ts, file, sequence);
* an emitter whose log cannot be written goes quiet (``broken``) instead
  of taking the run down.
"""

import threading

import pytest

from repro.telemetry.emitter import EVENTS_DIRNAME, NullTelemetryEmitter, TelemetryEmitter, events_dir
from repro.telemetry.events import CellCached, CellFinished, CellStarted, RunStarted
from repro.telemetry.reader import read_events


class FakeClock:
    """Deterministic clock: 0.0, 1.0, 2.0, ... per call."""

    def __init__(self):
        self.now = -1.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestEmitter:
    def test_golden_log_is_byte_stable(self, tmp_path):
        with TelemetryEmitter(tmp_path, source="main", clock=FakeClock()) as tele:
            tele.emit(RunStarted, scenarios=("pendulum",), cells_total=2, cells_owned=2, pid=7)
            tele.emit(CellStarted, scenario="pendulum", controller="kappa1", perturbation="none")
            tele.emit(
                CellFinished,
                scenario="pendulum",
                controller="kappa1",
                perturbation="none",
                seconds=0.5,
                safe_rate=1.0,
            )
            tele.emit(CellCached, scenario="pendulum", controller="kappa2", perturbation="none")
        expected = (
            '{"type":"run-started","version":1,"ts":0.0,"shard":"main",'
            '"scenarios":["pendulum"],"cells_total":2,"cells_owned":2,"pid":7}\n'
            '{"type":"cell-started","version":1,"ts":1.0,"shard":"main",'
            '"scenario":"pendulum","controller":"kappa1","cell":"evaluate","perturbation":"none"}\n'
            '{"type":"cell-finished","version":1,"ts":2.0,"shard":"main",'
            '"scenario":"pendulum","controller":"kappa1","cell":"evaluate","perturbation":"none",'
            '"seconds":0.5,"status":"ok","safe_rate":1.0}\n'
            '{"type":"cell-cached","version":1,"ts":3.0,"shard":"main",'
            '"scenario":"pendulum","controller":"kappa2","cell":"evaluate","perturbation":"none"}\n'
        )
        path = events_dir(tmp_path) / "main.jsonl"
        assert path.read_bytes() == expected.encode("utf-8")
        assert tele.emitted == 4

    def test_validation_errors_propagate(self, tmp_path):
        from repro.telemetry.events import EventValidationError

        tele = TelemetryEmitter(tmp_path)
        with pytest.raises(EventValidationError):
            tele.emit(CellFinished, seconds=-1.0)
        assert not events_dir(tmp_path).exists()  # nothing was written

    def test_bad_source_names_rejected(self, tmp_path):
        for source in ("", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                TelemetryEmitter(tmp_path, source=source)

    def test_broken_emitter_goes_quiet_instead_of_raising(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("a file where the events dir should go")
        tele = TelemetryEmitter(blocker, source="main")
        assert tele.emit(CellCached, scenario="s", controller="c") is None
        assert tele.broken
        assert tele.emit(CellCached, scenario="s", controller="c") is None
        assert tele.emitted == 0
        tele.close()

    def test_concurrent_threads_interleave_whole_lines(self, tmp_path):
        tele = TelemetryEmitter(tmp_path, source="main")
        threads = [
            threading.Thread(
                target=lambda worker=worker: [
                    tele.emit(CellCached, scenario=f"w{worker}", controller=f"c{i}")
                    for i in range(25)
                ]
            )
            for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tele.close()
        events = read_events(tmp_path)
        assert len(events) == 100
        assert all(isinstance(event, CellCached) for event in events)
        seen = {(event.scenario, event.controller) for event in events}
        assert len(seen) == 100  # every append landed exactly once, untorn

    def test_null_emitter_mirrors_the_surface(self):
        tele = NullTelemetryEmitter()
        with tele:
            assert tele.emit(CellCached, scenario="s", controller="c") is None
        tele.close()
        assert tele.emitted == 0 and not tele.broken


class TestReadEvents:
    # Distinct stamps order by time across files; one shared tick orders by
    # file, then by line.
    @pytest.mark.parametrize("tie, order", [(False, "abcd"), (True, "acbd")], ids=["by-ts", "ts-tie"])
    def test_multiplexes_shard_files_in_time_order(self, tmp_path, tie, order):
        clock = (lambda: 5.0) if tie else FakeClock()
        one = TelemetryEmitter(tmp_path, source="shard-1-of-2", clock=clock)
        two = TelemetryEmitter(tmp_path, source="shard-2-of-2", clock=clock)
        one.emit(CellCached, scenario="a", controller="c")
        two.emit(CellCached, scenario="b", controller="c")
        one.emit(CellCached, scenario="c", controller="c")
        two.emit(CellCached, scenario="d", controller="c")
        one.close(), two.close()
        events = read_events(tmp_path)
        assert "".join(event.scenario for event in events) == order
        assert [event.shard for event in events] == [
            "shard-1-of-2" if name in "ac" else "shard-2-of-2" for name in order
        ]

    def test_each_read_returns_the_whole_history(self, tmp_path):
        tele = TelemetryEmitter(tmp_path, source="main", clock=FakeClock())
        tele.emit(CellCached, scenario="a", controller="c")
        tele.emit(CellCached, scenario="b", controller="c")
        assert [event.scenario for event in read_events(tmp_path)] == ["a", "b"]
        tele.emit(CellCached, scenario="c", controller="c")
        assert [event.scenario for event in read_events(tmp_path)] == ["a", "b", "c"]
        tele.close()

    # Where the writer died: after one byte, halfway, or before the newline
    # only (the JSON is whole, but the line is not finished).
    @pytest.mark.parametrize("cut", [1, 0.5, -1], ids=["one-byte", "half", "no-newline"])
    def test_torn_trailing_line_is_skipped_until_complete(self, tmp_path, cut):
        tele = TelemetryEmitter(tmp_path, source="main", clock=FakeClock())
        tele.emit(CellCached, scenario="a", controller="c")
        tele.close()
        path = events_dir(tmp_path) / "main.jsonl"
        whole = CellCached(ts=9.0, shard="main", scenario="b", controller="c").to_line() + "\n"
        cut = int(len(whole) * cut) if isinstance(cut, float) else cut
        with path.open("a") as handle:
            handle.write(whole[:cut])  # a worker died mid-append
        assert [event.scenario for event in read_events(tmp_path)] == ["a"]
        with path.open("a") as handle:
            handle.write(whole[cut:])
        assert [event.scenario for event in read_events(tmp_path)] == ["a", "b"]

    def test_missing_events_dir_reads_empty(self, tmp_path):
        assert read_events(tmp_path) == []

    def test_only_readable_jsonl_files_are_read(self, tmp_path):
        with TelemetryEmitter(tmp_path, source="main", clock=FakeClock()) as tele:
            tele.emit(CellCached, scenario="a", controller="c")
        line = CellCached(ts=0.5, shard="x", scenario="stray", controller="c").to_line() + "\n"
        (events_dir(tmp_path) / "notes.txt").write_text(line)
        (events_dir(tmp_path) / ".tmp-main.jsonl.partial").write_text(line)
        (events_dir(tmp_path) / "dir.jsonl").mkdir()  # unreadable as a file
        assert [event.scenario for event in read_events(tmp_path)] == ["a"]

    def test_events_dirname_is_the_reader_writer_contract(self, tmp_path):
        assert events_dir(tmp_path) == tmp_path / EVENTS_DIRNAME
