"""Fleet aggregation: exact accounting from the log alone, end to end.

The acceptance property of the telemetry subsystem is *accounting parity*:
``repro runs stats`` must reproduce the matrix runner's
``cells_computed`` / ``cells_cached`` counters by
counting events, with no access to the reports or the store.  The
synthetic tests pin the fold's semantics event by event; the integration
tests run real matrices (cold, warm, sharded, trained + verified) and
check the folded log against the returned reports -- and that enabling
telemetry leaves the merged CSV byte-identical.
"""

import json

import pytest

from repro.jobs.messages import MatrixJobSpec
from repro.scenarios import run_scenario_matrix
from repro.scenarios.matrix import run_sharded_matrix
from repro.telemetry import (
    CellCached,
    CellFinished,
    CellStarted,
    FleetState,
    RunFinished,
    RunStarted,
    ShardHeartbeat,
    StageTiming,
    SweepJobFinished,
    accounting,
    find_stragglers,
    fleet_stats,
    fold_events,
    read_events,
    render_watch,
    stale_shards,
    watch_snapshot,
)
from repro.telemetry.emitter import events_dir
from repro.telemetry.events import decode_line

TINY_TRAIN = dict(mixing_epochs=1, mixing_steps=64, distill_epochs=2, dataset_size=64, eval_samples=8)
TINY_VERIFY = dict(target_error=1.0, degree=2, max_partitions=64, reach_steps=2)

#: Cheap eval-only matrix: pendulum has 2 experts -> 4 evaluate cells.
EVAL_KWARGS = dict(
    scenarios=["pendulum"],
    perturbations=("none", "noise"),
    samples=4,
    fraction=0.05,
    train=False,
    verify=False,
    seed=0,
    jobs=1,
)
EVAL_SPEC = MatrixJobSpec(**EVAL_KWARGS)


def _cell(event_type, shard, ts, **fields):
    return event_type(ts=ts, shard=shard, scenario="s", controller="c", **fields)


class TestFold:
    def test_counters_match_the_event_stream(self):
        events = [
            RunStarted(ts=0.0, shard="main", scenarios=("s",), cells_total=4, cells_owned=4),
            _cell(CellStarted, "main", 1.0),
            _cell(CellFinished, "main", 2.0, seconds=1.0),
            _cell(CellCached, "main", 3.0, perturbation="noise"),
            RunFinished(ts=5.0, shard="main", cells_computed=1, cells_cached=1, cells_skipped=2),
        ]
        state = fold_events(events)
        assert accounting(state) == {"cells_computed": 1, "cells_cached": 1}
        shard = state.shards["main"]
        assert shard.cells_total == 4 and shard.cells_owned == 4
        assert shard.finished and shard.status == "ok"
        assert shard.skipped == 2
        assert state.all_finished

    def test_legacy_cell_stolen_lines_fold_as_unknown_events(self):
        """Work-stealing versions wrote ``cell-stolen``; old logs still fold."""

        line = json.dumps(
            {"type": "cell-stolen", "version": 1, "ts": 4.0, "shard": "main", "scenario": "s",
             "controller": "c", "cell": "evaluate", "perturbation": None, "stale": True}
        )
        state = fold_events([decode_line(line)])
        assert state.unknown_events == 1
        assert accounting(state) == {"cells_computed": 0, "cells_cached": 0}

    def test_fold_is_incremental(self):
        state = fold_events([_cell(CellStarted, "main", 1.0)])
        assert state.shards["main"].in_flight  # started, not finished
        state = fold_events([_cell(CellFinished, "main", 2.0, seconds=1.0)], state=state)
        assert not state.shards["main"].in_flight
        assert state.cells_computed == 1
        assert not state.all_finished

    def test_current_cell_is_the_oldest_in_flight(self):
        state = fold_events(
            [
                _cell(CellStarted, "main", 5.0, perturbation="noise"),
                _cell(CellStarted, "main", 2.0),
            ]
        )
        identity, started = state.shards["main"].current_cell()
        assert started == 2.0 and identity == ("s", "c", "evaluate", None)

    def test_heartbeat_and_stage_and_sweep_events(self):
        events = [
            ShardHeartbeat(ts=1.0, shard="main", cells_skipped=3),
            StageTiming(ts=2.0, shard="main", scenario="s", stage="mixing", seconds=1.5),
            StageTiming(ts=3.0, shard="main", scenario="s", stage="mixing", seconds=0.5),
            SweepJobFinished(ts=4.0, shard="main", job="j", system="s", verified=True),
        ]
        state = fold_events(events)
        assert state.shards["main"].skipped == 3
        assert state.stage_seconds == {"mixing": 2.0}
        assert [event.verified for event in state.sweep_jobs] == [True]

    def test_unknown_events_are_counted_not_fatal(self):
        from repro.telemetry import UnknownEvent

        state = fold_events([UnknownEvent.wrap({"type": "laser", "ts": 1.0, "shard": "m"})])
        assert state.unknown_events == 1
        assert state.events == 1

    def test_stragglers_exceed_the_kind_median(self):
        events = [
            _cell(CellFinished, "main", float(i), perturbation=str(i), seconds=1.0)
            for i in range(4)
        ]
        events.append(_cell(CellFinished, "main", 9.0, perturbation="slow", seconds=50.0))
        stragglers = find_stragglers(fold_events(events))
        assert [row["perturbation"] for row in stragglers] == ["slow"]
        assert stragglers[0]["factor"] == pytest.approx(50.0)

    def test_stale_shards_respect_the_window(self):
        state = fold_events(
            [
                _cell(CellStarted, "idle", 0.0),
                _cell(CellStarted, "busy", 99.0),
                RunFinished(ts=1.0, shard="done"),
            ]
        )
        assert stale_shards(state, now=100.0, stale_after=15.0) == ["idle"]
        assert stale_shards(state, now=100.0, stale_after=1000.0) == []

    def test_render_watch_shows_every_shard(self):
        state = fold_events(
            [
                RunStarted(ts=0.0, shard="main", cells_total=2, cells_owned=2),
                _cell(CellStarted, "main", 1.0),
            ]
        )
        frame = render_watch(state, now=2.0)
        assert "main" in frame and "running" in frame
        assert "evaluate s:c" in frame  # the in-flight cell is displayed


class TestMatrixParity:
    def test_cold_and_warm_runs_account_exactly(self, tmp_path):
        run_dir = tmp_path / "run"
        cold = run_scenario_matrix(EVAL_SPEC, run_dir=run_dir)
        assert events_dir(run_dir).is_dir()
        state = fold_events(read_events(run_dir))
        assert accounting(state) == {
            "cells_computed": cold.cells_computed,
            "cells_cached": cold.cells_cached,
        }
        assert cold.cells_computed == 4 and cold.cells_cached == 0
        assert state.all_finished

        warm = run_scenario_matrix(EVAL_SPEC, run_dir=run_dir)
        assert warm.cells_cached == 4 and warm.cells_computed == 0
        # The log is cumulative across runs: cold + warm.
        total = accounting(fold_events(read_events(run_dir)))
        assert total == {"cells_computed": 4, "cells_cached": 4}

    def test_fleet_stats_reproduces_the_accounting(self, tmp_path):
        run_dir = tmp_path / "run"
        report = run_scenario_matrix(EVAL_SPEC, run_dir=run_dir)
        stats = fleet_stats([run_dir])
        assert stats["cells_computed"] == report.cells_computed
        assert stats["cells_cached"] == report.cells_cached
        assert stats["all_finished"] is True
        assert stats["runs"] == 1 and stats["shards"] == 1
        assert stats["cell_seconds"]["count"] == report.cells_computed
        assert set(stats["cell_seconds_by_kind"]) == {"evaluate"}
        assert stats["scenarios"]["pendulum"]["mean_safe_rate"] == pytest.approx(1.0)
        assert json.loads(json.dumps(stats, sort_keys=True)) == json.loads(
            json.dumps(stats, sort_keys=True)
        )
        # The one-shot watch frame renders from the same fold.
        assert "all finished" in watch_snapshot(run_dir)

    def test_fleet_stats_spans_multiple_runs(self, tmp_path):
        reports = [
            run_scenario_matrix(EVAL_SPEC, run_dir=tmp_path / name) for name in ("a", "b")
        ]
        stats = fleet_stats([tmp_path / "a", tmp_path / "b"])
        assert stats["runs"] == 2
        assert stats["cells_computed"] == sum(report.cells_computed for report in reports)
        assert set(stats["per_run"]) == {str(tmp_path / "a"), str(tmp_path / "b")}

    def test_telemetry_off_leaves_no_event_log(self, tmp_path):
        run_dir = tmp_path / "run"
        run_scenario_matrix(EVAL_SPEC, run_dir=run_dir, telemetry=False)
        assert not events_dir(run_dir).exists()

    def test_telemetry_needs_a_store(self):
        with pytest.raises(ValueError, match="telemetry needs a run store"):
            run_scenario_matrix(EVAL_SPEC, telemetry=True)

    def test_offline_replay_emits_nothing(self, tmp_path):
        run_dir = tmp_path / "run"
        run_scenario_matrix(EVAL_SPEC, run_dir=run_dir)
        before = len(read_events(run_dir))
        run_scenario_matrix(EVAL_SPEC, run_dir=run_dir, offline=True)
        assert len(read_events(run_dir)) == before
        with pytest.raises(ValueError, match="offline replay"):
            run_scenario_matrix(EVAL_SPEC, run_dir=run_dir, offline=True, telemetry=True)

    def test_sharded_run_accounts_per_shard_and_merges_byte_identically(self, tmp_path):
        solo_dir, fleet_dir = tmp_path / "solo", tmp_path / "fleet"
        solo = run_scenario_matrix(EVAL_SPEC, run_dir=solo_dir)
        merged = run_sharded_matrix(2, fleet_dir, **EVAL_KWARGS)

        solo_csv, merged_csv = tmp_path / "solo.csv", tmp_path / "merged.csv"
        solo.to_csv(solo_csv)
        merged.to_csv(merged_csv)
        assert merged_csv.read_bytes() == solo_csv.read_bytes()

        # Both shard emitters wrote their own log file; the folded totals
        # match the per-shard summaries the workers dropped next to the store.
        state = fold_events(read_events(fleet_dir))
        assert set(state.shards) == {"shard-1-of-2", "shard-2-of-2"}
        assert state.all_finished
        summaries = [
            json.loads(path.read_text()) for path in sorted((fleet_dir / "shards").glob("*.json"))
        ]
        assert accounting(state) == {
            "cells_computed": sum(s["cells_computed"] for s in summaries),
            "cells_cached": sum(s["cells_cached"] for s in summaries),
        }
        assert accounting(state)["cells_computed"] + accounting(state)["cells_cached"] >= 4

    def test_trained_matrix_emits_train_verify_and_stage_events(self, tmp_path):
        run_dir = tmp_path / "run"
        report = run_scenario_matrix(
            MatrixJobSpec(
                scenarios=["vanderpol"],
                perturbations=("none",),
                samples=4,
                train=True,
                verify=True,
                jobs=1,
                seed=0,
                train_overrides=TINY_TRAIN,
                verify_overrides=TINY_VERIFY,
            ),
            run_dir=run_dir,
        )
        events = read_events(run_dir)
        state = fold_events(events)
        assert accounting(state) == {
            "cells_computed": report.cells_computed,
            "cells_cached": report.cells_cached,
        }
        kinds = {identity[2] for identity, _, _, _ in state.finished_cells}
        assert kinds == {"train", "evaluate", "verify"}
        # The training pipeline's stage timings all surfaced.
        assert set(state.stage_seconds) >= {"mixing", "dataset", "robust_distillation"}
        assert all(seconds >= 0.0 for seconds in state.stage_seconds.values())
        # One verification job, streamed back through the sweep hook.
        assert [event.system for event in state.sweep_jobs] == ["vanderpol"]
        assert state.sweep_jobs[0].cached is False
        stats = fleet_stats([run_dir])
        assert stats["scenarios"]["vanderpol"]["verify_jobs"] == 1
        assert stats["stage_seconds"] == pytest.approx(state.stage_seconds)

        # Warm rerun: everything cached, including the verify job.
        warm = run_scenario_matrix(
            MatrixJobSpec(
                scenarios=["vanderpol"],
                perturbations=("none",),
                samples=4,
                train=True,
                verify=True,
                jobs=1,
                seed=0,
                train_overrides=TINY_TRAIN,
                verify_overrides=TINY_VERIFY,
            ),
            run_dir=run_dir,
        )
        assert warm.cells_computed == 0
        total = accounting(fold_events(read_events(run_dir)))
        assert total["cells_cached"] == report.cells_cached + warm.cells_cached
        assert total["cells_computed"] == report.cells_computed
