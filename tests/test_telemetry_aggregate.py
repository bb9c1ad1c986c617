"""Run aggregation: exact accounting from the log alone, end to end.

The acceptance property of the telemetry subsystem is *accounting parity*:
``repro runs stats`` must reproduce the matrix runner's
``cells_computed`` / ``cells_cached`` counters by
counting events, with no access to the reports or the store.  The
synthetic tests pin the fold's semantics event by event; the integration
tests run real matrices (cold, warm, the benchmark's two-shard stand-in,
trained + verified) and check the folded log against the returned reports
-- and that enabling telemetry leaves the merged CSV byte-identical.
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
    RunFinished,
    RunStarted,
    StageTiming,
    SweepJobFinished,
    accounting,
    fleet_stats,
    fold_events,
    read_events,
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
        assert (shard.computed, shard.cached, shard.finished) == (1, 1, True)
        assert state.all_finished

    @pytest.mark.parametrize(
        "payload",
        [
            {"type": "cell-stolen", "version": 1, "ts": 4.0, "shard": "main", "scenario": "s",
             "controller": "c", "cell": "evaluate", "perturbation": None, "stale": True},
            {"type": "shard-heartbeat", "version": 1, "ts": 4.0, "shard": "shard-1-of-2",
             "cells_done": 3, "cells_computed": 2, "cells_cached": 1, "cells_stolen": 0,
             "cells_skipped": 5},
        ],
        ids=["cell-stolen", "shard-heartbeat"],
    )
    def test_legacy_cell_stolen_lines_fold_as_unknown_events(self, payload):
        """Retired event types (work stealing's ``cell-stolen``, the shard
        heartbeat) still fold from old logs: as unknown events that count
        toward nothing."""

        state = fold_events([decode_line(json.dumps(payload))])
        assert state.unknown_events == 1
        assert accounting(state) == {"cells_computed": 0, "cells_cached": 0}
        assert not any(shard.finished for shard in state.shards.values())

    def test_fold_is_incremental(self):
        state = fold_events([_cell(CellStarted, "main", 1.0)])
        assert state.cells_computed == 0 and state.unknown_events == 0
        state = fold_events([_cell(CellFinished, "main", 2.0, seconds=1.0)], state=state)
        assert state.cells_computed == 1 and state.events == 2
        assert not state.all_finished

    def test_stage_and_sweep_events(self):
        events = [
            StageTiming(ts=2.0, shard="main", scenario="s", stage="mixing", seconds=1.5),
            StageTiming(ts=3.0, shard="main", scenario="s", stage="mixing", seconds=0.5),
            SweepJobFinished(ts=4.0, shard="main", job="j", system="s", verified=True),
        ]
        state = fold_events(events)
        assert state.stage_seconds == {"mixing": 2.0}
        assert [event.verified for event in state.sweep_jobs] == [True]

    def test_unknown_events_are_counted_not_fatal(self):
        from repro.telemetry import UnknownEvent

        state = fold_events([UnknownEvent.wrap({"type": "laser", "ts": 1.0, "shard": "m"})])
        assert state.unknown_events == 1
        assert state.events == 1

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

    @pytest.mark.parametrize("spelling", ["dotdot", "relative", "symlink", "trailing-slash"])
    def test_fleet_stats_folds_one_directory_once_under_any_spelling(
        self, tmp_path, monkeypatch, spelling
    ):
        run_dir = tmp_path / "run"
        report = run_scenario_matrix(EVAL_SPEC, run_dir=run_dir)
        if spelling == "dotdot":
            other = tmp_path / "run" / ".." / "run"
        elif spelling == "relative":
            monkeypatch.chdir(tmp_path)
            other = "run"
        elif spelling == "trailing-slash":
            other = f"{run_dir}/"
        else:
            other = tmp_path / "link"
            other.symlink_to(run_dir, target_is_directory=True)
        stats = fleet_stats([run_dir, other])
        assert stats["runs"] == 1
        assert stats["cells_computed"] == report.cells_computed
        assert list(stats["per_run"]) == [str(run_dir)]

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
        """What the repository benchmark's ``matrix-shard2`` op relies on."""

        solo_dir, shard_dir = tmp_path / "solo", tmp_path / "shards"
        solo = run_scenario_matrix(EVAL_SPEC, run_dir=solo_dir)
        merged = run_sharded_matrix(2, shard_dir, **EVAL_KWARGS)

        solo_csv, merged_csv = tmp_path / "solo.csv", tmp_path / "merged.csv"
        solo.to_csv(solo_csv)
        merged.to_csv(merged_csv)
        assert merged_csv.read_bytes() == solo_csv.read_bytes()
        assert merged.status == "ok" and merged.cells_skipped == 0

        # Exactly one run-finished per shard, each from its own log file.
        events = read_events(shard_dir)
        finished = [event for event in events if event.TYPE == "run-finished"]
        assert sorted(event.shard for event in finished) == ["shard-1-of-2", "shard-2-of-2"]
        assert [event.cells_stolen for event in finished] == [0, 0]
        # The folded totals are the sum over the two run-finished events.
        state = fold_events(events)
        assert state.all_finished
        assert accounting(state) == {
            "cells_computed": sum(event.cells_computed for event in finished),
            "cells_cached": sum(event.cells_cached for event in finished),
        }
        assert accounting(state) == {"cells_computed": solo.cells_computed, "cells_cached": 0}

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
