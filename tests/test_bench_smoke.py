"""Tiny-scale smoke of the repro-bench perf-regression harness.

The real floor enforcement lives in ``benchmarks/`` (full scale) and
``make bench-json``; these tests pin the harness *machinery* -- baseline
CSV parsing, report schema/versioning, floor bookkeeping and the CLI verb
-- at a scale cheap enough for tier-1.  The actual measurement runs are
marked ``bench_smoke`` so they can be deselected with
``-m "not bench_smoke"`` on very slow boxes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf import (
    BASELINE_CSVS,
    BENCH_PATHS,
    FLOORS,
    BenchReport,
    PathResult,
    REPORT_VERSION,
    baseline_speedups,
    bench_payload,
    results_dir,
    run_bench,
    write_bench_report,
)


def _fake_result(name="rollout", speedup=9.0, passed=True):
    return PathResult(
        name=name,
        speedup=speedup,
        floor=FLOORS[name],
        baseline_speedup=6.0,
        passed=passed,
        detail={"case": {"speedup": speedup}},
    )


class TestHarnessMachinery:
    def test_floors_cover_every_bench_path(self):
        assert set(FLOORS) == set(BENCH_PATHS) == set(BASELINE_CSVS)
        assert all(floor >= 3.0 for floor in FLOORS.values())

    def test_committed_baselines_parse(self):
        """Every committed CSV yields a finite headline speedup above 1x."""

        assert results_dir().is_dir()
        headline = baseline_speedups()
        for name in BENCH_PATHS:
            assert headline[name] is not None, f"missing baseline for {name}"
            assert headline[name] > 1.0

    def test_missing_baselines_map_to_none(self, tmp_path):
        assert baseline_speedups(tmp_path) == {name: None for name in BENCH_PATHS}

    def test_malformed_baseline_rows_map_to_none(self, tmp_path):
        (tmp_path / BASELINE_CSVS["rollout"]).write_text("header\nnot,a,number\n")
        assert baseline_speedups(tmp_path)["rollout"] is None

    def test_report_passed_and_lookup(self):
        good = _fake_result(passed=True)
        bad = _fake_result(name="training", speedup=1.0, passed=False)
        report = BenchReport(results=[good, bad])
        assert not report.passed
        assert report.result("training") is bad
        with pytest.raises(KeyError):
            report.result("nope")
        assert BenchReport(results=[good]).passed

    def test_payload_schema_is_versioned(self):
        report = BenchReport(results=[_fake_result()], elapsed_seconds=1.5)
        payload = bench_payload(report, date="2026-08-08")
        assert payload["version"] == REPORT_VERSION
        assert payload["date"] == "2026-08-08"
        assert payload["floors"] == FLOORS
        assert payload["passed"] is True
        (entry,) = payload["paths"]
        assert entry["path"] == "rollout"
        assert entry["beats_baseline"] is True
        assert entry["floor"] == FLOORS["rollout"]

    def test_write_bench_report_emits_dated_json(self, tmp_path):
        report = BenchReport(results=[_fake_result()])
        path = write_bench_report(report, directory=tmp_path / "sub", date="2026-08-08")
        assert path == tmp_path / "sub" / "BENCH_2026-08-08.json"
        loaded = json.loads(path.read_text())
        assert loaded["version"] == REPORT_VERSION
        assert loaded["paths"][0]["speedup"] == 9.0

    def test_unknown_path_rejected_before_measuring(self):
        with pytest.raises(ValueError, match="unknown bench paths"):
            run_bench(paths=["rollout", "nope"])


@pytest.mark.bench_smoke
class TestBenchSmoke:
    def test_rollout_measurement_produces_comparable_result(self):
        report = run_bench(paths=["rollout"], repeats=1)
        result = report.result("rollout")
        # Structure, not a perf floor: floor enforcement at full scale lives
        # in benchmarks/ and `make bench-json`; here we only require that the
        # batched engine wins at all, which holds with a wide margin.
        assert result.speedup > 1.0
        assert result.baseline_speedup is not None
        assert result.floor == FLOORS["rollout"]
        assert set(result.detail) == {"vanderpol", "cartpole"}
        assert report.elapsed_seconds > 0.0

    def test_training_measurement_at_tiny_scale(self):
        from repro.perf.bench import _measure_training

        # Tiny scale exercises the full scalar-vs-vector measurement code
        # path; at this size vectorization overhead can dominate, so only
        # the structure is asserted (floors are enforced at full scale).
        result = _measure_training(repeats=1, collect_steps=16, dataset_size=12,
                                   teacher_steps=16)
        assert result.name == "training"
        assert result.floor == FLOORS["training"]
        assert result.speedup > 0.0
        row = result.detail["train-data-path"]
        assert row["scalar_seconds"] > 0.0 and row["vectorized_seconds"] > 0.0
        assert row["num_envs"] >= 1 and row["train_batch_size"] >= 1

    def test_cli_bench_verb_writes_report(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "bench", "--paths", "rollout", "--repeats", "1",
            "--output", str(tmp_path), "--date", "2026-08-08", "--json",
        ])
        assert code == 0
        report_path = tmp_path / "BENCH_2026-08-08.json"
        assert report_path.exists()
        out = capsys.readouterr().out
        assert "rollout:" in out and str(report_path) in out
        payload = json.loads(report_path.read_text())
        assert payload["version"] == REPORT_VERSION
        assert payload["paths"][0]["path"] == "rollout"

    def test_cli_bench_rejects_unknown_path(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown bench paths"):
            main(["bench", "--paths", "warp-drive"])
