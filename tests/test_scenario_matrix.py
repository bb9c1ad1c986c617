"""Unit tests for the scenario matrix runner (no training in this file)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.jobs.messages import MatrixJobSpec
from repro.scenarios import run_scenario_matrix, scale_budget_hints


class TestScaleBudgetHints:
    def test_scales_integer_knobs(self):
        hints = dict(mixing_epochs=10, dataset_size=1000, trajectory_fraction=0.6)
        scaled = scale_budget_hints(hints, 0.1)
        assert scaled["mixing_epochs"] == 1
        assert scaled["dataset_size"] == 100
        assert scaled["trajectory_fraction"] == 0.6  # non-budget keys untouched

    def test_floors_at_one(self):
        assert scale_budget_hints(dict(mixing_epochs=2), 0.01)["mixing_epochs"] == 1

    def test_identity_scale_copies(self):
        hints = dict(mixing_epochs=5)
        assert scale_budget_hints(hints, 1.0) == hints


class TestMatrixEvaluateOnly:
    @pytest.fixture(scope="class")
    def report(self):
        return run_scenario_matrix(
            MatrixJobSpec(
                jobs=1,
                scenarios=["vanderpol", "pendulum"],
                perturbations=("none", "noise"),
                samples=6,
                train=False,
                verify=False,
                seed=0,
            ),
        )

    def test_cell_count(self, report):
        # 2 scenarios x 2 experts x 2 perturbations.
        assert report.num_cells == 8
        assert all(row["cell"] == "evaluate" for row in report.rows)

    def test_rows_have_metrics(self, report):
        for row in report.rows:
            assert 0.0 <= row["safe_rate"] <= 1.0
            assert row["samples"] == 6
            assert "seconds" not in row  # timings live in the telemetry log

    def test_table_and_csv(self, report, tmp_path):
        text = report.table()
        assert "vanderpol" in text and "pendulum" in text and "wall clock" in text
        path = report.to_csv(tmp_path / "cells.csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("scenario,controller,cell")
        assert len(lines) == 9  # header + 8 cells

    def test_variant_scenario_names_flow_through(self):
        report = run_scenario_matrix(
            MatrixJobSpec(
                jobs=1,
                scenarios=["vanderpol?mu=1.5"],
                perturbations=("none",),
                samples=4,
                train=False,
                verify=False,
            ),
        )
        assert report.rows
        assert all(row["scenario"] == "vanderpol?mu=1.5" for row in report.rows)

    def test_empty_catalog_request_rejected(self, monkeypatch):
        import repro.scenarios.matrix as matrix_module

        # An empty ``scenarios`` means the whole catalog; only an empty
        # catalog leaves nothing to run.
        monkeypatch.setattr(matrix_module, "list_scenarios", lambda: [])
        with pytest.raises(ValueError, match="no scenarios to run"):
            run_scenario_matrix(MatrixJobSpec(jobs=1, train=False, verify=False))


class TestMatrixProgress:
    def test_progress_callback_invoked(self):
        messages = []
        run_scenario_matrix(
            MatrixJobSpec(
                jobs=1,
                scenarios=["vanderpol"],
                perturbations=("none",),
                samples=4,
                train=False,
                verify=False,
            ),
            progress=messages.append,
        )
        assert messages


def test_import_repro_does_not_load_the_job_layer():
    """The matrix takes a ``MatrixJobSpec`` but imports it lazily: a bare
    ``import repro`` (the benchmark's timed set-up) stays job-layer free."""

    script = "import sys, repro\nprint(sorted(m for m in sys.modules if m.startswith('repro.jobs')))\n"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
