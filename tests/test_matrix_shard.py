"""Sharded scenario-matrix runs: split, merge — byte-identically.

Integration pack for the shard protocol on the *real* engines (training,
batched evaluation, verification): shards splitting one run directory must
jointly compute every cell exactly once, and ``merge_matrix_run`` must
reproduce the single-process CSV byte-for-byte regardless of shard count
or execution order.  (The algebraic shard properties are covered by
Hypothesis in ``test_shard_properties.py`` and ``test_matrix_executor.py``;
the crash/rescue paths by ``test_matrix_shard_faults.py``.)
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.jobs.messages import MatrixJobSpec
from repro.scenarios import (
    MatrixIncompleteError,
    ShardSpec,
    merge_matrix_run,
    plan_matrix_cells,
    run_scenario_matrix,
    run_sharded_matrix,
)
from repro.scenarios.matrix import read_matrix_manifest

#: Evaluate-only two-scenario matrix: (2 + 2 experts) x 2 perturbations.
EVAL_KWARGS = dict(
    scenarios=["vanderpol", "pendulum"],
    perturbations=("none", "noise"),
    samples=4,
    train=False,
    verify=False,
    seed=0,
    jobs=1,
)
EVAL_SPEC = MatrixJobSpec(**EVAL_KWARGS)
NUM_EVAL_CELLS = 8

#: A two-shard grid with every manifest field set away from its default.
#: Its ``matrix.json`` bytes (and the merged CSV) were recorded before the
#: manifest became the ``MatrixJobSpec`` identity, and must never change.
PINNED_GRID = MatrixJobSpec(
    scenarios=("pendulum", "cartpole"),
    perturbations=("none", "noise"),
    samples=4,
    fraction=0.1,
    train=False,
    verify=False,
    seed=3,
    budget_scale=0.5,
    train_overrides={"num_envs": 4},
    verify_overrides={"degree": 2},
    jobs=1,
)
PINNED_MANIFEST_SHA256 = "7c915d234fcdb357d545ba83e9bf5314874a53b7575e8bd0fb208e75e89c29be"
PINNED_CSV_SHA256 = "2cf5ba19357d5f45acd241c87924cc0f65508c550c6e1d4cc7ec37864e8f0240"

@pytest.fixture(scope="module")
def eval_reference(tmp_path_factory):
    """Single-process evaluate-only run: (csv bytes, row list)."""

    root = tmp_path_factory.mktemp("shard-eval-ref")
    report = run_scenario_matrix(EVAL_SPEC, run_dir=root / "store")
    assert report.cells_computed == NUM_EVAL_CELLS
    return report.to_csv(root / "reference.csv").read_bytes(), report.rows


class TestShardedMergeEquivalence:
    @pytest.mark.parametrize("count", [2, 3])
    def test_merge_reproduces_the_single_process_csv(self, count, eval_reference, tmp_path):
        csv_bytes, _ = eval_reference
        shard_dir = tmp_path / "store"
        for index in range(1, count + 1):
            run_scenario_matrix(EVAL_SPEC, run_dir=shard_dir, shard=ShardSpec(index, count))
        merged = merge_matrix_run(shard_dir)
        assert merged.to_csv(tmp_path / "merged.csv").read_bytes() == csv_bytes
        assert merged.cells_cached == NUM_EVAL_CELLS and merged.cells_computed == 0

    def test_completion_order_does_not_matter(self, eval_reference, tmp_path):
        csv_bytes, _ = eval_reference
        shard_dir = tmp_path / "store"
        for index in (3, 1, 2):
            run_scenario_matrix(EVAL_SPEC, run_dir=shard_dir, shard=f"{index}/3")
        merged = merge_matrix_run(shard_dir)
        assert merged.to_csv(tmp_path / "merged.csv").read_bytes() == csv_bytes

    def test_shards_compute_disjoint_slices(self, eval_reference, tmp_path):
        _, reference_rows = eval_reference
        shard_dir = tmp_path / "store"
        reports = [
            run_scenario_matrix(EVAL_SPEC, run_dir=shard_dir, shard=ShardSpec(index, 2))
            for index in (1, 2)
        ]
        assert sum(r.cells_computed for r in reports) == NUM_EVAL_CELLS
        assert all(r.cells_cached == 0 for r in reports)
        keys = [
            {(row["scenario"], row["controller"], row["perturbation"]) for row in r.rows}
            for r in reports
        ]
        assert not (keys[0] & keys[1]), "shard rows must be disjoint"
        merged_keys = keys[0] | keys[1]
        assert merged_keys == {
            (row["scenario"], row["controller"], row["perturbation"]) for row in reference_rows
        }

    def test_shard_string_argument_accepted(self, tmp_path):
        report = run_scenario_matrix(EVAL_SPEC, run_dir=tmp_path / "s", shard="1/2")
        assert report.shard == "1/2"
        assert report.status == "ok"


class TestManifest:
    def test_shard_run_writes_a_manifest(self, tmp_path):
        run_scenario_matrix(EVAL_SPEC, run_dir=tmp_path / "s", shard="1/2")
        manifest = read_matrix_manifest(tmp_path / "s")
        assert manifest["scenarios"] == ["vanderpol", "pendulum"]
        assert manifest["samples"] == 4 and manifest["train"] is False

    def test_conflicting_matrix_is_rejected(self, tmp_path):
        run_scenario_matrix(EVAL_SPEC, run_dir=tmp_path / "s", shard="1/2")
        with pytest.raises(ValueError, match="different matrix"):
            run_scenario_matrix(replace(EVAL_SPEC, samples=5), run_dir=tmp_path / "s", shard="2/2")

    def test_manifest_bytes_are_pinned(self, tmp_path):
        for index in (1, 2):
            run_scenario_matrix(PINNED_GRID, run_dir=tmp_path / "s", shard=f"{index}/2")
        manifest = (tmp_path / "s" / "matrix.json").read_bytes()
        assert hashlib.sha256(manifest).hexdigest() == PINNED_MANIFEST_SHA256
        csv = merge_matrix_run(tmp_path / "s").to_csv(tmp_path / "merged.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == PINNED_CSV_SHA256

    def test_manifest_with_integer_valued_floats_still_merges(self, eval_reference, tmp_path):
        """Older writers recorded a float field as the caller typed it
        (``budget_scale=1``); such run directories still merge."""

        csv_bytes, _ = eval_reference
        for index in (1, 2):
            run_scenario_matrix(EVAL_SPEC, run_dir=tmp_path / "s", shard=f"{index}/2")
        path = tmp_path / "s" / "matrix.json"
        manifest = json.loads(path.read_text())
        manifest["budget_scale"] = 1
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        merged = merge_matrix_run(tmp_path / "s")
        assert merged.to_csv(tmp_path / "merged.csv").read_bytes() == csv_bytes

    def test_plain_store_runs_write_no_manifest(self, tmp_path):
        run_scenario_matrix(EVAL_SPEC, run_dir=tmp_path / "s")
        with pytest.raises(FileNotFoundError):
            read_matrix_manifest(tmp_path / "s")

    def test_merge_without_manifest_raises(self, tmp_path):
        run_scenario_matrix(EVAL_SPEC, run_dir=tmp_path / "s")
        with pytest.raises(FileNotFoundError):
            merge_matrix_run(tmp_path / "s")


class TestIncompleteMerge:
    def test_merge_of_a_partial_store_names_the_missing_cells(self, tmp_path):
        run_scenario_matrix(EVAL_SPEC, run_dir=tmp_path / "s", shard="1/2")
        with pytest.raises(MatrixIncompleteError) as excinfo:
            merge_matrix_run(tmp_path / "s")
        missing_positions = [
            p for p in range(len(plan_matrix_cells(**{
                k: EVAL_KWARGS[k] for k in ("scenarios", "perturbations", "train", "verify")
            })))
            if ShardSpec(2, 2).owns(p)
        ]
        assert len(excinfo.value.missing) == len(missing_positions)
        assert all(entry.startswith("evaluate/") for entry in excinfo.value.missing)
        assert "against the same --run-dir" in str(excinfo.value)

    def test_offline_flag_requires_a_store(self):
        with pytest.raises(ValueError, match="offline replay needs a run store"):
            run_scenario_matrix(EVAL_SPEC, offline=True)

    def test_shard_requires_a_store(self):
        with pytest.raises(ValueError, match="sharded runs need a run store"):
            run_scenario_matrix(EVAL_SPEC, shard="1/2")


class TestShardTimeBudget:
    def test_exhausted_shard_reports_and_a_rerun_resumes(self, eval_reference, tmp_path):
        csv_bytes, _ = eval_reference
        exhausted = run_scenario_matrix(
            EVAL_SPEC,
            run_dir=tmp_path / "s",
            shard="1/2",
            shard_time_budget=1e-9,
        )
        assert exhausted.status == "resource-exhausted"
        assert exhausted.cells_computed == 0
        assert exhausted.cells_skipped == NUM_EVAL_CELLS // 2
        # Rerunning the exhausted shard (and its sibling) completes the grid.
        rescue = [
            run_scenario_matrix(EVAL_SPEC, run_dir=tmp_path / "s", shard=f"{index}/2")
            for index in (1, 2)
        ]
        assert [r.status for r in rescue] == ["ok", "ok"]
        assert sum(r.cells_computed for r in rescue) == NUM_EVAL_CELLS
        assert all(r.cells_skipped == 0 for r in rescue)
        merged = merge_matrix_run(tmp_path / "s")
        assert merged.to_csv(tmp_path / "merged.csv").read_bytes() == csv_bytes

    def test_unexhausted_budget_changes_nothing(self, eval_reference, tmp_path):
        csv_bytes, _ = eval_reference
        report = run_scenario_matrix(
            EVAL_SPEC,
            run_dir=tmp_path / "s",
            shard="1/1",
            shard_time_budget=3600.0,
        )
        assert report.status == "ok"
        assert report.cells_computed == NUM_EVAL_CELLS
        merged = merge_matrix_run(tmp_path / "s")
        assert merged.to_csv(tmp_path / "merged.csv").read_bytes() == csv_bytes


class TestLocalShardWorkers:
    def test_run_sharded_matrix_merges_to_the_reference_csv(self, eval_reference, tmp_path):
        csv_bytes, _ = eval_reference
        report = run_sharded_matrix(2, tmp_path / "s", **EVAL_KWARGS)
        assert report.to_csv(tmp_path / "merged.csv").read_bytes() == csv_bytes
        summaries = sorted((tmp_path / "s" / "shards").glob("*.json"))
        assert [path.name for path in summaries] == ["1-of-2.json", "2-of-2.json"]
        accounted = [json.loads(path.read_text()) for path in summaries]
        assert all(summary["status"] == "ok" for summary in accounted)
        assert sum(summary["cells_computed"] for summary in accounted) == NUM_EVAL_CELLS

    def test_rejects_a_nonpositive_shard_count(self, tmp_path):
        with pytest.raises(ValueError, match="at least one shard"):
            run_sharded_matrix(0, tmp_path / "s", **EVAL_KWARGS)
