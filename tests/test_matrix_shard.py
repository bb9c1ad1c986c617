"""Sharded scenario-matrix runs: split, merge — byte-identically.

Integration pack for the local two-shard stand-in the repository benchmark
runs (``run_sharded_matrix``), on the *real* engines (training, batched
evaluation, verification): shards splitting one run directory must
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
    MatrixManifestError,
    ShardSpec,
    merge_matrix_run,
    plan_matrix_cells,
    run_scenario_matrix,
    run_sharded_matrix,
)
from repro.scenarios.matrix import (
    matrix_manifest,
    read_matrix_manifest,
    write_matrix_manifest,
)
from repro.telemetry import read_events

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
            run_scenario_matrix(EVAL_SPEC, run_dir=shard_dir, shard=ShardSpec(index, 3))
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


class TestManifest:
    def test_shard_run_writes_a_manifest(self, tmp_path):
        run_scenario_matrix(EVAL_SPEC, run_dir=tmp_path / "s", shard=ShardSpec(1, 2))
        manifest = read_matrix_manifest(tmp_path / "s")
        assert manifest["scenarios"] == ["vanderpol", "pendulum"]
        assert manifest["samples"] == 4 and manifest["train"] is False

    def test_conflicting_matrix_is_rejected(self, tmp_path):
        run_scenario_matrix(EVAL_SPEC, run_dir=tmp_path / "s", shard=ShardSpec(1, 2))
        with pytest.raises(ValueError, match="different matrix"):
            run_scenario_matrix(replace(EVAL_SPEC, samples=5), run_dir=tmp_path / "s", shard=ShardSpec(2, 2))

    def test_manifest_bytes_are_pinned(self, tmp_path):
        for index in (1, 2):
            run_scenario_matrix(PINNED_GRID, run_dir=tmp_path / "s", shard=ShardSpec(index, 2))
        manifest = (tmp_path / "s" / "matrix.json").read_bytes()
        assert hashlib.sha256(manifest).hexdigest() == PINNED_MANIFEST_SHA256
        csv = merge_matrix_run(tmp_path / "s").to_csv(tmp_path / "merged.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == PINNED_CSV_SHA256

    def test_manifest_with_integer_valued_floats_still_merges(self, eval_reference, tmp_path):
        """Older writers recorded a float field as the caller typed it
        (``budget_scale=1``); such run directories still merge."""

        csv_bytes, _ = eval_reference
        for index in (1, 2):
            run_scenario_matrix(EVAL_SPEC, run_dir=tmp_path / "s", shard=ShardSpec(index, 2))
        path = tmp_path / "s" / "matrix.json"
        manifest = json.loads(path.read_text())
        manifest["budget_scale"] = 1
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        merged = merge_matrix_run(tmp_path / "s")
        assert merged.to_csv(tmp_path / "merged.csv").read_bytes() == csv_bytes

    @pytest.mark.parametrize(
        "spec",
        [EVAL_SPEC, PINNED_GRID, MatrixJobSpec(scenarios=("acc",), perturbations=("attack",),
                                               samples=2, fraction=0.25, seed=9, jobs=4)],
        ids=["eval-grid", "pinned-grid", "train-and-verify"],
    )
    def test_written_manifest_decodes_to_the_spec_it_records(self, tmp_path, spec):
        """The merge rebuilds the sharded run's spec from the manifest alone."""

        write_matrix_manifest(tmp_path, matrix_manifest(spec))
        decoded = MatrixJobSpec.from_json(read_matrix_manifest(tmp_path))
        assert decoded == replace(spec, scenarios=tuple(spec.scenarios), jobs=0)

    def test_plain_store_runs_write_no_manifest(self, tmp_path):
        run_scenario_matrix(EVAL_SPEC, run_dir=tmp_path / "s")
        with pytest.raises(FileNotFoundError):
            read_matrix_manifest(tmp_path / "s")

    def test_merge_without_manifest_raises(self, tmp_path):
        run_scenario_matrix(EVAL_SPEC, run_dir=tmp_path / "s")
        with pytest.raises(FileNotFoundError):
            merge_matrix_run(tmp_path / "s")

    @pytest.mark.parametrize(
        "manifest, message",
        [
            ('{"engine": "batched", "samples": 4}', "unexpected field(s) ['engine']"),
            ("[1, 2]", "is not a matrix manifest: expected a JSON object, got list"),
            ('{"samples": "four"}', "MatrixJobSpec.samples must be an integer, got 'four'"),
            ("{torn", "is not valid JSON"),
            ('{"engine": "batched", "backend": "numpy"}', "unexpected field(s) ['backend', 'engine']"),
            ('"matrix"', "is not a matrix manifest: expected a JSON object, got str"),
            ("", "is not valid JSON"),
            ('{"samples": true}', "MatrixJobSpec.samples must be an integer, got True"),
            ('{"perturbations": "none"}', "MatrixJobSpec.perturbations must be a sequence"),
            ('{"perturbations": ["none", "bogus"]}', "perturbations entries must be one of"),
            ('{"samples": 0}', "MatrixJobSpec.samples must be > 0"),
            ('{"train_overrides": null}', "MatrixJobSpec.train_overrides must be an object"),
        ],
        ids=["unknown-field", "not-an-object", "mistyped-field", "torn-json",
             "unknown-fields-sorted", "bare-string", "empty-file", "bool-as-integer",
             "string-as-sequence", "unknown-perturbation", "non-positive-samples",
             "null-overrides"],
    )
    def test_merge_names_what_is_wrong_with_a_malformed_manifest(
        self, tmp_path, manifest, message
    ):
        store = tmp_path / "store"
        store.mkdir()
        (store / "matrix.json").write_text(manifest)
        with pytest.raises(MatrixManifestError) as excinfo:
            merge_matrix_run(store)
        assert str(excinfo.value).startswith(str(store / "matrix.json"))
        assert message in str(excinfo.value)


class TestIncompleteMerge:
    @pytest.mark.parametrize("ran, count", [(1, 2), (2, 2), (2, 3)])
    def test_merge_of_a_partial_store_names_the_missing_cells(self, tmp_path, ran, count):
        run_scenario_matrix(EVAL_SPEC, run_dir=tmp_path / "s", shard=ShardSpec(ran, count))
        with pytest.raises(MatrixIncompleteError) as excinfo:
            merge_matrix_run(tmp_path / "s")
        missing_positions = [
            p for p in range(len(plan_matrix_cells(**{
                k: EVAL_KWARGS[k] for k in ("scenarios", "perturbations", "train", "verify")
            })))
            if not ShardSpec(ran, count).owns(p)
        ]
        assert len(excinfo.value.missing) == len(missing_positions)
        assert all(entry.startswith("evaluate/") for entry in excinfo.value.missing)
        assert "against the same run directory" in str(excinfo.value)

    def test_offline_flag_requires_a_store(self):
        with pytest.raises(ValueError, match="offline replay needs a run store"):
            run_scenario_matrix(EVAL_SPEC, offline=True)

    def test_shard_requires_a_store(self):
        with pytest.raises(ValueError, match="sharded runs need a run store"):
            run_scenario_matrix(EVAL_SPEC, shard=ShardSpec(1, 2))


class TestLocalShardWorkers:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_run_sharded_matrix_merges_to_the_reference_csv(self, eval_reference, tmp_path, shards):
        csv_bytes, _ = eval_reference
        report = run_sharded_matrix(shards, tmp_path / "s", **EVAL_KWARGS)
        assert report.to_csv(tmp_path / "merged.csv").read_bytes() == csv_bytes
        assert (report.status, report.cells_skipped) == ("ok", 0)
        # Each shard's accounting lives in its own event log, nowhere else.
        finished = [e for e in read_events(tmp_path / "s") if e.TYPE == "run-finished"]
        assert sorted(event.shard for event in finished) == [
            f"shard-{index}-of-{shards}" for index in range(1, shards + 1)
        ]
        assert sum(event.cells_computed for event in finished) == NUM_EVAL_CELLS
        assert not (tmp_path / "s" / "shards").exists()

    def test_rejects_a_nonpositive_shard_count(self, tmp_path):
        with pytest.raises(ValueError, match="at least one shard"):
            run_sharded_matrix(0, tmp_path / "s", **EVAL_KWARGS)
