"""The matrix executor: one process pool over the cell DAG.

``run_scenario_matrix`` runs ``train(s) -> {evaluate(s, kappa_star, p)...,
verify(s)}`` plus the dependency-free expert evaluate cells on a pool of
``jobs`` workers.  Every task seeds itself and the parent sorts the rows
into the canonical plan order, so the pool width, the shard count and the
completion order never change a byte of the CSV, with or without a run
store of the caller's.  This pack pins that, the temporary store's
cleanup, the parent-only writes (``on_cell`` after the store flush), the
schedule (trainings first, longest budget first) and the shard dealing
rule (every student belongs to exactly one shard).
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scenarios.matrix as matrix_module
from repro.experiments import RunStore
from repro.jobs.messages import MatrixJobSpec
from repro.scenarios import (
    ShardSpec,
    merge_matrix_run,
    plan_matrix_cells,
    run_scenario_matrix,
)
from repro.telemetry.events import CellStarted
from repro.telemetry.reader import read_events

TINY_TRAIN = dict(mixing_epochs=1, mixing_steps=64, distill_epochs=2, dataset_size=64, eval_samples=8)
TINY_VERIFY = dict(target_error=1.0, degree=2, max_partitions=64, reach_steps=2)

#: Two trained scenarios: 2 trainings + (2+2 experts + 2 students) x 2
#: perturbations + 2 verify cells.
GRID = dict(
    scenarios=["vanderpol", "pendulum"],
    perturbations=("none", "attack"),
    samples=4,
    train=True,
    verify=True,
    seed=0,
    train_overrides=TINY_TRAIN,
    verify_overrides=TINY_VERIFY,
)
NUM_ROWS = 14


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The inline (``jobs=1``) store-backed run: its CSV bytes."""

    root = tmp_path_factory.mktemp("executor-ref")
    report = run_scenario_matrix(MatrixJobSpec(jobs=1, **GRID), run_dir=root / "store")
    assert report.num_cells == NUM_ROWS and report.status == "ok"
    return report.to_csv(root / "reference.csv").read_bytes()


def _csv(report, path: Path) -> bytes:
    return report.to_csv(path).read_bytes()


class TestWidthInvariance:
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_store_backed_csv_is_byte_identical_at_every_width(self, jobs, reference, tmp_path):
        report = run_scenario_matrix(MatrixJobSpec(jobs=jobs, **GRID), run_dir=tmp_path / "store")
        assert report.cells_computed == NUM_ROWS + 2  # + the two trainings
        assert _csv(report, tmp_path / "m.csv") == reference

    @pytest.mark.parametrize("count", [2, 3])
    def test_merged_shards_are_byte_identical(self, count, reference, tmp_path):
        shard_dir = tmp_path / "store"
        reports = [
            run_scenario_matrix(
                MatrixJobSpec(jobs=1, **GRID),
                run_dir=shard_dir,
                shard=ShardSpec(index, count),
            )
            for index in range(1, count + 1)
        ]
        # Every cell and every training ran exactly once across the shards.
        assert sum(r.cells_computed for r in reports) == NUM_ROWS + 2
        assert all(r.cells_cached == 0 for r in reports)
        assert _csv(merge_matrix_run(shard_dir), tmp_path / "merged.csv") == reference

    def test_run_sharded_matrix_with_pooled_shards(self, reference, tmp_path):
        merged = matrix_module.run_sharded_matrix(2, tmp_path / "store", jobs=2, **GRID)
        assert _csv(merged, tmp_path / "merged.csv") == reference


class TestTemporaryStore:
    """Without ``store=``/``run_dir=`` the matrix runs against a temporary
    store: the same code path and CSV, and nothing left behind."""

    @pytest.fixture(autouse=True)
    def private_tempdir(self, monkeypatch, tmp_path):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        return scratch

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_store_less_csv_is_byte_identical_to_the_store_backed_one(
        self, jobs, reference, private_tempdir, tmp_path
    ):
        report = run_scenario_matrix(MatrixJobSpec(jobs=jobs, **GRID))
        assert report.cells_computed == NUM_ROWS + 2
        assert _csv(report, tmp_path / "m.csv") == reference
        assert not list(private_tempdir.glob("repro-matrix-*"))

    def test_temporary_store_is_removed_when_on_cell_raises(self, private_tempdir):
        during = []

        def bomb(row):
            during.extend(private_tempdir.glob("repro-matrix-*"))
            during.extend(private_tempdir.glob("repro-matrix-*/events"))
            raise RuntimeError("on_cell exploded")

        with pytest.raises(RuntimeError, match="on_cell exploded"):
            run_scenario_matrix(MatrixJobSpec(jobs=2, **{**GRID, "train": False}), on_cell=bomb)
        assert len(during) == 1, "one temporary store, and no event log in it"
        assert not list(private_tempdir.glob("repro-matrix-*"))


class TestParentWrites:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_on_cell_fires_once_per_cell_after_the_store_flush(self, jobs, tmp_path):
        store = RunStore(tmp_path / "store")
        seen = []

        def on_cell(row):
            seen.append(row)
            stored = len(store.entries(stage="evaluate")) + len(store.entries(stage="verify"))
            assert stored == len(seen), "a row reached on_cell before its store entry"

        report = run_scenario_matrix(MatrixJobSpec(jobs=jobs, **GRID), store=store, on_cell=on_cell)
        assert len(seen) == NUM_ROWS
        assert sorted(map(repr, seen)) == sorted(map(repr, report.rows))

    def test_trainings_start_first_longest_budget_first(self, tmp_path):
        # At this scale vanderpol's budget (1 x 10 mixing steps) outranks
        # pendulum's (1 x 8), although pendulum is listed first.
        run_scenario_matrix(
            MatrixJobSpec(
                scenarios=["pendulum", "vanderpol"],
                perturbations=("none",),
                samples=4,
                budget_scale=0.01,
                verify_overrides=TINY_VERIFY,
                jobs=2,
            ),
            run_dir=tmp_path / "store",
        )
        started = [
            (event.cell, event.scenario, event.controller)
            for event in read_events(tmp_path / "store")
            if isinstance(event, CellStarted)
        ]
        assert [item[:2] for item in started[:2]] == [("train", "vanderpol"), ("train", "pendulum")]
        # A student's cells start only after its training landed.
        for scenario in ("pendulum", "vanderpol"):
            trained_at = started.index(("train", scenario, "kappa_star"))
            assert all(
                index > trained_at
                for index, (cell, name, controller) in enumerate(started)
                if name == scenario and controller == "kappa_star" and cell != "train"
            )

    def test_a_task_error_propagates_from_the_pool(self, monkeypatch, tmp_path):
        def broken(*args, **kwargs):
            raise ValueError("evaluation exploded")

        monkeypatch.setattr(matrix_module, "evaluate_robustness", broken)
        with pytest.raises(ValueError, match="evaluation exploded"):
            run_scenario_matrix(
                MatrixJobSpec(jobs=2, **{**GRID, "train": False}),
                run_dir=tmp_path / "store",
            )

    def test_zero_jobs_means_one_worker_per_cpu(self, monkeypatch, reference, tmp_path):
        monkeypatch.setattr(matrix_module, "default_worker_count", lambda: 2)
        messages = []
        report = run_scenario_matrix(
            MatrixJobSpec(jobs=0, **GRID),
            run_dir=tmp_path / "store",
            progress=messages.append,
        )
        assert any("across 2 process(es)" in message for message in messages)
        assert _csv(report, tmp_path / "m.csv") == reference


class TestOwnership:
    """Replaces the old position round-robin property: ownership is dealt
    so that no two shards ever need the same student."""

    SCENARIOS = ("vanderpol", "pendulum", "cartpole", "acc", "3d")

    @given(
        names=st.lists(st.sampled_from(SCENARIOS), min_size=1, max_size=5, unique=True),
        perturbations=st.lists(
            st.sampled_from(("none", "attack", "noise")), min_size=1, max_size=3, unique=True
        ),
        train=st.booleans(),
        verify=st.booleans(),
        count=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_shards_are_disjoint_exhaustive_and_share_no_student(
        self, names, perturbations, train, verify, count
    ):
        cells = plan_matrix_cells(names, tuple(perturbations), train=train, verify=verify)
        slices = [set(ShardSpec(index, count).owned(cells)) for index in range(1, count + 1)]
        assert sum(len(s) for s in slices) == len(cells), "two shards own one cell"
        assert set().union(*slices) == set(range(len(cells))), "some cell has no owner"

        student_owners = {}
        for shard, owned in enumerate(slices):
            for position in owned:
                if cells[position].controller == "kappa_star":
                    student_owners.setdefault(cells[position].scenario, set()).add(shard)
        assert all(len(owners) == 1 for owners in student_owners.values())

        # Units (one per student, one per expert cell) balance within one.
        units = [
            len({cells[p].scenario for p in owned if cells[p].controller == "kappa_star"})
            + sum(1 for p in owned if cells[p].controller != "kappa_star")
            for owned in slices
        ]
        assert max(units) - min(units) <= 1

    def test_without_students_units_are_plan_positions(self):
        cells = plan_matrix_cells(["vanderpol", "pendulum"], ("none", "noise"), train=False)
        for index in (1, 2, 3):
            spec = ShardSpec(index, 3)
            assert spec.owned(cells) == [p for p in range(len(cells)) if spec.owns(p)]
