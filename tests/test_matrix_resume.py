"""Resumability of store-backed scenario-matrix runs.

Covers the two acceptance properties of the run store: a second identical
run against the same store performs *zero* train/evaluate/verify work (all
cells replayed), and a run interrupted after K cells and rerun against the
same store executes only the missing cells while producing a CSV
byte-identical to an uninterrupted run.
"""

from dataclasses import replace

import pytest

import repro.scenarios.matrix as matrix_module
import repro.verification.sweep as sweep_module
from repro.core.cocktail import CocktailPipeline
from repro.jobs.messages import MatrixJobSpec
from repro.scenarios import run_scenario_matrix

TINY_TRAIN = dict(
    mixing_epochs=1,
    mixing_steps=64,
    distill_epochs=2,
    dataset_size=64,
    eval_samples=8,
)
TINY_VERIFY = dict(target_error=1.0, degree=2, max_partitions=64, reach_steps=2)

#: vanderpol: 2 experts + kappa_star, 2 perturbations -> 6 evaluate cells,
#: plus one train stage and one verify job.
MATRIX_SPEC = MatrixJobSpec(
    scenarios=["vanderpol"],
    perturbations=("none", "noise"),
    samples=4,
    train=True,
    verify=True,
    jobs=1,
    seed=0,
    train_overrides=TINY_TRAIN,
    verify_overrides=TINY_VERIFY,
)
NUM_EVAL_CELLS = 6
NUM_CELLS = NUM_EVAL_CELLS + 2  # + train + verify


class WorkCounter:
    """Counts actual executions of the three expensive stages."""

    def __init__(self, monkeypatch):
        self.trained = 0
        self.evaluated = 0
        self.verified = 0

        pipeline_run = CocktailPipeline.run

        def counting_pipeline_run(pipeline, *args, **kwargs):
            self.trained += 1
            return pipeline_run(pipeline, *args, **kwargs)

        evaluate = matrix_module.evaluate_robustness

        def counting_evaluate(*args, **kwargs):
            self.evaluated += 1
            return evaluate(*args, **kwargs)

        run_job = sweep_module.run_sweep_job

        def counting_run_job(*args, **kwargs):
            self.verified += 1
            return run_job(*args, **kwargs)

        monkeypatch.setattr(CocktailPipeline, "run", counting_pipeline_run)
        monkeypatch.setattr(matrix_module, "evaluate_robustness", counting_evaluate)
        monkeypatch.setattr(sweep_module, "run_sweep_job", counting_run_job)

    @property
    def total(self):
        return self.trained + self.evaluated + self.verified


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted store-backed run: (store root, csv bytes)."""

    root = tmp_path_factory.mktemp("matrix-store")
    report = run_scenario_matrix(MATRIX_SPEC, run_dir=root / "store")
    assert report.cells_computed == NUM_CELLS
    assert report.cells_cached == 0
    csv_bytes = report.to_csv(root / "reference.csv").read_bytes()
    return root, csv_bytes


class TestWarmStoreServesEverything:
    def test_second_identical_run_does_zero_work(self, reference, monkeypatch, tmp_path):
        root, csv_bytes = reference
        counter = WorkCounter(monkeypatch)
        report = run_scenario_matrix(MATRIX_SPEC, run_dir=root / "store")
        assert counter.total == 0, "a warmed store must not train/evaluate/verify anything"
        assert report.cells_computed == 0
        assert report.cells_cached == NUM_CELLS
        assert report.to_csv(tmp_path / "warm.csv").read_bytes() == csv_bytes

    def test_force_recomputes_every_cell(self, reference, monkeypatch, tmp_path):
        root, csv_bytes = reference
        counter = WorkCounter(monkeypatch)
        report = run_scenario_matrix(MATRIX_SPEC, run_dir=root / "store", force=True)
        assert counter.trained == 1
        assert counter.evaluated == NUM_EVAL_CELLS
        assert counter.verified == 1
        assert report.cells_computed == NUM_CELLS
        # Deterministic pipeline: forced recomputation reproduces the CSV.
        assert report.to_csv(tmp_path / "forced.csv").read_bytes() == csv_bytes

    def test_changed_budget_misses_the_cache(self, reference, monkeypatch):
        root, _ = reference
        counter = WorkCounter(monkeypatch)
        run_scenario_matrix(replace(MATRIX_SPEC, samples=5), run_dir=root / "store")
        assert counter.evaluated == NUM_EVAL_CELLS  # every evaluate cell recomputed
        assert counter.trained == 0  # training identity unchanged -> still cached


class TestResumeAfterInterruption:
    INTERRUPT_AFTER = 3

    def test_resume_runs_only_missing_cells_and_reproduces_the_csv(
        self, reference, monkeypatch, tmp_path
    ):
        _, csv_bytes = reference
        store_dir = tmp_path / "interrupted-store"

        class SimulatedCrash(RuntimeError):
            pass

        seen = []

        def bomb(row):
            seen.append(row)
            if len(seen) == self.INTERRUPT_AFTER:
                raise SimulatedCrash("killed after K cells")

        with pytest.raises(SimulatedCrash):
            run_scenario_matrix(MATRIX_SPEC, run_dir=store_dir, on_cell=bomb)
        assert len(seen) == self.INTERRUPT_AFTER

        counter = WorkCounter(monkeypatch)
        report = run_scenario_matrix(MATRIX_SPEC, run_dir=store_dir)
        # The train stage and the K flushed cells are served from the store;
        # only the missing evaluate cells and verify job execute.
        flushed_evaluate = sum(1 for row in seen if row["cell"] == "evaluate")
        assert counter.trained == 0
        assert counter.evaluated == NUM_EVAL_CELLS - flushed_evaluate
        assert counter.verified == 1 - (self.INTERRUPT_AFTER - flushed_evaluate)
        assert report.cells_cached == 1 + self.INTERRUPT_AFTER
        assert report.cells_computed == NUM_CELLS - 1 - self.INTERRUPT_AFTER

        resumed = report.to_csv(tmp_path / "resumed.csv").read_bytes()
        assert resumed == csv_bytes, "resumed CSV must be byte-identical to an uninterrupted run"


class TestStoreArgumentPlumbing:
    def test_run_dir_and_store_are_equivalent(self, tmp_path):
        from repro.experiments import RunStore

        store = RunStore(tmp_path / "store")
        spec = MatrixJobSpec(
            scenarios=("vanderpol",), perturbations=("none",), samples=4, train=False, verify=False,
            jobs=1,
        )
        report = run_scenario_matrix(spec, store=store)
        assert report.cells_computed == 2  # two experts, one perturbation
        again = run_scenario_matrix(spec, run_dir=tmp_path / "store")
        assert again.cells_cached == 2
        assert again.rows == report.rows

    def test_no_store_runs_against_a_temporary_one(self, tmp_path):
        spec = MatrixJobSpec(
            scenarios=("vanderpol",), perturbations=("none",), samples=4, train=False, verify=False,
            jobs=1,
        )
        report = run_scenario_matrix(spec)
        assert report.cells_computed == 2 and report.cells_cached == 0
        assert report.rows == run_scenario_matrix(spec, run_dir=tmp_path / "store").rows

    def test_store_rows_are_timing_free(self, tmp_path):
        report = run_scenario_matrix(
            MatrixJobSpec(
                jobs=1,
                scenarios=["vanderpol"],
                perturbations=("none",),
                samples=4,
                train=False,
                verify=False,
            ),
            run_dir=tmp_path / "store",
        )
        assert all("seconds" not in row for row in report.rows)
