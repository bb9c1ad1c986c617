"""Fault injection for matrix runs: crashes and SIGKILLed pool workers.

Worker death is never fatal to the *matrix*: every completed cell is
already published under its digest, so rerunning against the same store
executes exactly the missing cells.  This pack kills runs two ways -- an
exception raised from the ``on_cell`` hook, and a ``SIGKILL`` delivered
mid-cell to a pool worker -- and asserts that the failure surfaces as a
typed error and that the resumed (and, for shards, merged) CSV is
byte-identical to an uninterrupted run (pinned here for the 4-shard
pendulum x cartpole grid).
"""

import os
import signal

import pytest

import repro.scenarios.matrix as matrix_module
from repro.core.cocktail import CocktailPipeline
from repro.experiments import RunStore
from repro.jobs.messages import MatrixJobSpec
from repro.scenarios import (
    ShardSpec,
    merge_matrix_run,
    plan_matrix_cells,
    run_scenario_matrix,
)
from repro.utils.parallel import WorkerLost

TINY_TRAIN = dict(mixing_epochs=1, mixing_steps=64, distill_epochs=2, dataset_size=64, eval_samples=8)
TINY_VERIFY = dict(target_error=1.0, degree=2, max_partitions=64, reach_steps=2)

#: The acceptance-criterion grid: pendulum x cartpole, trained + verified.
#: 2 train stages + 12 evaluate cells + 2 verify jobs = 16 store cells.
ACCEPTANCE_KWARGS = dict(
    scenarios=["pendulum", "cartpole"],
    perturbations=("none", "noise"),
    samples=4,
    train=True,
    verify=True,
    jobs=1,
    seed=0,
    train_overrides=TINY_TRAIN,
    verify_overrides=TINY_VERIFY,
)
ACCEPTANCE_NUM_CELLS = 16

#: Small evaluate-only grid for the on_cell crash and SIGKILL scenarios.
KILL_KWARGS = dict(
    scenarios=["pendulum"],
    perturbations=("none", "noise"),
    samples=4,
    train=False,
    verify=False,
    seed=0,
    jobs=1,
)
KILL_NUM_CELLS = 4


class WorkCounter:
    """Counts actual executions of the three expensive stages."""

    def __init__(self, monkeypatch):
        self.trained = 0
        self.evaluated = 0
        self.verified = 0

        import repro.verification.sweep as sweep_module

        pipeline_run = CocktailPipeline.run
        evaluate = matrix_module.evaluate_robustness
        run_job = sweep_module.run_sweep_job

        def counting_pipeline_run(pipeline, *args, **kwargs):
            self.trained += 1
            return pipeline_run(pipeline, *args, **kwargs)

        def counting_evaluate(*args, **kwargs):
            self.evaluated += 1
            return evaluate(*args, **kwargs)

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
def acceptance_reference(tmp_path_factory):
    """The uninterrupted single-process run of the acceptance grid."""

    root = tmp_path_factory.mktemp("faults-ref")
    report = run_scenario_matrix(MatrixJobSpec(**ACCEPTANCE_KWARGS), run_dir=root / "store")
    assert report.cells_computed == ACCEPTANCE_NUM_CELLS
    return report.to_csv(root / "reference.csv").read_bytes()


class SimulatedCrash(RuntimeError):
    pass


class TestInterruptedShardsResumeByteIdentically:
    """PR acceptance: 4 shards, one crashed mid-run, resumed, merged."""

    def test_crash_resume_merge_matches_single_process(
        self, acceptance_reference, monkeypatch, tmp_path
    ):
        shard_dir = tmp_path / "store"
        rows_seen = []

        def bomb(row):
            rows_seen.append(row)
            if len(rows_seen) == 2:
                raise SimulatedCrash("worker died after two cells")

        counter = WorkCounter(monkeypatch)
        with pytest.raises(SimulatedCrash):
            run_scenario_matrix(
                MatrixJobSpec(**ACCEPTANCE_KWARGS),
                run_dir=shard_dir,
                shard=ShardSpec(1, 4),
                on_cell=bomb,
            )
        interrupted_work = counter.total
        assert 0 < interrupted_work < ACCEPTANCE_NUM_CELLS

        # Every shard reruns (the crashed one resumes; resume is the
        # store-backed default).  Completed cells replay, missing ones run.
        reports = [
            run_scenario_matrix(
                MatrixJobSpec(**ACCEPTANCE_KWARGS),
                run_dir=shard_dir,
                shard=ShardSpec(index, 4),
            )
            for index in (1, 2, 3, 4)
        ]
        assert all(report.status == "ok" for report in reports)
        # Globally each cell executed exactly once, crash included.
        assert counter.total == ACCEPTANCE_NUM_CELLS
        assert interrupted_work + sum(r.cells_computed for r in reports) == ACCEPTANCE_NUM_CELLS

        merged = merge_matrix_run(shard_dir)
        merged_bytes = merged.to_csv(tmp_path / "merged.csv").read_bytes()
        assert merged_bytes == acceptance_reference, (
            "a crashed-and-resumed 4-shard run must merge byte-identically "
            "to the uninterrupted single-process CSV"
        )

    def test_on_cell_crash_loses_no_flushed_cell(self, monkeypatch, tmp_path):
        shard_dir = tmp_path / "store"

        def bomb(row):
            raise SimulatedCrash("died on the first cell")

        with pytest.raises(SimulatedCrash):
            run_scenario_matrix(
                MatrixJobSpec(**KILL_KWARGS),
                run_dir=shard_dir,
                shard=ShardSpec(1, 1),
                on_cell=bomb,
            )
        # The crash hit *after* the first cell was flushed.
        store = RunStore(shard_dir)
        assert len(store.entries(stage="evaluate")) == 1

        counter = WorkCounter(monkeypatch)
        report = run_scenario_matrix(MatrixJobSpec(**KILL_KWARGS), run_dir=shard_dir, shard=ShardSpec(1, 1))
        assert counter.evaluated == KILL_NUM_CELLS - 1
        assert report.cells_cached == 1


_REAL_TASKS = {"train": matrix_module._train_task, "evaluate": matrix_module._evaluate_task}
_PARENT = os.getpid()


class _DieIn:
    """A stand-in task that SIGKILLs its pool worker on one cell (picklable)."""

    def __init__(self, cell, scenario, controller, perturbation=None):
        self.cell = cell
        self.target = (scenario, controller, perturbation)

    def __call__(self, name, *args):
        if self.cell == "train":
            hit = name == self.target[0]
        else:
            hit = (name, args[0], args[1]) == self.target
        if hit:
            assert os.getpid() != _PARENT, "the killer must run in a pool worker"
            os.kill(os.getpid(), signal.SIGKILL)
        return _REAL_TASKS[self.cell](name, *args)


class _Deadline:
    """Fail (instead of hanging) when the body outlives ``seconds``."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        def expire(signum, frame):
            raise TimeoutError(f"the matrix hung for {self.seconds}s after a worker died")

        self.previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(self.seconds)

    def __exit__(self, *exc_info):
        signal.alarm(0)
        signal.signal(signal.SIGALRM, self.previous)


class TestSigkilledPoolWorker:
    """SIGKILL a pool worker mid-cell: a typed error, no hang, nothing lost."""

    @pytest.mark.parametrize(
        "kwargs, target, label",
        [
            (KILL_KWARGS, ("evaluate", "pendulum", "kappa2", "noise"), "evaluate pendulum:kappa2:noise"),
            (ACCEPTANCE_KWARGS, ("train", "cartpole", "kappa_star"), "train cartpole:kappa_star"),
        ],
        ids=["evaluate", "train"],
    )
    def test_lost_cell_is_named_and_the_resume_is_byte_identical(
        self, kwargs, target, label, monkeypatch, tmp_path
    ):
        kwargs = {**kwargs, "jobs": 2}
        reference = run_scenario_matrix(MatrixJobSpec(**kwargs), run_dir=tmp_path / "ref")
        reference_bytes = reference.to_csv(tmp_path / "reference.csv").read_bytes()

        store_dir = tmp_path / "store"
        seen = []
        with monkeypatch.context() as patch, _Deadline(120):
            patch.setattr(matrix_module, f"_{target[0]}_task", _DieIn(*target))
            with pytest.raises(WorkerLost) as excinfo:
                run_scenario_matrix(MatrixJobSpec(**kwargs), run_dir=store_dir, on_cell=seen.append)
        assert label in excinfo.value.tasks
        assert label in str(excinfo.value) and "resume" in str(excinfo.value)

        # Every cell that completed before the loss is in the store.
        store = RunStore(store_dir)
        stored = len(store.entries(stage="evaluate")) + len(store.entries(stage="verify"))
        assert stored == len(seen)

        resumed = run_scenario_matrix(MatrixJobSpec(**kwargs), run_dir=store_dir)
        assert resumed.status == "ok"
        assert resumed.cells_cached >= len(seen)
        assert resumed.to_csv(tmp_path / "resumed.csv").read_bytes() == reference_bytes

    def test_pool_broken_at_submit_names_the_cell(self, monkeypatch, tmp_path):
        """A worker can die while the parent records another's result: the
        next ``submit`` then meets a broken pool before any future fails."""

        from concurrent import futures
        from concurrent.futures.process import BrokenProcessPool

        kwargs = {**KILL_KWARGS, "jobs": 2}
        reference = run_scenario_matrix(MatrixJobSpec(**kwargs), run_dir=tmp_path / "ref")
        refused = []

        class BreaksOnFourthSubmit(futures.ProcessPoolExecutor):
            submitted = 0

            def submit(self, fn, *args, **kwargs):
                BreaksOnFourthSubmit.submitted += 1
                if BreaksOnFourthSubmit.submitted == 4:
                    refused.append(f"evaluate {args[0]}:{args[1]}:{args[2]}")
                    raise BrokenProcessPool("a worker died")
                return super().submit(fn, *args, **kwargs)

        store_dir = tmp_path / "store"
        seen = []
        with monkeypatch.context() as patch, _Deadline(120):
            patch.setattr(futures, "ProcessPoolExecutor", BreaksOnFourthSubmit)
            with pytest.raises(WorkerLost) as excinfo:
                run_scenario_matrix(MatrixJobSpec(**kwargs), run_dir=store_dir, on_cell=seen.append)
        assert excinfo.value.tasks == refused
        # The three tasks already in flight finished and were recorded.
        assert len(seen) == 3
        assert len(RunStore(store_dir).entries(stage="evaluate")) == 3

        resumed = run_scenario_matrix(MatrixJobSpec(**kwargs), run_dir=store_dir)
        assert resumed.cells_cached == 3 and resumed.cells_computed == 1
        assert resumed.to_csv(tmp_path / "resumed.csv").read_bytes() == reference.to_csv(
            tmp_path / "reference.csv"
        ).read_bytes()


class TestShardPlanMatchesExecutor:
    def test_acceptance_grid_cell_count(self):
        cells = plan_matrix_cells(
            ACCEPTANCE_KWARGS["scenarios"], perturbations=ACCEPTANCE_KWARGS["perturbations"]
        )
        # 12 evaluate + 2 verify cells; the 2 train stages are implicit
        # (students are dependencies, not rows).
        assert len(cells) == 14
        assert sum(1 for cell in cells if cell.kind == "verify") == 2
