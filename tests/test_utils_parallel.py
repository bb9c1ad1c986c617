"""Regression tests: pool sizes track the usable CPU count, results do not.

The original sin this guards against: a 1-CPU container where a process
pool defaulted to one worker per *job* would fork dozens of workers that
fight over a single core.  Every fan-out component derives its default pool
size from :mod:`repro.utils.parallel`, and these tests pin that the
derivation (a) follows the CPU count and (b) caps the verification sweep's
pool on a narrow machine.  The CPU count must size pools and nothing else:
the same ``repro train`` trains the same controller on any machine.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

import repro.verification.sweep as sweep_module
from repro.utils.parallel import TaskExecutor, WorkerLost, available_cpu_count, default_worker_count
from repro.verification.sweep import SweepJob, VerificationSweep


def _fake_cpu_count(monkeypatch, count, affinity=None):
    """Pretend the machine has ``count`` CPUs, of which ``affinity`` (default:
    all of them) are this process's."""

    if affinity is None:
        affinity = set(range(count or 0))
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity), raising=False)


def _dummy_jobs(count):
    architecture = {"input_dim": 2, "output_dim": 1, "hidden_sizes": [4]}
    return [
        SweepJob(name=f"job{i}", system="vanderpol", architecture=architecture, weights={})
        for i in range(count)
    ]


class TestCpuDerivation:
    def test_available_cpu_count_floors_at_one(self, monkeypatch):
        _fake_cpu_count(monkeypatch, None)
        assert available_cpu_count() == 1
        _fake_cpu_count(monkeypatch, 12)
        assert available_cpu_count() == 12

    def test_worker_count_never_exceeds_cpus(self, monkeypatch):
        _fake_cpu_count(monkeypatch, 1)
        assert default_worker_count() == 1
        assert default_worker_count(jobs=64) == 1
        _fake_cpu_count(monkeypatch, 4)
        assert default_worker_count(jobs=64) == 4
        assert default_worker_count(jobs=2) == 2
        assert default_worker_count(jobs=0) == 1

    def test_affinity_mask_narrows_the_count(self, monkeypatch):
        """Under ``taskset``/a cpuset the pools size to the allowed CPUs."""

        _fake_cpu_count(monkeypatch, 8, affinity={0})
        assert available_cpu_count() == 1
        assert default_worker_count() == 1
        assert default_worker_count(jobs=64) == 1

    def test_cpu_count_without_affinity_support(self, monkeypatch):
        _fake_cpu_count(monkeypatch, 6)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert available_cpu_count() == 6

    @pytest.mark.parametrize(
        "count, affinity, jobs, expected",
        [
            (8, {0}, None, 1),
            (8, {0, 1}, 64, 2),
            (8, {2, 5, 7}, 64, 3),
            (8, {2, 5, 7}, 2, 2),
            (8, set(range(8)), None, 8),
            (None, {0, 1, 2, 3}, 64, 4),
        ],
        ids=["one-of-8", "two-of-8", "three-scattered", "jobs-below-mask", "all-of-8", "no-cpu-count"],
    )
    def test_worker_count_follows_the_affinity_mask(self, monkeypatch, count, affinity, jobs, expected):
        _fake_cpu_count(monkeypatch, count, affinity=affinity)
        assert available_cpu_count() == len(affinity)
        assert default_worker_count(jobs=jobs) == expected

    def test_empty_affinity_mask_floors_at_one(self, monkeypatch):
        _fake_cpu_count(monkeypatch, 8, affinity=set())
        assert available_cpu_count() == 1
        assert default_worker_count(jobs=64) == 1


class TestSweepPoolRegression:
    def test_one_cpu_container_gets_an_inline_sweep(self, monkeypatch):
        """Many jobs on one CPU must not fork a many-worker pool."""

        _fake_cpu_count(monkeypatch, 1)
        sweep = VerificationSweep(_dummy_jobs(16), processes=None)
        assert sweep.processes == 1

    def test_wide_machine_caps_at_job_count(self, monkeypatch):
        _fake_cpu_count(monkeypatch, 8)
        assert VerificationSweep(_dummy_jobs(3), processes=None).processes == 3
        assert VerificationSweep(_dummy_jobs(16), processes=None).processes == 8

    def test_explicit_processes_still_win(self, monkeypatch):
        _fake_cpu_count(monkeypatch, 1)
        assert VerificationSweep(_dummy_jobs(4), processes=2).processes == 2

    def test_pool_workers_run_single_threaded_blas(self, monkeypatch):
        """Each sweep worker limits its BLAS to one thread, like the matrix
        and kappa_D pools: the pool is the parallelism."""

        from concurrent import futures

        from repro.utils.parallel import single_threaded_blas

        created = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context=None, initializer=None):
                created.append((max_workers, initializer))

            def submit(self, function, job):
                future = futures.Future()
                future.set_result(job.name)
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
        report = VerificationSweep(_dummy_jobs(3), processes=2).run()
        assert created == [(2, single_threaded_blas)]
        assert report.results == ["job0", "job1", "job2"]

    @staticmethod
    def _verify_jobs(count):
        from repro.nn.network import MLP

        return [
            SweepJob.from_network(
                f"job{index}", "vanderpol", MLP(2, 1, hidden_sizes=(4,), seed=index),
                target_error=1.0, degree=2, max_partitions=64, reach_steps=2,
            )
            for index in range(count)
        ]

    def test_report_gives_the_width_it_ran_at(self, tmp_path):
        """``SweepReport.processes`` is the width used, not the one asked for:
        1 for a one-job sweep, for a sweep with one uncached job and for an
        all-cached one; ``min(processes, uncached jobs)`` for a pool."""

        from repro.experiments import RunStore

        jobs = self._verify_jobs(3)
        assert VerificationSweep(jobs[:1], processes=4).run().processes == 1
        store = RunStore(tmp_path / "store")
        assert VerificationSweep(jobs[:2], processes=4, store=store).run().processes == 2
        one_uncached = VerificationSweep(jobs, processes=4, store=store).run()
        assert [result.cached for result in one_uncached.results] == [True, True, False]
        assert one_uncached.processes == 1
        all_cached = VerificationSweep(jobs, processes=4, store=store).run()
        assert all(result.cached for result in all_cached.results)
        assert all_cached.processes == 1
        assert "| 1 process(es) |" in all_cached.table()

    def test_pinned_to_one_cpu_of_many_gets_an_inline_sweep(self, monkeypatch):
        """``taskset -c 0`` on a wide machine must not fork a wide pool."""

        _fake_cpu_count(monkeypatch, 8, affinity={0})
        assert VerificationSweep(_dummy_jobs(16), processes=None).processes == 1


class TestTrainerWidthRegression:
    def test_train_gives_the_same_student_on_any_cpu_count(self, monkeypatch, tmp_path):
        """The widths a train falls back to are pinned, not CPU-derived."""

        from repro.experiments.digest import weights_digest
        from repro.jobs.messages import TrainJobSpec
        from repro.jobs.runner import execute_train
        from repro.utils.persistence import load_student_controller

        digests = {}
        for cpus in (1, 2, 64):
            _fake_cpu_count(monkeypatch, cpus)
            output = tmp_path / f"cpus-{cpus}"
            spec = TrainJobSpec(
                system="vanderpol",
                output=str(output),
                mixing_epochs=1,
                mixing_steps=64,
                distill_epochs=2,
                dataset_size=64,
                eval_samples=4,
                seed=3,
            )
            execute_train(spec)
            network = load_student_controller(output, name="kappa_star").network
            digests[cpus] = weights_digest(network.state_dict(), extra=network.architecture())
        assert len(set(digests.values())) == 1, digests

    def test_num_envs_is_a_batch_width_not_a_process_count(self):
        """The vectorized trainer must not spawn OS threads/processes: the
        lockstep width lives entirely inside NumPy calls."""

        import threading

        from repro.core.mixing import MixingTrainer
        from repro.core.config import MixingConfig
        from repro.experts import make_default_experts
        from repro.systems import make_system

        system = make_system("vanderpol")
        experts = make_default_experts(system)
        before = threading.active_count()
        trainer = MixingTrainer(
            system,
            experts,
            config=MixingConfig(epochs=1, steps_per_epoch=64, num_envs=8, seed=0),
            rng=0,
        )
        trainer.train()
        assert threading.active_count() == before


def _openblas_thread_counts():
    """``{library: threads}`` of every OpenBLAS loaded in this process."""

    import ctypes

    counts = {}
    with open("/proc/self/maps") as handle:
        paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    for path in paths:
        library = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, name, None)
            if getter is not None:
                counts[path] = getter()
                break
    return counts


class TestPoolWorkersKeepOneBlasThread:
    def test_initializer_pins_the_worker_and_leaves_the_parent(self):
        try:
            parent = _openblas_thread_counts()
        except OSError:
            pytest.skip("no /proc/self/maps on this platform")
        if not parent:
            pytest.skip("NumPy is not linked against OpenBLAS here")
        outcomes = {}
        with TaskExecutor(1, outcomes.__setitem__) as executor:
            executor.submit("counts", _openblas_thread_counts)
            executor.drain()
        worker = outcomes["counts"]
        assert worker and set(worker.values()) == {1}
        assert _openblas_thread_counts() == parent

    def test_initializer_sets_each_loaded_openblas_and_skips_the_unloadable(self, monkeypatch):
        import ctypes

        from repro.utils.parallel import single_threaded_blas

        try:
            loaded = set(_openblas_thread_counts())
        except OSError:
            pytest.skip("no /proc/self/maps on this platform")
        if not loaded:
            pytest.skip("NumPy is not linked against OpenBLAS here")
        calls = []

        class FakeLibrary:
            def __init__(self, path):
                self.path = path

            def openblas_set_num_threads(self, count):
                calls.append((self.path, count))

        monkeypatch.setattr(ctypes, "CDLL", FakeLibrary)
        single_threaded_blas()
        assert sorted(calls) == sorted((path, 1) for path in loaded)

        def unloadable(path):
            raise OSError("cannot load")

        monkeypatch.setattr(ctypes, "CDLL", unloadable)
        assert single_threaded_blas() is None

    def test_initializer_without_proc_maps_changes_nothing(self, monkeypatch):
        import builtins

        from repro.utils.parallel import single_threaded_blas

        def no_maps(*args, **kwargs):
            raise OSError("no /proc here")

        monkeypatch.setattr(builtins, "open", no_maps)
        assert single_threaded_blas() is None


def _exit_with(code):
    os._exit(code)


def test_spawn_workers_returns_each_exit_code():
    from repro.utils.parallel import spawn_workers

    assert spawn_workers(_exit_with, [(0,), (3,)]) == [0, 3]


_PARENT = os.getpid()


def _square(value):
    return value * value


def _pid():
    return os.getpid()


def _die():
    os.kill(os.getpid(), signal.SIGKILL)


def _raise():
    raise ArithmeticError("task exploded")


class _Deadline:
    """Fail (instead of hanging) when the body outlives ``seconds``."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        def expire(signum, frame):
            raise TimeoutError(f"the pool hung for {self.seconds}s after a worker died")

        self.previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(self.seconds)

    def __exit__(self, *exc_info):
        signal.alarm(0)
        signal.signal(signal.SIGALRM, self.previous)


class TestTaskExecutor:
    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_every_task_is_delivered_once_with_its_result(self, workers):
        delivered = []
        with TaskExecutor(workers, lambda label, result: delivered.append((label, result))) as executor:
            for value in range(5):
                executor.submit(f"t{value}", _square, value)
            executor.drain()
        assert sorted(delivered) == [(f"t{value}", value * value) for value in range(5)]
        if workers == 0:
            assert [label for label, _ in delivered] == [f"t{value}" for value in range(5)]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_one_task_beyond_the_width_stays_in_flight(self, workers):
        with TaskExecutor(workers, lambda label, result: None) as executor:
            for value in range(workers):
                executor.submit(f"t{value}", _square, value)
                assert not executor.full
            executor.submit("last", _square, 0)
            assert executor.full
            executor.drain()
            assert not executor.full

    def test_callers_submit_between_waits(self):
        """A delivered result may enqueue follow-up work, as the matrix's
        trains do; the caller submits it before the next wait."""

        follow_ups, delivered = [], []

        def deliver(label, result):
            delivered.append((label, result))
            if label == "first":
                follow_ups.append(result)

        with TaskExecutor(2, deliver) as executor:
            executor.submit("first", _square, 3)
            executor.wait()
            for value in follow_ups:
                executor.submit("second", _square, value)
            executor.drain()
        assert delivered == [("first", 9), ("second", 81)]

    def test_a_daemonic_parent_runs_inline(self, monkeypatch):
        import multiprocessing

        monkeypatch.setitem(multiprocessing.current_process()._config, "daemon", True)
        pids = {}
        with TaskExecutor(2, pids.__setitem__) as executor:
            assert executor.workers == 0
            executor.submit("pid", _pid)
            executor.drain()
        assert pids == {"pid": _PARENT}

    @pytest.mark.parametrize("workers", [0, 1])
    def test_a_task_error_propagates(self, workers):
        with TaskExecutor(workers, lambda label, result: None) as executor:
            executor.submit("boom", _raise)
            with pytest.raises(ArithmeticError, match="exploded"):
                executor.drain()

    def test_a_killed_worker_raises_worker_lost_after_delivering_the_finished(self):
        delivered = {}
        with _Deadline(60), TaskExecutor(1, delivered.__setitem__) as executor:
            executor.submit("quick", _square, 7)
            executor.wait()
            executor.submit("doomed", _die)
            with pytest.raises(WorkerLost) as excinfo:
                executor.drain()
        assert delivered == {"quick": 49}
        assert excinfo.value.tasks == ["doomed"]
        assert "doomed" in str(excinfo.value) and "resume" in str(excinfo.value)


_REAL_SWEEP_JOB = sweep_module.run_sweep_job


class _DieOn:
    """A stand-in sweep task that SIGKILLs its pool worker on one job (picklable)."""

    def __init__(self, name):
        self.name = name

    def __call__(self, job):
        if job.name == self.name:
            assert os.getpid() != _PARENT, "the killer must run in a pool worker"
            time.sleep(0.5)  # let the other jobs finish first
            os.kill(os.getpid(), signal.SIGKILL)
        return _REAL_SWEEP_JOB(job)


class TestSweepWorkerLoss:
    def test_killed_sweep_worker_raises_worker_lost_and_keeps_the_finished(
        self, monkeypatch, tmp_path
    ):
        """A dead sweep worker is a typed error within the deadline, not a
        hang, and every job that finished first is in the store."""

        from repro.experiments import RunStore
        from repro.nn.network import MLP

        jobs = [
            SweepJob.from_network(
                f"job{index}", "vanderpol", MLP(2, 1, hidden_sizes=(4,), seed=index),
                target_error=1.0, degree=2, max_partitions=64, reach_steps=2,
            )
            for index in range(3)
        ]
        store = RunStore(tmp_path / "store")
        monkeypatch.setattr(sweep_module, "run_sweep_job", _DieOn("job1"))
        with _Deadline(60):
            with pytest.raises(WorkerLost) as excinfo:
                VerificationSweep(jobs, processes=2, store=store).run()
        lost = excinfo.value.tasks
        assert "#1 job1" in lost
        assert "resume" in str(excinfo.value)
        for index, job in enumerate(jobs):
            stored = store.contains(store.key("verify", job.cache_config()))
            assert stored == (f"#{index} {job.name}" not in lost), job.name
