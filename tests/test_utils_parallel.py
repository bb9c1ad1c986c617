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

import numpy as np
import pytest

from repro.utils.parallel import available_cpu_count, default_worker_count
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

        import multiprocessing

        from repro.utils.parallel import single_threaded_blas

        created = []

        class RecordingPool:
            def __init__(self, processes, initializer=None):
                created.append((processes, initializer))

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def imap(self, function, jobs):
                return [job.name for job in jobs]

        class RecordingContext:
            Pool = RecordingPool

        monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: RecordingContext())
        report = VerificationSweep(_dummy_jobs(3), processes=2).run()
        assert created == [(2, single_threaded_blas)]
        assert report.results == ["job0", "job1", "job2"]

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
        import multiprocessing
        from concurrent import futures

        from repro.utils.parallel import single_threaded_blas

        try:
            parent = _openblas_thread_counts()
        except OSError:
            pytest.skip("no /proc/self/maps on this platform")
        if not parent:
            pytest.skip("NumPy is not linked against OpenBLAS here")
        context = multiprocessing.get_context("fork")
        with futures.ProcessPoolExecutor(
            1, mp_context=context, initializer=single_threaded_blas
        ) as pool:
            worker = pool.submit(_openblas_thread_counts).result()
        assert worker and set(worker.values()) == {1}
        assert _openblas_thread_counts() == parent
