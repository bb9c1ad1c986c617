"""CPU-aware pool widths and the one executor every fan-out runs on.

The containers this reproduction runs in are often narrow (a single CPU),
where spawning one worker process per job oversubscribes the machine and
*loses* wall clock to context switching.  Every component that fans work
out to processes derives its default worker count from
:func:`available_cpu_count` instead of hard-coding one.  The scenario
matrix, the verification sweep and kappa_D's distillation run their tasks
on :class:`TaskExecutor`, whose lost worker is a typed :class:`WorkerLost`,
never a hang.  Pool workers and :func:`spawn_workers` children, which
always run beside another process, first call :func:`single_threaded_blas`.

The CPU count sizes process pools and nothing else: vectorization widths
(``num_envs``, ``train_batch_size``) change the trained controller, so they
are pinned in :mod:`repro.core.config`, never derived from the machine.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def available_cpu_count() -> int:
    """The CPUs this process may use, floored at 1.

    That is the process's affinity mask where the OS has one, so ``taskset``
    and cgroup cpusets narrow it; elsewhere it is ``os.cpu_count()``.
    """

    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def default_worker_count(jobs: Optional[int] = None) -> int:
    """Default size of a *process pool*: one worker per CPU, never more.

    ``jobs`` caps the answer at the number of jobs to run (a pool larger
    than its job list only burns fork time).  This is the shared policy of
    every :class:`TaskExecutor` caller; on a 1-CPU container it always
    returns 1, which the matrix, the sweep and kappa_D treat as "run
    inline, no pool".
    """

    workers = available_cpu_count()
    if jobs is not None:
        workers = min(workers, max(0, int(jobs)))
    return max(1, workers)


#: Thread-count setters of the OpenBLAS builds NumPy ships or links against.
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def single_threaded_blas() -> None:
    """Limit this process's OpenBLAS to one thread (a pool-worker initializer).

    OpenBLAS starts one spinning thread per CPU in every process, so a pool
    of one worker per CPU would run CPUs x CPUs BLAS threads: measured on a
    2-CPU box, that made the scenario matrix's 2-worker pool slower than
    one process.  The pool is the parallelism, so each worker keeps one.
    Best effort: the library is found through ``/proc/self/maps`` (Linux);
    elsewhere, or for other BLAS builds, nothing changes.
    """

    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter(1)
                break


def _fork_context():
    """The multiprocessing context of every pool here: fork where the OS has it."""

    import multiprocessing

    return multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )


class WorkerLost(RuntimeError):
    """A pool worker died (SIGKILL, out of memory) before returning its task.

    ``tasks`` names every task lost with it.  Every task that finished
    before the loss was delivered first, so a caller that records results
    in a run store has them on disk: rerunning against it resumes.
    """

    def __init__(self, tasks: Sequence[str]):
        self.tasks = list(tasks)
        super().__init__(
            f"a pool worker died; lost task(s): {', '.join(self.tasks)} -- "
            "finished tasks were delivered; rerun against the same run store to resume"
        )


class TaskExecutor:
    """The one executor of the matrix, the verification sweep and kappa_D.

    ``submit(label, fn, *args)`` queues ``fn(*args)`` on a fork pool of
    ``workers`` processes, each running :func:`single_threaded_blas` (the
    pool is the parallelism).  One task beyond the width stays in flight so
    no worker idles while the caller records a result; ``submit`` waits for
    room, and :attr:`full` lets a caller pick its next task only when there
    is some.  :meth:`wait` blocks until a task finishes and calls
    ``deliver(label, result)`` for every finished one in submission order,
    or re-raises a task's exception; the caller may submit between waits.
    ``workers=0``, or a daemonic parent (which may not fork), runs each
    task inline when it is waited for.  When a worker dies -- seen at
    :meth:`wait` or at ``submit`` -- every finished task is still
    delivered, then one :class:`WorkerLost` names the lost ones.
    """

    def __init__(self, workers: int, deliver: Callable[[str, object], None]):
        import multiprocessing
        from concurrent import futures

        self.deliver = deliver
        self.workers = 0 if multiprocessing.current_process().daemon else max(0, int(workers))
        self._pool = None
        if self.workers:
            self._pool = futures.ProcessPoolExecutor(
                max_workers=self.workers, mp_context=_fork_context(), initializer=single_threaded_blas
            )
        #: In-flight tasks in submission order: a future (or, inline, the
        #: deferred call) -> its label.
        self._running: Dict[object, str] = {}

    def __enter__(self) -> "TaskExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)

    @property
    def full(self) -> bool:
        return len(self._running) > self.workers

    def submit(self, label: str, fn: Callable, *args) -> None:
        from concurrent import futures

        while self.full:
            self.wait()
        if self._pool is None:
            self._running[functools.partial(fn, *args)] = label
            return
        try:
            future = self._pool.submit(fn, *args)
        except futures.BrokenExecutor:  # a worker died since the last wait
            self._abandon([label])
        self._running[future] = label

    def wait(self) -> None:
        from concurrent import futures

        if self._pool is None:
            call = next(iter(self._running))
            self.deliver(self._running.pop(call), call())
            return
        done, _ = futures.wait(self._running, return_when=futures.FIRST_COMPLETED)
        lost: List[str] = []
        for future in [f for f in self._running if f in done]:
            label = self._running.pop(future)
            try:
                outcome = future.result()
            except futures.BrokenExecutor:
                lost.append(label)
                continue
            self.deliver(label, outcome)
        if lost:
            self._abandon(lost)

    def drain(self) -> None:
        """Wait until every submitted task has been delivered."""

        while self._running:
            self.wait()

    def _abandon(self, lost: List[str]) -> None:
        """The pool is broken: the other in-flight tasks fail with it, apart
        from any that finished before the loss, which are delivered."""

        from concurrent import futures

        running, self._running = self._running, {}
        for future, label in running.items():
            try:
                outcome = future.result()
            except futures.BrokenExecutor:
                lost.append(label)
            else:
                self.deliver(label, outcome)
        raise WorkerLost(lost)


def _single_threaded(target: Callable, *args) -> None:
    """A :func:`spawn_workers` child: one BLAS thread, then ``target(*args)``."""

    single_threaded_blas()
    target(*args)


def spawn_workers(target: Callable, args_list: Sequence[Tuple]) -> List[int]:
    """Run ``target(*args)`` once per entry in plain worker processes.

    Unlike a pool's, these workers are *not* daemonic, so each may fork its
    own pool -- which is what a matrix shard with ``jobs > 1`` does
    (:func:`repro.scenarios.run_sharded_matrix`).  All workers are started
    up front (the caller sizes the list; shards are coarse units, not a
    queue of small jobs) and joined in order; returns one exit code per
    worker (0 = clean, negative = killed by that signal), letting the
    caller decide whether a crashed worker is fatal.  The workers run side
    by side, so each first limits its BLAS to one thread, as pool workers
    do.
    """

    context = _fork_context()
    workers = [context.Process(target=_single_threaded, args=(target, *args)) for args in args_list]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return [worker.exitcode for worker in workers]
