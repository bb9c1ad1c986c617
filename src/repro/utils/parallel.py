"""CPU-aware defaults for worker pools.

The containers this reproduction runs in are often narrow (a single CPU),
where spawning one worker process per job oversubscribes the machine and
*loses* wall clock to context switching.  Every component that fans work
out to processes -- the verification sweep's pool, the scenario matrix's
cell pool, the job daemon -- derives its default worker count from
:func:`available_cpu_count` instead of hard-coding one.

The CPU count sizes process pools and nothing else: vectorization widths
(``num_envs``, ``train_batch_size``) change the trained controller, so they
are pinned in :mod:`repro.core.config`, never derived from the machine.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, Tuple


def available_cpu_count() -> int:
    """The CPUs this process may use (``os.cpu_count()``, floored at 1)."""

    return max(1, os.cpu_count() or 1)


def default_worker_count(jobs: Optional[int] = None) -> int:
    """Default size of a *process pool*: one worker per CPU, never more.

    ``jobs`` caps the answer at the number of jobs to run (a pool larger
    than its job list only burns fork time).  This is the shared policy of
    :class:`repro.verification.sweep.VerificationSweep` and the scenario
    matrix runner; on a 1-CPU container it always returns 1, which those
    callers treat as "run inline, no pool".
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


def spawn_workers(
    target: Callable,
    args_list: Sequence[Tuple],
    context: str = "fork",
    join_timeout: Optional[float] = None,
) -> List[int]:
    """Run ``target(*args)`` once per entry in plain worker processes.

    Unlike a ``multiprocessing.Pool`` these workers are *not* daemonic, so
    each may fork its own pool -- which is what a matrix shard with
    ``jobs > 1`` does (:func:`repro.scenarios.run_sharded_matrix`).  All
    workers are started up front (the caller sizes the list; shards are
    coarse units, not a queue of small jobs) and joined in order; returns
    one exit code per worker (0 = clean, negative = killed by that signal),
    letting the caller decide whether a crashed worker is fatal.
    """

    import multiprocessing

    if context not in multiprocessing.get_all_start_methods():
        context = None  # platform default
    ctx = multiprocessing.get_context(context)
    workers = [ctx.Process(target=target, args=tuple(args)) for args in args_list]
    for worker in workers:
        worker.start()
    exit_codes: List[int] = []
    for worker in workers:
        worker.join(join_timeout)
        if worker.is_alive():
            worker.terminate()
            worker.join()
        exit_codes.append(worker.exitcode if worker.exitcode is not None else -15)
    return exit_codes
