"""Multi-controller verification sweeps over a process pool.

The paper's verifiability comparison is inherently a *sweep*: many
(controller, system, horizon, target-error) combinations, each an
independent verification job.  :class:`VerificationSweep` runs such a job
matrix on a :class:`~repro.utils.parallel.TaskExecutor` -- every job runs
the batched verification analyses in a worker process -- and aggregates
the per-job :class:`~repro.verification.verifier.VerificationReport`
summaries into one :class:`SweepReport`.  A lost worker raises
:class:`~repro.utils.parallel.WorkerLost` naming the lost jobs
(``#index name``), after every finished job was recorded.

Jobs are transported as plain data (system name, MLP architecture dict and
weight arrays, analysis parameters), so they pickle cheaply and the worker
rebuilds the network locally.  Two budgets bound each job:

* ``work_budget`` -- the in-analysis resource proxy (Bernstein coefficients
  evaluated during reachability); exceeding it aborts the reachability
  analysis with ``status='resource-exhausted'``, mirroring the paper's
  report of ``kappa_D`` dying after 12 reachable-set computations;
* ``time_budget_seconds`` -- a wall-clock budget checked at phase
  boundaries (after partitioning and after reachability); when exceeded,
  the remaining analyses are skipped and the job is marked
  ``resource-exhausted`` rather than running unboundedly.

The CLI front end is ``python -m repro verify-sweep``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.nn.network import MLP
from repro.systems import make_system
from repro.utils.parallel import TaskExecutor, default_worker_count
from repro.utils.tables import write_records_csv
from repro.verification.verifier import VerificationReport, verify_controller


def scenario_budgets(system: str, **explicit) -> Dict[str, object]:
    """The analysis budgets of a verification job on ``system``.

    The one place a verification budget is resolved: an explicit value
    (anything but ``None``) wins, then the scenario's ``verify_budget``
    hint; a budget neither names keeps the :class:`SweepJob` field default
    when the job is built from the returned keywords.
    """

    from repro.scenarios import resolve_scenario

    budgets = dict(resolve_scenario(system)[0].verify_budget)
    budgets.update((key, value) for key, value in explicit.items() if value is not None)
    return budgets


@dataclass
class SweepJob:
    """One verification job: a controller, a system and analysis parameters."""

    name: str
    system: str
    architecture: Dict
    weights: Dict[str, np.ndarray]
    target_error: float = 0.5
    degree: int = 3
    max_partitions: int = 2048
    reach_steps: int = 15
    reach_box_scale: float = 0.1
    work_budget: Optional[int] = None
    invariant_grid: Optional[int] = None
    time_budget_seconds: Optional[float] = None

    @classmethod
    def from_network(cls, name: str, system: str, network: MLP, **parameters) -> "SweepJob":
        """Build a job from a live network (weights are copied out)."""

        return cls(
            name=name,
            system=system,
            architecture=network.architecture(),
            weights={key: value.copy() for key, value in network.state_dict().items()},
            **parameters,
        )

    @classmethod
    def from_saved(
        cls, system: str, directory: Union[str, Path], controller: str = "kappa_star", **parameters
    ) -> "SweepJob":
        """Build a job from a controller saved by ``repro train``."""

        from repro.utils.persistence import load_student_controller

        network = load_student_controller(directory, name=controller).network
        return cls.from_network(f"{controller}@{system}", system, network, **parameters)

    def build_network(self) -> MLP:
        network = MLP.from_architecture(self.architecture)
        network.load_state_dict(self.weights)
        return network

    def describe(self) -> str:
        """The job's originating spec, for error messages and telemetry.

        Worker tracebacks alone do not say *which* job died; every sweep
        error embeds this one-line identity (system, controller name and
        the analysis budgets) so a failed cell in a thousand-cell fleet is
        attributable without re-running anything.
        """

        budgets = (
            f"target_error={self.target_error}, degree={self.degree}, "
            f"max_partitions={self.max_partitions}, reach_steps={self.reach_steps}, "
            f"reach_box_scale={self.reach_box_scale}, work_budget={self.work_budget}, "
            f"invariant_grid={self.invariant_grid}, time_budget_seconds={self.time_budget_seconds}"
        )
        return f"job {self.name}: system={self.system}, {budgets}"

    def cache_config(self) -> Dict:
        """The job's resolved identity for run-store caching.

        Keyed on the controller weight digest (the bytes
        :func:`repro.experiments.digest.network_weights_digest` hashes for
        a live network: any weight update changes it) crossed with every
        analysis budget; the system resolves through the scenario registry so
        variant spellings (``vanderpol?mu=1.50`` vs ``?mu=1.5``) share one
        cache entry.
        """

        from repro.experiments.digest import weights_digest
        from repro.scenarios import resolve_scenario

        spec, overrides = resolve_scenario(self.system)
        params = dict(spec.default_params)
        params.update(overrides)
        return {
            "system": spec.name,
            "params": params,
            "weights": weights_digest(self.weights, extra=self.architecture),
            "budgets": {
                "target_error": self.target_error,
                "degree": self.degree,
                "max_partitions": self.max_partitions,
                "reach_steps": self.reach_steps,
                "reach_box_scale": self.reach_box_scale,
                "work_budget": self.work_budget,
                "invariant_grid": self.invariant_grid,
                "time_budget_seconds": self.time_budget_seconds,
            },
        }


@dataclass
class SweepJobResult:
    """Outcome of one sweep job (summary only: reports stay in the worker)."""

    name: str
    system: str
    status: str  # "ok" or "error"
    summary: Dict = field(default_factory=dict)
    error: Optional[str] = None
    elapsed_seconds: float = 0.0
    #: True when the result was replayed from a run store instead of
    #: executed (``elapsed_seconds`` is then the original measurement).
    cached: bool = False

    @property
    def verified(self) -> bool:
        return self.status == "ok" and bool(self.summary.get("verified", False))


@dataclass
class SweepReport:
    """Aggregated outcome of a :class:`VerificationSweep` run.

    ``processes`` is the width the sweep actually ran at: 1 when it ran
    inline (one uncached job, or every job replayed from the store), else
    the pool size, ``min(requested, uncached jobs)``.
    """

    results: List[SweepJobResult]
    elapsed_seconds: float
    processes: int

    @property
    def num_verified(self) -> int:
        return sum(1 for result in self.results if result.verified)

    @property
    def num_failed(self) -> int:
        return sum(1 for result in self.results if result.status == "error")

    def as_records(self) -> List[Dict]:
        """Flat per-job dictionaries (for tables, JSON or CSV exports)."""

        records = []
        for result in self.results:
            record = {
                "job": result.name,
                "system": result.system,
                "status": result.status,
                "elapsed_seconds": result.elapsed_seconds,
            }
            if result.error:
                record["error"] = result.error
            record.update(result.summary)
            records.append(record)
        return records

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write one row per job (union of all summary keys) to ``path``."""

        return write_records_csv(path, self.as_records())

    def table(self) -> str:
        """Aligned text table of the sweep (one line per job + a footer)."""

        header = f"{'job':28s} {'system':10s} {'status':10s} {'verdict':12s} {'parts':>6s} {'L':>8s} {'seconds':>8s}"
        lines = [header, "-" * len(header)]
        for result in self.results:
            summary = result.summary
            verdict = summary.get("reach_status", "-") if result.status == "ok" else result.status
            partitions = summary.get("partitions", "-")
            lipschitz = summary.get("lipschitz")
            lines.append(
                f"{result.name:28s} {result.system:10s} {result.status:10s} {str(verdict):12s} "
                f"{str(partitions):>6s} "
                f"{(f'{lipschitz:.2f}' if lipschitz is not None else '-'):>8s} "
                f"{result.elapsed_seconds:8.2f}"
            )
        lines.append(
            f"{len(self.results)} jobs | {self.num_verified} verified | {self.num_failed} errors | "
            f"{self.processes} process(es) | {self.elapsed_seconds:.2f}s wall clock"
        )
        return "\n".join(lines)


def run_sweep_job(job: SweepJob) -> SweepJobResult:
    """Execute one job (also the pool worker body; must stay picklable).

    Delegates to :func:`~repro.verification.verifier.verify_controller`,
    which enforces the job's wall-clock budget at every phase boundary; an
    invariant-set analysis skipped by the budget is reported as
    ``invariant_status='resource-exhausted'``.
    """

    start = time.perf_counter()
    try:
        system = make_system(job.system)
        network = job.build_network()
        report: VerificationReport = verify_controller(
            system,
            network,
            name=job.name,
            target_error=job.target_error,
            degree=job.degree,
            max_partitions=job.max_partitions,
            reach_initial_box=system.initial_set.scale(job.reach_box_scale),
            reach_steps=job.reach_steps,
            reach_work_budget=job.work_budget,
            invariant_grid=job.invariant_grid,
            time_budget_seconds=job.time_budget_seconds,
        )
        summary = report.summary()
        if job.invariant_grid and report.invariant is None:
            summary["invariant_status"] = "resource-exhausted"
        return SweepJobResult(
            name=job.name,
            system=job.system,
            status="ok",
            summary=summary,
            elapsed_seconds=time.perf_counter() - start,
        )
    except Exception as error:  # noqa: BLE001 - a failed job must not kill the sweep
        return SweepJobResult(
            name=job.name,
            system=job.system,
            status="error",
            error=f"{type(error).__name__}: {error} [{job.describe()}]",
            elapsed_seconds=time.perf_counter() - start,
        )


def load_cached_result(store, key, job: SweepJob) -> SweepJobResult:
    """Replay ``job``'s stored result from ``store``."""

    payload = store.load_result(key)
    # Replay under the *requesting* job's labels: the digest canonicalises
    # variant spellings, so the entry may have been produced by a job
    # named after an equivalent spec (vanderpol?mu=1.50 vs ?mu=1.5).
    summary = dict(payload.get("summary", {}))
    if "controller" in summary:
        summary["controller"] = job.name
    return SweepJobResult(
        name=job.name,
        system=job.system,
        status=payload["status"],
        summary=summary,
        error=payload.get("error"),
        elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        cached=True,
    )


def is_cacheable(result: SweepJobResult, time_budget_seconds: Optional[float]) -> bool:
    """Only deterministic outcomes may be recorded.

    Errors always rerun.  A wall-clock-truncated analysis (a job run under
    ``time_budget_seconds`` with a ``resource-exhausted`` verdict) depends
    on machine load, so replaying it would make a transient slowdown
    permanent; work-budget exhaustion is a deterministic count and caches
    fine.
    """

    if result.status != "ok":
        return False
    if time_budget_seconds:
        statuses = (
            result.summary.get("reach_status"),
            result.summary.get("invariant_status"),
        )
        if "resource-exhausted" in statuses:
            return False
    return True


def save_sweep_result(store, key, result: SweepJobResult) -> None:
    """Record ``result`` under ``key`` (callers check :func:`is_cacheable`)."""

    payload = {
        "name": result.name,
        "system": result.system,
        "status": result.status,
        "summary": result.summary,
        "elapsed_seconds": result.elapsed_seconds,
    }
    if result.error:
        payload["error"] = result.error
    store.save(key, payload)


class VerificationSweep:
    """Run many verification jobs, optionally fanned out across processes.

    ``processes=None`` derives the pool size from the machine via
    :func:`repro.utils.parallel.default_worker_count` -- one worker per
    available CPU, capped at the job count, so a narrow (1-CPU) container
    never forks a pool it cannot feed; ``processes<=1`` runs inline (no
    pool), which is also the deterministic mode the equivalence tests use.
    Results always come back in job order.

    ``store`` enables digest-keyed result caching: each job's identity is
    its :meth:`SweepJob.cache_config` (controller weight digest x analysis
    budgets), successful results are recorded in the
    :class:`~repro.experiments.store.RunStore`, and jobs whose digest is
    already present are replayed from disk instead of dispatched -- only
    the misses ever reach the pool.  Errors and wall-clock-truncated
    verdicts are never cached (they rerun on every sweep; see
    :func:`is_cacheable`), and ``force=True`` executes every job but still
    records the fresh results.
    """

    def __init__(
        self,
        jobs: Sequence[SweepJob],
        processes: Optional[int] = None,
        store=None,
        force: bool = False,
    ):
        self.jobs = list(jobs)
        if processes is None:
            processes = default_worker_count(jobs=len(self.jobs))
        self.processes = max(1, int(processes))
        self.store = store
        self.force = bool(force)

    def run(self) -> SweepReport:
        start = time.perf_counter()
        keys: List = [None] * len(self.jobs)
        results: List[Optional[SweepJobResult]] = [None] * len(self.jobs)
        labels: Dict[str, int] = {}
        for index, job in enumerate(self.jobs):
            if self.store is not None:
                keys[index] = self.store.key("verify", job.cache_config())
                if not self.force and self.store.contains(keys[index]):
                    results[index] = load_cached_result(self.store, keys[index], job)
                    continue
            labels[f"#{index} {job.name}"] = index

        def deliver(label: str, result: SweepJobResult) -> None:
            index = labels[label]
            if self.store is not None:
                if is_cacheable(result, self.jobs[index].time_budget_seconds):
                    save_sweep_result(self.store, keys[index], result)
            results[index] = result

        width = min(self.processes, len(labels))
        with TaskExecutor(width if width > 1 else 0, deliver) as executor:
            for label, index in labels.items():
                executor.submit(label, run_sweep_job, self.jobs[index])
            executor.drain()

        return SweepReport(
            results=list(results),
            elapsed_seconds=time.perf_counter() - start,
            processes=max(1, executor.workers),
        )
