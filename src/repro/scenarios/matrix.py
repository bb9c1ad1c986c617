"""Cross-scenario matrix runner: ``(scenario x controller x perturbation)``.

The ROADMAP's scenario-diversity goal is operationally a *matrix*: every
registered scenario crossed with every controller of interest and every
perturbation regime, each cell a Monte-Carlo evaluation on the batched
rollout engine, plus one verification job per trained student fanned across
the :class:`~repro.verification.sweep.VerificationSweep` process pool.
:func:`run_scenario_matrix` expands and runs that matrix and returns a
:class:`ScenarioMatrixReport` whose ``to_csv`` emits one flat row per cell
-- the cross-scenario CSV the CLI's ``repro scenarios run`` writes.

Per-scenario budgets come from each spec's ``train_budget`` /
``verify_budget`` hints; ``budget_scale`` shrinks the integer training
knobs uniformly (the ``make scenario-smoke`` target runs the whole catalog
at a tiny scale this way).

With a :class:`~repro.experiments.store.RunStore` (``store=``/``run_dir=``)
the matrix becomes an *incremental* workload: every stage -- the kappa*
training, each evaluation cell, each verification job -- is keyed by the
digest of its resolved config and flushed to the store as soon as it
completes, so an interrupted sweep rerun with ``resume=True`` executes
only the missing cells and a fully warmed store answers the whole matrix
from disk.  Store-backed rows are deterministic (wall-clock timings stay
in the store's entry metadata, not in the rows), which is what makes the
resumed CSV byte-identical to an uninterrupted run.

Sharding
--------
The same digest-keyed store doubles as a distributed coordination
substrate.  :func:`plan_matrix_cells` expands the grid into a canonical
cell order, a :class:`ShardSpec` (``"i/N"``) assigns every position to
exactly one of N shards round-robin, and each shard runs
``run_scenario_matrix(..., shard=...)`` against the *shared* run
directory -- on one host via :func:`run_sharded_matrix` worker processes,
or across hosts via ``repro scenarios run --shard i/N``.  Shards
coordinate through a :class:`~repro.experiments.store.ClaimBoard`: each
in-flight cell is claimed atomically, heartbeats keep the claim alive,
and idle shards *steal* unfinished foreign cells (including claims whose
worker died, once the lease expires).  A shard-level wall-clock budget
mirrors the sweep's ``resource-exhausted`` semantics: on exhaustion the
remaining cells are simply left unclaimed for other shards.

:func:`merge_matrix_run` then replays the whole grid from the store
(``offline=True``: nothing may execute) and reassembles the rows in
canonical order -- producing a CSV byte-identical to a single-process run,
regardless of shard count, completion order or how often workers died.

Telemetry
---------
Store-backed runs additionally append a typed event log under
``<run_dir>/events/`` (see :mod:`repro.telemetry`): every counter
increment in the report pairs with exactly one ``cell-finished`` /
``cell-cached`` / ``cell-stolen`` event, plus run lifecycle, heartbeat,
stage-timing and sweep-job events -- which is what ``repro runs watch``
tails live and ``repro runs stats`` aggregates.  All wall-clock timings
live *only* in that log; store entries and rows stay deterministic, so
enabling telemetry cannot perturb the byte-identical CSV guarantee.
Offline replays (the merge) execute nothing and therefore emit nothing.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.cocktail import CocktailPipeline
from repro.core.config import CocktailConfig
from repro.metrics.robustness import evaluate_robustness
from repro.scenarios.registry import list_scenarios, resolve_scenario
from repro.telemetry.emitter import NullTelemetryEmitter, TelemetryEmitter
from repro.telemetry.events import (
    CellCached,
    CellFinished,
    CellStarted,
    CellStolen,
    RunFinished,
    RunStarted,
    StageTiming,
    SweepJobFinished,
)
from repro.utils.seeding import set_global_seed

#: Non-deterministic keys stripped from store-backed verification rows.
_TIMING_KEYS = ("total_seconds", "reach_seconds", "invariant_seconds")

#: The training-budget keys that scale with ``budget_scale``.
_SCALABLE_HINTS = ("mixing_epochs", "mixing_steps", "distill_epochs", "dataset_size", "eval_samples")

#: Manifest file a sharded run writes into its run directory so that
#: ``repro runs merge`` can replay the exact same grid.
MANIFEST_FILE = "matrix.json"

#: Poll period while waiting for another shard to publish a dependency.
_WAIT_POLL_SECONDS = 0.05


def scale_budget_hints(hints: Mapping[str, object], factor: float) -> Dict[str, object]:
    """Uniformly shrink/grow the integer budget knobs (floored at 1)."""

    scaled = dict(hints or {})
    if factor != 1.0:
        for key in _SCALABLE_HINTS:
            if key in scaled:
                scaled[key] = max(1, int(round(float(scaled[key]) * factor)))
    return scaled


@dataclass(frozen=True)
class ShardSpec:
    """One shard of the matrix grid: 1-based ``index`` out of ``count``.

    Ownership is round-robin over the canonical cell order
    (:func:`plan_matrix_cells`), which makes the assignment a provable
    partition: for any grid size, every position is owned by exactly one
    shard, shards are pairwise disjoint, their union is exhaustive, and
    shard sizes differ by at most one cell.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"bad shard spec {self.index}/{self.count}: need at least one shard")
        if not 1 <= self.index <= self.count:
            raise ValueError(
                f"bad shard spec {self.index}/{self.count}: index must be in 1..{self.count}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse an ``"i/N"`` spec; raises ValueError with the reason."""

        pieces = str(text).split("/")
        if len(pieces) != 2:
            raise ValueError(f"bad shard spec {text!r}: expected I/N (e.g. 2/4)")
        try:
            index, count = int(pieces[0]), int(pieces[1])
        except ValueError:
            raise ValueError(f"bad shard spec {text!r}: I and N must be integers")
        return cls(index=index, count=count)

    def owns(self, position: int) -> bool:
        """Whether the canonical cell at ``position`` belongs to this shard."""

        return position % self.count == self.index - 1

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


@dataclass(frozen=True)
class MatrixCell:
    """One unit of matrix work in the canonical (shardable) cell order."""

    kind: str  # "evaluate" | "verify"
    scenario: str  # requested spelling; variants preserved
    controller: str
    perturbation: Optional[str] = None


def _enumerate_cells(
    scenario_controllers: Sequence[Tuple[str, Sequence[str]]],
    perturbations: Sequence[str],
    include_verify: bool,
) -> List[MatrixCell]:
    """The canonical cell order: all evaluate cells, then one verify/scenario.

    This mirrors the row order of a single-process run exactly, so a merge
    that loads cells in this order reproduces the single-process CSV.
    """

    cells: List[MatrixCell] = []
    for scenario, controllers in scenario_controllers:
        for controller in controllers:
            for perturbation in perturbations:
                cells.append(MatrixCell("evaluate", scenario, controller, perturbation))
    if include_verify:
        for scenario, _ in scenario_controllers:
            cells.append(MatrixCell("verify", scenario, "kappa_star"))
    return cells


def plan_matrix_cells(
    scenarios: Optional[Sequence[str]] = None,
    perturbations: Sequence[str] = ("none", "attack", "noise"),
    train: bool = True,
    verify: bool = True,
) -> List[MatrixCell]:
    """Expand the grid into its canonical cell order without running it.

    The list index of each cell is its shard position
    (:meth:`ShardSpec.owns`); the executor enumerates identically, so the
    plan is the shard protocol's single source of truth.
    """

    names = list(scenarios) if scenarios is not None else list_scenarios()
    scenario_controllers = []
    for name in names:
        spec, overrides = resolve_scenario(name)
        system = spec.make_system(**overrides)
        controllers = [f"kappa{i}" for i in range(1, len(spec.make_experts(system)) + 1)]
        if train:
            controllers.append("kappa_star")
        scenario_controllers.append((name, controllers))
    return _enumerate_cells(scenario_controllers, perturbations, include_verify=train and verify)


class MatrixIncompleteError(RuntimeError):
    """An offline merge found cells the run store does not hold yet."""

    def __init__(self, missing: Sequence[str]):
        self.missing = list(missing)
        preview = ", ".join(self.missing[:8])
        if len(self.missing) > 8:
            preview += ", ..."
        super().__init__(
            f"run store is missing {len(self.missing)} cell(s): {preview} -- "
            "run the remaining shards (or rerun an interrupted shard with --resume) "
            "before merging"
        )


@dataclass
class ScenarioMatrixReport:
    """Flat per-cell records of one matrix run."""

    rows: List[Dict] = field(default_factory=list)
    scenarios: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: Stage executions vs run-store replays (both stay 0 without a store).
    cells_computed: int = 0
    cells_cached: int = 0
    #: Sharded runs only: foreign cells this shard picked up, and owned
    #: cells left to another live claimant.
    cells_stolen: int = 0
    cells_skipped: int = 0
    #: ``"resource-exhausted"`` when a shard wall-clock budget expired.
    status: str = "ok"
    shard: Optional[str] = None

    @property
    def num_cells(self) -> int:
        return len(self.rows)

    @property
    def num_unsafe_free(self) -> int:
        """Evaluation cells with a perfect safe rate."""

        return sum(1 for row in self.rows if row.get("safe_rate") == 1.0)

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write one row per matrix cell (union of all keys) to ``path``."""

        import csv

        keys: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in keys:
                    keys.append(key)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=keys, restval="")
            writer.writeheader()
            writer.writerows(self.rows)
        return path

    def table(self) -> str:
        """Aligned text table of the matrix (one line per cell + a footer)."""

        header = (
            f"{'scenario':12s} {'controller':12s} {'cell':10s} {'perturb':8s} "
            f"{'Sr':>7s} {'energy':>9s} {'verdict':>12s} {'seconds':>8s}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            safe_rate = row.get("safe_rate")
            energy = row.get("mean_energy")
            verdict = row.get("reach_status", row.get("status", "-"))
            lines.append(
                f"{row['scenario']:12s} {row['controller']:12s} {row['cell']:10s} "
                f"{str(row.get('perturbation', '-')):8s} "
                f"{(f'{100 * safe_rate:6.1f}%' if safe_rate is not None else '      -'):>7s} "
                f"{(f'{energy:9.2f}' if energy is not None else '        -'):>9s} "
                f"{str(verdict):>12s} {row.get('seconds', 0.0):8.2f}"
            )
        lines.append(
            f"{self.num_cells} cells over {len(self.scenarios)} scenario(s) | "
            f"{self.elapsed_seconds:.2f}s wall clock"
        )
        return "\n".join(lines)


def _controller_identity(name: str, controller) -> Dict[str, object]:
    """What makes an evaluation cell's controller unique for digesting.

    Trained students are identified by their weight digest (so a retrain
    with different weights can never replay a stale cell); analytic experts
    are a pure function of the plant and their position, so their name
    suffices.
    """

    network = getattr(controller, "network", None)
    if network is not None:
        from repro.nn.lipschitz import network_weights_digest

        return {"kind": "network", "weights": network_weights_digest(network)}
    return {"kind": "analytic", "name": name}


# -- manifest ----------------------------------------------------------


def write_matrix_manifest(root: Union[str, Path], manifest: Mapping) -> Path:
    """Atomically record the matrix identity in ``root``; conflicts error.

    Every shard of one grid writes the same manifest, so the first wins
    and the rest verify; a *different* manifest means two incompatible
    matrices were pointed at one run directory, which would merge into
    nonsense -- that is rejected loudly.
    """

    from repro.experiments.digest import canonicalize

    root = Path(root)
    canonical = canonicalize(dict(manifest))
    path = root / MANIFEST_FILE
    if path.exists():
        with path.open() as handle:
            existing = json.load(handle)
        if existing != canonical:
            raise ValueError(
                f"{path} already describes a different matrix; use a fresh --run-dir "
                "(or delete the manifest) instead of mixing grids in one store"
            )
        return path
    root.mkdir(parents=True, exist_ok=True)
    staging = path.with_name(f".tmp-{MANIFEST_FILE}-{os.getpid()}")
    with staging.open("w") as handle:
        json.dump(canonical, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(staging, path)
    return path


def read_matrix_manifest(root: Union[str, Path]) -> Dict:
    """Load the manifest a sharded run left in ``root`` (FileNotFoundError)."""

    with (Path(root) / MANIFEST_FILE).open() as handle:
        return json.load(handle)


# -- execution ---------------------------------------------------------


@dataclass
class _ScenarioContext:
    """Resolved per-scenario state shared by planning and execution."""

    name: str
    spec: object
    overrides: Dict
    params: Dict
    system: object
    experts: Dict[str, object]
    controller_names: List[str]
    student: Optional[object] = None


class _MatrixExecution:
    """One ``run_scenario_matrix`` invocation (kept in a class for state)."""

    def __init__(self, **kwargs):
        self.__dict__.update(kwargs)
        self.report = ScenarioMatrixReport(
            scenarios=list(self.names), shard=str(self.shard) if self.shard else None
        )
        self.missing: List[str] = []
        self.start = time.perf_counter()
        self.deadline = (
            None if self.shard_time_budget is None else self.start + float(self.shard_time_budget)
        )

    # -- helpers -------------------------------------------------------
    def _out_of_time(self) -> bool:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.report.status = "resource-exhausted"
            return True
        return False

    def _contexts(self) -> List[_ScenarioContext]:
        contexts = []
        for name in self.names:
            spec, overrides = resolve_scenario(name)
            params = dict(spec.default_params)
            params.update(overrides)
            system = spec.make_system(**overrides)
            experts = {
                f"kappa{index}": expert
                for index, expert in enumerate(spec.make_experts(system), start=1)
            }
            controller_names = list(experts)
            if self.train:
                controller_names.append("kappa_star")
            contexts.append(
                _ScenarioContext(
                    name=name,
                    spec=spec,
                    overrides=dict(overrides),
                    params=params,
                    system=system,
                    experts=experts,
                    controller_names=controller_names,
                )
            )
        return contexts

    def _controller(self, ctx: _ScenarioContext, name: str):
        return ctx.student if name == "kappa_star" else ctx.experts[name]

    # -- student (kappa_star) ------------------------------------------
    def _train_key(self, ctx: _ScenarioContext, config: CocktailConfig):
        # direct_baseline is part of the identity: the CLI's train command
        # produces kappa_d + record.json under the same budgets, and must
        # never restore a matrix entry without them.
        return self.store.key(
            "train",
            {
                "system": ctx.spec.name,
                "params": ctx.params,
                "cocktail": config,
                "seed": self.seed,
                "direct_baseline": False,
            },
        )

    def _train_config(self, ctx: _ScenarioContext) -> Tuple[CocktailConfig, Dict]:
        hints = scale_budget_hints(ctx.spec.train_budget, self.budget_scale)
        hints.update(self.train_overrides or {})
        return CocktailConfig.from_budget_hints(hints, seed=self.seed), hints

    def _train_student(self, ctx: _ScenarioContext, config: CocktailConfig, hints: Dict):
        self.say(
            f"[{ctx.name}] training kappa_star ({hints.get('mixing_epochs', '?')} mixing epochs)"
        )
        set_global_seed(self.seed)
        result = CocktailPipeline(ctx.system, list(ctx.experts.values()), config).run(
            include_direct_baseline=False
        )
        return result

    def _ensure_student(self, ctx: _ScenarioContext, wait: bool = True) -> bool:
        """Make ``ctx.student`` available; False when it cannot be (yet).

        Store-backed runs key the training stage like every other cell:
        present entries restore the network, missing ones train it.  When
        shards coordinate through claims, only one shard trains a given
        scenario while the others wait for the publish (or take over the
        claim if the trainer dies); ``wait=False`` -- the stealing pass --
        moves on instead of waiting.
        """

        if not self.train or ctx.student is not None:
            return True
        config, hints = self._train_config(ctx)
        if self.store is None:
            ctx.student = self._train_student(ctx, config, hints).student
            return True

        from repro.experts.base import NeuralController

        key = self._train_key(ctx, config)
        while True:
            if self.reuse and self.store.contains(key):
                network = self.store.load_network(key, "kappa_star")
                ctx.student = NeuralController(network, name="kappa_star")
                self.store.hits += 1
                self.report.cells_cached += 1
                self.tele.emit(CellCached, scenario=ctx.name, controller="kappa_star", cell="train")
                self.say(f"[{ctx.name}] kappa_star restored from the run store")
                return True
            if self.offline:
                self.missing.append(f"train/{key.digest[:16]} ({ctx.name})")
                return False
            if self.claims is None or self.claims.acquire(key):
                try:
                    if (
                        self.claims is not None
                        and self.reuse
                        and self.store.contains(key)
                    ):
                        continue  # published while we acquired; restore above
                    hold = self.claims.hold(key) if self.claims is not None else _null_context()
                    with hold:
                        self.tele.emit(
                            CellStarted, scenario=ctx.name, controller="kappa_star", cell="train"
                        )
                        train_start = time.perf_counter()
                        result = self._train_student(ctx, config, hints)
                        self.store.save(
                            key,
                            {
                                "experts": [expert.name for expert in result.experts],
                                "dataset_size": len(result.dataset),
                            },
                            networks={"kappa_star": result.student.network},
                        )
                    self.store.misses += 1
                    self.report.cells_computed += 1
                    for stage, stage_secs in result.stage_seconds.items():
                        self.tele.emit(
                            StageTiming, scenario=ctx.name, stage=stage, seconds=stage_secs
                        )
                    self.tele.emit(
                        CellFinished,
                        scenario=ctx.name,
                        controller="kappa_star",
                        cell="train",
                        seconds=time.perf_counter() - train_start,
                    )
                    ctx.student = result.student
                    return True
                finally:
                    if self.claims is not None:
                        self.claims.release(key)
            else:
                if not wait or self._out_of_time():
                    return False
                time.sleep(_WAIT_POLL_SECONDS)

    # -- evaluate cells ------------------------------------------------
    def _evaluate_cell(
        self, ctx: _ScenarioContext, controller_name: str, perturbation: str, stolen: bool = False
    ) -> bool:
        """Run (or replay) one evaluation cell; False when skipped/missing."""

        controller = self._controller(ctx, controller_name)
        cell_start = time.perf_counter()
        identity = {
            "scenario": ctx.name,
            "controller": controller_name,
            "cell": "evaluate",
            "perturbation": perturbation,
        }

        def compute_cell():
            self.tele.emit(CellStarted, **identity)
            compute_start = time.perf_counter()
            outcome = evaluate_robustness(
                ctx.system,
                controller,
                perturbation=perturbation,
                fraction=self.fraction,
                samples=self.samples,
                rng=self.seed,
            )
            self.tele.emit(
                CellFinished,
                seconds=time.perf_counter() - compute_start,
                safe_rate=outcome.safe_rate,
                **identity,
            )
            return {
                "safe_rate": outcome.safe_rate,
                "mean_energy": outcome.mean_energy,
                "samples": outcome.samples,
            }

        if self.store is not None:
            key = self.store.key(
                "evaluate",
                {
                    "system": ctx.spec.name,
                    "params": ctx.params,
                    "controller": _controller_identity(controller_name, controller),
                    "perturbation": perturbation,
                    "samples": self.samples,
                    "fraction": self.fraction,
                    "seed": self.seed,
                },
            )
            if self.offline:
                if not self.store.contains(key):
                    self.missing.append(
                        f"evaluate/{key.digest[:16]} ({ctx.name}:{controller_name}:{perturbation})"
                    )
                    return False
                payload = self.store.load_result(key)
                self.store.hits += 1
                self.report.cells_cached += 1
            elif self.claims is not None:
                if stolen and self.reuse and self.store.contains(key):
                    return True  # already finished elsewhere; nothing to steal
                payload = self._claimed_evaluate(key, compute_cell, stolen, identity)
                if payload is None:
                    return False
            else:
                hits_before = self.store.hits
                payload = self.store.get_or_run(key, compute_cell, force=not self.reuse)
                if self.store.hits > hits_before:
                    self.report.cells_cached += 1
                    self.tele.emit(CellCached, **identity)
                else:
                    self.report.cells_computed += 1
        else:
            payload = compute_cell()
        row = {
            "scenario": ctx.name,
            "controller": controller_name,
            "cell": "evaluate",
            "perturbation": perturbation,
            "safe_rate": payload["safe_rate"],
            "mean_energy": payload["mean_energy"],
            "samples": payload["samples"],
        }
        if self.store is None:
            row["seconds"] = time.perf_counter() - cell_start
        self.report.rows.append(row)
        self.emit(row)
        return True

    def _claimed_evaluate(
        self, key, compute_cell: Callable, stolen: bool, identity: Dict
    ) -> Optional[Dict]:
        """Claim-guarded execution of one evaluation cell (sharded runs)."""

        if self.reuse and self.store.contains(key):
            self.store.hits += 1
            self.report.cells_cached += 1
            self.tele.emit(CellCached, **identity)
            return self.store.load_result(key)
        if not self.claims.acquire(key):
            if not stolen:  # an owned cell left to a live claimant
                self.report.cells_skipped += 1
            return None
        stale_takeover = self.claims.last_acquire_was_takeover
        try:
            if self.reuse and self.store.contains(key):  # published while acquiring
                self.store.hits += 1
                self.report.cells_cached += 1
                self.tele.emit(CellCached, **identity)
                return self.store.load_result(key)
            with self.claims.hold(key):
                self.store.save(key, compute_cell())
            self.store.misses += 1
            self.report.cells_computed += 1
            if stolen:
                self.report.cells_stolen += 1
                self.tele.emit(CellStolen, stale=stale_takeover, **identity)
            return self.store.load_result(key)
        finally:
            self.claims.release(key)

    # -- verify cells --------------------------------------------------
    def _verify_jobs(self, ctxs: Sequence[_ScenarioContext]):
        from repro.verification.sweep import SweepJob

        jobs = []
        for ctx in ctxs:
            parameters = dict(ctx.spec.verify_budget)
            parameters.update(self.verify_overrides or {})
            jobs.append(
                SweepJob.from_network(
                    name=f"kappa_star@{ctx.name}",
                    system=ctx.name,
                    network=ctx.student.network,
                    **parameters,
                )
            )
        return jobs

    def _verify(self, ctxs: Sequence[_ScenarioContext], stolen: bool = False) -> None:
        """Fan one verification job per scenario across the sweep pool."""

        if not ctxs:
            return
        from repro.verification.sweep import VerificationSweep

        jobs = self._verify_jobs(ctxs)
        if stolen and self.reuse:
            # Steal only unfinished verification work; completed foreign
            # cells belong to the merge, not to this shard's report.
            pending = [
                (ctx, job)
                for ctx, job in zip(ctxs, jobs)
                if not self.store.contains(self.store.key("verify", job.cache_config()))
            ]
            if not pending:
                return
            ctxs = [ctx for ctx, _ in pending]
            jobs = [job for _, job in pending]
        if self.offline:
            keys = [self.store.key("verify", job.cache_config()) for job in jobs]
            present = []
            for ctx, job, key in zip(ctxs, jobs, keys):
                if self.store.contains(key):
                    present.append((ctx, job))
                else:
                    self.missing.append(f"verify/{key.digest[:16]} ({ctx.name})")
            if not present:
                return
            ctxs = [ctx for ctx, _ in present]
            jobs = [job for _, job in present]
        else:
            self.say(
                f"verifying {len(jobs)} student(s) across {max(1, self.jobs)} process(es)"
            )
        ctx_by_job = {id(job): ctx for ctx, job in zip(ctxs, jobs)}

        def on_job_start(job) -> None:
            # Fires in this process, right before the job enters execution.
            self.tele.emit(
                CellStarted,
                scenario=ctx_by_job[id(job)].name,
                controller="kappa_star",
                cell="verify",
            )

        def on_job_result(job, result) -> None:
            self.tele.emit(
                SweepJobFinished,
                job=job.name,
                system=job.system,
                status=result.status,
                seconds=result.elapsed_seconds,
                cached=result.cached,
                verified=result.verified,
            )

        sweep = VerificationSweep(
            jobs,
            processes=self.jobs or None,
            store=self.store,
            force=not self.reuse,
            claims=self.claims,
            on_start=on_job_start,
            on_result=on_job_result,
        )
        sweep_report = sweep.run()
        for ctx, result in zip(ctxs, sweep_report.results):
            if result.status == "skipped":
                if not stolen:  # an owned cell left to a live claimant
                    self.report.cells_skipped += 1
                continue
            row = {
                "scenario": ctx.name,
                "controller": "kappa_star",
                "cell": "verify",
                "status": result.status,
            }
            if self.store is None:
                row["seconds"] = result.elapsed_seconds
            if result.error:
                row["error"] = result.error
            summary = dict(result.summary)
            summary.pop("controller", None)  # the row's controller column is the matrix name
            if self.store is not None:
                for key in _TIMING_KEYS:
                    summary.pop(key, None)
                # Fresh summaries arrive in insertion order, replayed ones in
                # JSON-sorted order; sort both so the CSV header -- and with
                # it the whole file -- is byte-stable across resumed runs.
                summary = {key: summary[key] for key in sorted(summary)}
            row.update(summary)
            self.report.rows.append(row)
            if result.cached:
                self.report.cells_cached += 1
                self.tele.emit(
                    CellCached, scenario=ctx.name, controller="kappa_star", cell="verify"
                )
                self.tele.emit(
                    SweepJobFinished,
                    job=result.name,
                    system=result.system,
                    status=result.status,
                    seconds=result.elapsed_seconds,
                    cached=True,
                    verified=result.verified,
                )
            elif self.store is not None:
                self.report.cells_computed += 1
                self.tele.emit(
                    CellFinished,
                    scenario=ctx.name,
                    controller="kappa_star",
                    cell="verify",
                    seconds=result.elapsed_seconds,
                    status=result.status,
                )
                if stolen:
                    self.report.cells_stolen += 1
                    self.tele.emit(
                        CellStolen, scenario=ctx.name, controller="kappa_star", cell="verify"
                    )
            self.emit(row)

    # -- main flow -----------------------------------------------------
    def _telemetry_counters(self) -> Dict[str, int]:
        """Heartbeat payload: the report's counters (read-only snapshot)."""

        report = self.report
        return {
            "cells_done": report.cells_computed + report.cells_cached,
            "cells_computed": report.cells_computed,
            "cells_cached": report.cells_cached,
            "cells_stolen": report.cells_stolen,
            "cells_skipped": report.cells_skipped,
        }

    def run(self) -> ScenarioMatrixReport:
        contexts = self._contexts()
        by_name = {ctx.name: ctx for ctx in contexts}
        cells = _enumerate_cells(
            [(ctx.name, ctx.controller_names) for ctx in contexts],
            self.perturbations,
            include_verify=self.train and self.verify,
        )
        owned = [
            (position, cell)
            for position, cell in enumerate(cells)
            if self.shard is None or self.shard.owns(position)
        ]
        self.tele.emit(
            RunStarted,
            scenarios=tuple(self.names),
            cells_total=len(cells),
            cells_owned=len(owned),
            pid=os.getpid(),
        )
        with self.tele.heartbeats(self._telemetry_counters):
            self._execute(contexts, by_name, cells, owned)

        if self.offline and self.missing:
            raise MatrixIncompleteError(self.missing)

        self.report.elapsed_seconds = time.perf_counter() - self.start
        self.tele.emit(
            RunFinished,
            status=self.report.status,
            cells_computed=self.report.cells_computed,
            cells_cached=self.report.cells_cached,
            cells_stolen=self.report.cells_stolen,
            cells_skipped=self.report.cells_skipped,
            rows=len(self.report.rows),
            seconds=self.report.elapsed_seconds,
        )
        if self.shard is not None:
            self._write_shard_summary()
        return self.report

    def _execute(self, contexts, by_name, cells, owned) -> None:
        """Evaluate, verify and steal -- the body between lifecycle events."""

        owned_eval = [(p, c) for p, c in owned if c.kind == "evaluate"]
        owned_verify = [(p, c) for p, c in owned if c.kind == "verify"]

        for ctx in contexts:
            if self._out_of_time():
                break
            scenario_eval = [(p, c) for p, c in owned_eval if c.scenario == ctx.name]
            needs_student = self.train and (
                self.shard is None
                and not self.offline
                or any(c.controller == "kappa_star" for _, c in scenario_eval)
                or any(c.scenario == ctx.name for _, c in owned_verify)
            )
            if needs_student and not self._ensure_student(ctx):
                continue  # offline: recorded as missing; sharded: budget expired
            ran = set()
            for position, cell in scenario_eval:
                if self._out_of_time():
                    break
                self._evaluate_cell(ctx, cell.controller, cell.perturbation)
                ran.add(cell.controller)
            for controller_name in ctx.controller_names:
                if controller_name in ran:
                    self.say(
                        f"[{ctx.name}] evaluated {controller_name} under "
                        f"{len(list(self.perturbations))} regime(s)"
                    )

        if not self._out_of_time():
            verify_ctxs = [
                by_name[cell.scenario]
                for _, cell in owned_verify
                if by_name[cell.scenario].student is not None or not self.train
            ]
            verify_ctxs = [ctx for ctx in verify_ctxs if ctx.student is not None]
            self._verify(verify_ctxs)

        if self.shard is not None and self.steal and not self.force:
            self._steal(contexts, by_name, cells)

    def _has_row(self, cell: MatrixCell) -> bool:
        return any(
            row["scenario"] == cell.scenario
            and row["controller"] == cell.controller
            and row["cell"] == cell.kind
            and row.get("perturbation") == cell.perturbation
            for row in self.report.rows
        )

    def _verify_done(self, ctx: _ScenarioContext) -> bool:
        job = self._verify_jobs([ctx])[0]
        return self.store.contains(self.store.key("verify", job.cache_config()))

    def _steal(self, contexts, by_name, cells) -> None:
        """Pick up unfinished cells until none are claimable.

        The worklist is every cell this shard produced no row for --
        mostly foreign cells, plus own cells an earlier thief claimed and
        then abandoned.  Already-published cells are dropped silently
        (they belong to whichever shard computed them); rounds repeat
        while progress is made, so a cell freshly claimed by a live shard
        is skipped this round but stolen later if the claimant dies (its
        lease expires).  Students still being trained elsewhere defer a
        cell to the next round the same way.
        """

        pending = [
            (position, cell)
            for position, cell in enumerate(cells)
            if not self._has_row(cell)
        ]
        progress = True
        while pending and progress and not self._out_of_time():
            progress = False
            done: List[int] = []
            verify_steal: List[_ScenarioContext] = []
            for position, cell in pending:
                if self._out_of_time():
                    return
                ctx = by_name[cell.scenario]
                if cell.controller == "kappa_star" and ctx.student is None:
                    if not self._ensure_student(ctx, wait=False):
                        continue  # being trained elsewhere; revisit next round
                    progress = True
                if cell.kind == "evaluate":
                    if self._evaluate_cell(ctx, cell.controller, cell.perturbation, stolen=True):
                        progress = True
                        done.append(position)
                else:
                    verify_steal.append(ctx)
            if verify_steal:
                self._verify(verify_steal, stolen=True)
            remaining = [
                (position, cell)
                for position, cell in pending
                if position not in done
                and not (
                    cell.kind == "verify"
                    and by_name[cell.scenario].student is not None
                    and self._verify_done(by_name[cell.scenario])
                )
            ]
            if len(remaining) < len(pending):
                progress = True
            pending = remaining

    def _write_shard_summary(self) -> None:
        """Per-shard accounting dropped next to the store (ops + tests)."""

        root = self.store.root / "shards"
        root.mkdir(parents=True, exist_ok=True)
        path = root / f"{self.shard.index}-of-{self.shard.count}.json"
        staging = path.with_name(f".tmp-{path.name}-{os.getpid()}")
        summary = {
            "shard": str(self.shard),
            "status": self.report.status,
            "cells_computed": self.report.cells_computed,
            "cells_cached": self.report.cells_cached,
            "cells_stolen": self.report.cells_stolen,
            "cells_skipped": self.report.cells_skipped,
            "rows": len(self.report.rows),
            "elapsed_seconds": self.report.elapsed_seconds,
        }
        with staging.open("w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(staging, path)


def _null_context():
    import contextlib

    return contextlib.nullcontext()


def run_scenario_matrix(
    scenarios: Optional[Sequence[str]] = None,
    perturbations: Sequence[str] = ("none", "attack", "noise"),
    samples: int = 32,
    fraction: float = 0.1,
    train: bool = True,
    verify: bool = True,
    jobs: int = 1,
    seed: int = 0,
    budget_scale: float = 1.0,
    train_overrides: Optional[Mapping[str, object]] = None,
    verify_overrides: Optional[Mapping[str, object]] = None,
    progress: Optional[Callable[[str], None]] = None,
    store=None,
    run_dir: Optional[Union[str, Path]] = None,
    resume: bool = True,
    force: bool = False,
    on_cell: Optional[Callable[[Dict], None]] = None,
    shard: Optional[Union[str, ShardSpec]] = None,
    steal: bool = True,
    claim_lease: Optional[float] = None,
    shard_time_budget: Optional[float] = None,
    offline: bool = False,
    telemetry: Optional[bool] = None,
    telemetry_source: Optional[str] = None,
) -> ScenarioMatrixReport:
    """Run the ``(scenario x controller x perturbation)`` matrix.

    For every scenario (default: the whole catalog) the runner builds the
    plant and its default experts, optionally trains a Cocktail student
    (``train=True``) on the scenario's budget hints scaled by
    ``budget_scale``, evaluates every controller under every perturbation
    regime on the batched rollout engine, and finally fans one verification
    job per trained student across a :class:`VerificationSweep` pool of
    ``jobs`` processes.  ``train_overrides`` / ``verify_overrides`` replace
    individual budget-hint keys after scaling (the smoke harness pins tiny
    values this way).

    Scenario names may be variants (``"vanderpol?mu=1.5"``); the override
    string travels into the verification worker, which rebuilds the exact
    plant through the registry.

    ``store`` (or ``run_dir``, which opens a
    :class:`~repro.experiments.store.RunStore` there) makes the run
    resumable: every stage is keyed by the digest of its resolved config
    and flushed as soon as it completes, cells already present are loaded
    instead of recomputed (``resume=True``, the default), and ``force=True``
    recomputes and overwrites everything.  Store-backed rows carry no
    wall-clock columns -- timings live in the store entries -- so the same
    matrix always serialises to byte-identical CSV.  ``on_cell`` is invoked
    with each row right after it is appended (and, store-backed, flushed);
    an exception raised there aborts the run but loses no completed cell.

    ``shard`` (a :class:`ShardSpec` or ``"i/N"`` string; requires a store)
    restricts execution to that shard's round-robin slice of the canonical
    cell order, coordinating with sibling shards through claim files:
    ``steal=True`` (default) also picks up unfinished foreign cells --
    including cells whose worker died, once ``claim_lease`` seconds pass
    with no heartbeat -- and ``shard_time_budget`` bounds the shard's wall
    clock, leaving the remainder unclaimed with
    ``report.status == "resource-exhausted"``.  A sharded run writes a
    matrix manifest into the run directory; assemble the full CSV
    afterwards with :func:`merge_matrix_run` (``repro runs merge``).

    ``offline=True`` replays *everything* from the store and raises
    :class:`MatrixIncompleteError` if any cell is missing -- the merge
    primitive: the reassembled rows are byte-identical to a single-process
    run's because both paths serialise the same store entries in the same
    canonical order.

    ``telemetry`` controls the typed event log under ``<run_dir>/events/``
    (see :mod:`repro.telemetry`).  The default (``None``) turns it on for
    every store-backed executing run and off otherwise; ``False`` disables
    it explicitly, and ``True`` without a store (or with ``offline=True``,
    which executes nothing) is an error.  The log never influences rows,
    store entries or CSVs -- it is written beside them for ``repro runs
    watch`` / ``repro runs stats``.  ``telemetry_source`` overrides the
    event-log file name (default ``"main"`` / ``"shard-i-of-N"``); the job
    daemon uses it to give each job running against one run directory its
    own stream.
    """

    names = list(scenarios) if scenarios is not None else list_scenarios()
    if not names:
        raise ValueError("no scenarios to run; the catalog (or the requested list) is empty")
    if isinstance(shard, str):
        shard = ShardSpec.parse(shard)
    if store is None and run_dir is not None:
        from repro.experiments.store import RunStore

        store = RunStore(run_dir)
    if shard is not None and store is None:
        raise ValueError("sharded runs need a run store (pass store= or run_dir=)")
    if offline and store is None:
        raise ValueError("offline replay needs a run store (pass store= or run_dir=)")
    if offline and (force or shard is not None):
        raise ValueError("offline replay cannot be combined with force= or shard=")
    if telemetry is None:
        telemetry = store is not None and not offline
    elif telemetry:
        if store is None:
            raise ValueError("telemetry needs a run store (pass store= or run_dir=)")
        if offline:
            raise ValueError("offline replay executes nothing; there is no telemetry to record")

    claims = None
    if shard is not None:
        from repro.experiments.store import DEFAULT_CLAIM_LEASE

        lease = DEFAULT_CLAIM_LEASE if claim_lease is None else float(claim_lease)
        claims = store.claims(owner=f"shard-{shard}", lease_seconds=lease)
        write_matrix_manifest(
            store.root,
            matrix_manifest(
                scenarios=names,
                perturbations=perturbations,
                samples=samples,
                fraction=fraction,
                train=train,
                verify=verify,
                seed=seed,
                budget_scale=budget_scale,
                train_overrides=train_overrides,
                verify_overrides=verify_overrides,
            ),
        )

    if telemetry:
        # telemetry_source lets a host running many matrices against one run
        # directory (the job daemon) give each its own event-log file; the
        # default names are what `runs watch` users expect from the CLI.
        source = telemetry_source or (
            "main" if shard is None else f"shard-{shard.index}-of-{shard.count}"
        )
        tele = TelemetryEmitter(store.root, source=source)
    else:
        tele = NullTelemetryEmitter()

    execution = _MatrixExecution(
        names=names,
        perturbations=perturbations,
        samples=samples,
        fraction=fraction,
        train=train,
        verify=verify,
        jobs=jobs,
        seed=seed,
        budget_scale=budget_scale,
        train_overrides=train_overrides,
        verify_overrides=verify_overrides,
        say=progress if progress is not None else (lambda message: None),
        emit=on_cell if on_cell is not None else (lambda row: None),
        store=store,
        reuse=store is not None and resume and not force,
        force=force,
        shard=shard,
        steal=steal,
        claims=claims,
        shard_time_budget=shard_time_budget,
        offline=offline,
        tele=tele,
    )
    try:
        return execution.run()
    finally:
        tele.close()


def matrix_manifest(
    scenarios: Sequence[str],
    perturbations: Sequence[str],
    samples: int,
    fraction: float,
    train: bool,
    verify: bool,
    seed: int,
    budget_scale: float,
    train_overrides: Optional[Mapping[str, object]],
    verify_overrides: Optional[Mapping[str, object]],
) -> Dict:
    """The identity a sharded run records so the merge can replay it."""

    return {
        "scenarios": list(scenarios),
        "perturbations": list(perturbations),
        "samples": samples,
        "fraction": fraction,
        "train": train,
        "verify": verify,
        "seed": seed,
        "budget_scale": budget_scale,
        "train_overrides": dict(train_overrides or {}),
        "verify_overrides": dict(verify_overrides or {}),
    }


def merge_matrix_run(
    run_dir: Union[str, Path],
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> ScenarioMatrixReport:
    """Reassemble a sharded run into the canonical single-process report.

    Reads the matrix manifest the shards wrote into ``run_dir`` and
    replays every cell from the store in canonical order (nothing
    executes; a missing cell raises :class:`MatrixIncompleteError`).  The
    resulting report -- and its CSV -- is byte-identical to running the
    same matrix in a single process, which is what the shard regression
    pack pins.
    """

    manifest = read_matrix_manifest(run_dir)
    return run_scenario_matrix(
        scenarios=manifest["scenarios"],
        perturbations=tuple(manifest["perturbations"]),
        samples=manifest["samples"],
        fraction=manifest["fraction"],
        train=manifest["train"],
        verify=manifest["verify"],
        jobs=jobs,
        seed=manifest["seed"],
        budget_scale=manifest["budget_scale"],
        train_overrides=manifest["train_overrides"] or None,
        verify_overrides=manifest["verify_overrides"] or None,
        progress=progress,
        run_dir=run_dir,
        offline=True,
    )


def _shard_worker(index: int, count: int, run_dir: str, matrix_kwargs: Dict) -> None:
    """Worker-process body of :func:`run_sharded_matrix` (must pickle)."""

    run_scenario_matrix(shard=ShardSpec(index=index, count=count), run_dir=run_dir, **matrix_kwargs)


def run_sharded_matrix(
    shards: int,
    run_dir: Union[str, Path],
    progress: Optional[Callable[[str], None]] = None,
    merge: bool = True,
    **matrix_kwargs,
) -> ScenarioMatrixReport:
    """Fan the matrix across ``shards`` local worker processes and merge.

    Each worker runs one :class:`ShardSpec` slice against the shared
    ``run_dir`` (workers are plain non-daemonic processes, so each may
    still host its own verification pool).  Work-stealing means a straggler
    or crashed worker does not strand the grid: as long as the surviving
    workers finish, the merge succeeds; otherwise
    :class:`MatrixIncompleteError` names the missing cells and rerunning
    (resume) completes them.
    """

    from repro.utils.parallel import spawn_workers

    shards = int(shards)
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    say = progress if progress is not None else (lambda message: None)
    run_dir = Path(run_dir)
    worker_kwargs = dict(matrix_kwargs)
    worker_kwargs.pop("progress", None)
    worker_kwargs.pop("on_cell", None)
    say(f"running {shards} matrix shard(s) against {run_dir}")
    exit_codes = spawn_workers(
        _shard_worker,
        [(index, shards, str(run_dir), worker_kwargs) for index in range(1, shards + 1)],
    )
    failed = [index + 1 for index, code in enumerate(exit_codes) if code != 0]
    if failed:
        say(f"shard(s) {failed} exited abnormally; merging whatever the store holds")
    if not merge:
        report = ScenarioMatrixReport(scenarios=list(matrix_kwargs.get("scenarios") or []))
        report.status = "ok" if not failed else "error"
        return report
    return merge_matrix_run(run_dir, jobs=int(matrix_kwargs.get("jobs") or 1), progress=progress)
