"""Cross-scenario matrix runner: ``(scenario x controller x perturbation)``.

The ROADMAP's scenario-diversity goal is operationally a *matrix*: every
registered scenario crossed with every controller of interest and every
perturbation regime, each cell a Monte-Carlo evaluation on the batched
rollout engine, plus one verification job per trained student.
:func:`run_scenario_matrix` expands and runs that matrix and returns a
:class:`ScenarioMatrixReport` whose ``to_csv`` emits one flat row per cell
-- the cross-scenario CSV the CLI's ``repro scenarios run`` writes.

Per-scenario budgets come from each spec's ``train_budget`` /
``verify_budget`` hints; ``budget_scale`` shrinks the integer training
knobs uniformly (the ``make scenario-smoke`` target runs the whole catalog
at a tiny scale this way).

Execution
---------
The matrix is a DAG: ``train(s) -> {evaluate(s, kappa_star, p)..., verify(s)}``,
and the expert evaluate cells depend on nothing.  ``jobs`` workers of one
fork process pool run it: the trainings go first, longest budget first,
then the expert evaluate cells, and a scenario's kappa* cells jump the
queue as soon as its student lands.  Every task seeds itself
(``set_global_seed`` plus its config for training, ``rng=seed`` for
evaluation), so the schedule never changes a number.  Tasks are pure
compute; the parent alone writes the run store and the telemetry log and
calls ``on_cell``, and the rows are sorted into the canonical
:func:`plan_matrix_cells` order before the report is returned.
``jobs <= 1`` runs the same schedule inline.  A lost pool worker raises
:class:`~repro.utils.parallel.WorkerLost` naming the lost cells, after
every finished cell was recorded.

Every run goes through a :class:`~repro.experiments.store.RunStore`: the
caller's (``store=``/``run_dir=``), or a temporary one removed when the
run ends.  Every stage -- the kappa* training, each evaluation cell, each
verification job -- is keyed by the digest of its resolved config and
flushed to the store as soon as it completes, and every row is read back
from what was stored.  Against a kept run directory the matrix is
therefore *incremental*: an interrupted sweep rerun against it executes
only the missing cells, and a fully warmed store answers the whole
matrix from disk.  Rows are deterministic (wall-clock timings stay in the
telemetry log, not in the rows), so the CSV has one schema and is
byte-identical whether the run was fresh, resumed, pooled or merged.

Sharding
--------
A :class:`ShardSpec` (``"i/N"``) gives each of N shards a disjoint slice
of the grid, and each shard runs ``run_scenario_matrix(..., shard=...)``
against a *shared* run directory -- on one host via
:func:`run_sharded_matrix` worker processes, or across hosts via
``repro scenarios run --shard i/N``.  Ownership is dealt so that shards
never wait on each other (see :meth:`ShardSpec.owned`): a student's
training, its kappa* evaluate cells and its verify cell belong to one
shard, so every student is trained exactly once, and the expert evaluate
cells are dealt after them, snake-wise.  A shard-level wall-clock budget mirrors the
sweep's ``resource-exhausted`` semantics: on exhaustion the shard stops
starting cells and a later run of the same shard resumes them.

:func:`merge_matrix_run` then replays the whole grid from the store
(``offline=True``: nothing may execute) and reassembles the rows in
canonical order -- producing a CSV byte-identical to a single-process run,
regardless of shard count or completion order.

Telemetry
---------
Runs against a caller's run store additionally append a typed event log
under ``<run_dir>/events/`` (see :mod:`repro.telemetry`): every counter
increment in the report pairs with exactly one ``cell-finished`` /
``cell-cached`` event, plus run lifecycle, heartbeat, stage-timing and
sweep-job events -- which is what ``repro runs watch`` tails live and
``repro runs stats`` aggregates.  All wall-clock timings live *only* in
that log; store entries and rows stay deterministic, so enabling telemetry
cannot perturb the byte-identical CSV guarantee.  Offline replays (the
merge) execute nothing and therefore emit nothing.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.cocktail import CocktailPipeline
from repro.core.config import CocktailConfig
from repro.experiments.digest import network_weights_digest
from repro.experiments.store import RunStore
from repro.experts.base import NeuralController
from repro.metrics.robustness import evaluate_robustness
from repro.scenarios.registry import list_scenarios, resolve_scenario
from repro.telemetry.emitter import NullTelemetryEmitter, TelemetryEmitter
from repro.telemetry.events import (
    CellCached,
    CellFinished,
    CellStarted,
    RunFinished,
    RunStarted,
    StageTiming,
    SweepJobFinished,
)
from repro.utils.parallel import TaskExecutor, default_worker_count
from repro.utils.seeding import set_global_seed
from repro.utils.tables import write_records_csv

if TYPE_CHECKING:  # the job layer is imported lazily: `import repro` must not load it
    from repro.jobs.messages import MatrixJobSpec

#: Non-deterministic keys stripped from verification rows.
_TIMING_KEYS = ("total_seconds", "reach_seconds", "invariant_seconds")

#: The training-budget keys that scale with ``budget_scale``.
_SCALABLE_HINTS = ("mixing_epochs", "mixing_steps", "distill_epochs", "dataset_size", "eval_samples")

#: Manifest file a sharded run writes into its run directory so that
#: ``repro runs merge`` can replay the exact same grid.
MANIFEST_FILE = "matrix.json"

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

    Ownership deals numbered *units* like cards in a snake (:meth:`owns`),
    and :meth:`owned` maps the canonical cells (:func:`plan_matrix_cells`)
    to units.  Every unit is owned by exactly one shard, shards are
    pairwise disjoint, their union is exhaustive, and unit counts differ by
    at most one.
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

    def owns(self, unit: int) -> bool:
        """Whether the unit numbered ``unit`` belongs to this shard.

        Round ``unit // count`` deals shards ``1..N`` when even and ``N..1``
        when odd.  The first units are the students, whose chains (training,
        kappa* evaluations, verification) outweigh any single expert cell,
        and the snake keeps one shard from collecting every round's first.
        """

        round_, seat = divmod(unit, self.count)
        if round_ % 2:
            seat = self.count - 1 - seat
        return seat == self.index - 1

    def owned(self, cells: Sequence["MatrixCell"]) -> List[int]:
        """Positions in ``cells`` (a canonical plan) that this shard runs.

        The dealing rule numbers the units in a fixed order: first one unit
        per trained student, in scenario order -- its training, its
        kappa_star evaluate cells and its verify cell travel together --
        then one unit per expert evaluate cell, in plan order.  Every
        student is therefore trained by exactly one shard, and no shard
        needs a result another shard computes.  On a grid without students
        the units are the plan positions themselves.
        """

        students: Dict[str, int] = {}
        for cell in cells:
            if cell.controller == "kappa_star":
                students.setdefault(cell.scenario, len(students))
        positions = []
        expert_unit = len(students)
        for position, cell in enumerate(cells):
            if cell.controller == "kappa_star":
                unit = students[cell.scenario]
            else:
                unit, expert_unit = expert_unit, expert_unit + 1
            if self.owns(unit):
                positions.append(position)
        return positions

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

    The executor enumerates identically and :meth:`ShardSpec.owned` deals
    this list, so the plan is the shard protocol's single source of truth.
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
            "run the remaining shards (or rerun an interrupted shard against the same "
            "--run-dir) before merging"
        )


class MatrixManifestError(ValueError):
    """A run directory's matrix manifest does not decode to a matrix spec."""


@dataclass
class ScenarioMatrixReport:
    """Flat per-cell records of one matrix run."""

    rows: List[Dict] = field(default_factory=list)
    scenarios: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: Stage executions vs run-store replays.
    cells_computed: int = 0
    cells_cached: int = 0
    #: Owned cells left unrun because ``shard_time_budget`` expired.
    cells_skipped: int = 0
    #: ``"resource-exhausted"`` when a shard wall-clock budget expired.
    status: str = "ok"
    shard: Optional[str] = None

    @property
    def num_cells(self) -> int:
        return len(self.rows)

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write one row per matrix cell (union of all keys) to ``path``."""

        return write_records_csv(path, self.rows)

    def table(self) -> str:
        """Aligned text table of the matrix (one line per cell + a footer)."""

        header = (
            f"{'scenario':12s} {'controller':12s} {'cell':10s} {'perturb':8s} "
            f"{'Sr':>7s} {'energy':>9s} {'verdict':>12s}"
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
                f"{str(verdict):>12s}"
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


# -- tasks -------------------------------------------------------------


@dataclass
class _ScenarioContext:
    """Resolved per-scenario state shared by planning and execution."""

    name: str
    spec: object
    params: Dict
    system: object
    experts: Dict[str, object]
    controller_names: List[str]
    student: Optional[NeuralController] = None


#: Scenario contexts of the running matrix, by name.  The pool forks after
#: they are built, so workers inherit the plants and experts instead of
#: unpickling them; tasks take a scenario name and look it up here.
_CONTEXTS: Dict[str, _ScenarioContext] = {}


def _network(state: Tuple[Dict, Dict]):
    from repro.nn.network import MLP

    architecture, weights = state
    network = MLP.from_architecture(architecture)
    network.load_state_dict(weights)
    return network


def _train_task(name: str, config: CocktailConfig, seed: int) -> Dict:
    """Train one scenario's kappa*; returns its weights and stage seconds."""

    ctx = _CONTEXTS[name]
    start = time.perf_counter()
    set_global_seed(seed)
    result = CocktailPipeline(ctx.system, list(ctx.experts.values()), config).run(
        include_direct_baseline=False
    )
    network = result.student.network
    return {
        "network": (network.architecture(), network.state_dict()),
        "experts": [expert.name for expert in result.experts],
        "dataset_size": len(result.dataset),
        "stage_seconds": dict(result.stage_seconds),
        "seconds": time.perf_counter() - start,
    }


def _evaluate_task(
    name: str,
    controller: str,
    perturbation: str,
    samples: int,
    fraction: float,
    seed: int,
    student: Optional[Tuple[Dict, Dict]] = None,
) -> Dict:
    """One Monte-Carlo evaluation cell; ``student`` is kappa*'s
    ``(architecture, weights)``."""

    ctx = _CONTEXTS[name]
    if controller == "kappa_star":
        policy = NeuralController(_network(student), name="kappa_star")
    else:
        policy = ctx.experts[controller]
    start = time.perf_counter()
    outcome = evaluate_robustness(
        ctx.system,
        policy,
        perturbation=perturbation,
        fraction=fraction,
        samples=samples,
        rng=seed,
    )
    return {
        "safe_rate": outcome.safe_rate,
        "mean_energy": outcome.mean_energy,
        "samples": outcome.samples,
        "seconds": time.perf_counter() - start,
    }


def _verify_task(job):
    """One verification job (looked up at call time, so tests can count it)."""

    from repro.verification import sweep

    return sweep.run_sweep_job(job)


@dataclass
class _Work:
    """One task call plus the parent-side step that records its outcome."""

    identity: Dict[str, Optional[str]]
    fn: Callable
    args: Tuple
    finish: Callable[[object], None]

    @property
    def label(self) -> str:
        identity = self.identity
        label = f"{identity['cell']} {identity['scenario']}:{identity['controller']}"
        if identity.get("perturbation"):
            label += f":{identity['perturbation']}"
        return label


def _row_position(cells: Sequence[MatrixCell]) -> Callable[[Dict], int]:
    """Sort key putting rows into the canonical :func:`plan_matrix_cells` order."""

    position = {
        (cell.scenario, cell.controller, cell.kind, cell.perturbation): index
        for index, cell in reversed(list(enumerate(cells)))
    }
    return lambda row: position[
        (row["scenario"], row["controller"], row["cell"], row.get("perturbation"))
    ]


# -- execution ---------------------------------------------------------


class _MatrixExecution:
    """One ``run_scenario_matrix`` invocation (kept in a class for state).

    The parent alone touches the run store, the telemetry log and
    ``on_cell``; tasks are pure compute.  Every width runs the same DAG
    schedule on one :class:`~repro.utils.parallel.TaskExecutor`; at
    ``jobs <= 1`` it runs the tasks inline.
    """

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
            if self.spec.train:
                controller_names.append("kappa_star")
            contexts.append(
                _ScenarioContext(
                    name=name,
                    spec=spec,
                    params=params,
                    system=system,
                    experts=experts,
                    controller_names=controller_names,
                )
            )
        return contexts

    def _record(self, row: Dict) -> None:
        self.report.rows.append(row)
        self.emit(row)

    def _work(self, cell: MatrixCell) -> Optional[_Work]:
        """The task for ``cell``; None when the store answers it (or lacks it)."""

        ctx = _CONTEXTS[cell.scenario]
        if cell.kind == "train":
            return self._train_work(ctx)
        if cell.controller == "kappa_star" and ctx.student is None:
            return None  # offline replay without a stored student: reported missing
        if cell.kind == "evaluate":
            return self._evaluate_work(ctx, cell.controller, cell.perturbation)
        return self._verify_work(ctx)

    # -- student (kappa_star) ------------------------------------------
    def _train_config(self, ctx: _ScenarioContext) -> Tuple[CocktailConfig, Dict]:
        hints = scale_budget_hints(ctx.spec.train_budget, self.spec.budget_scale)
        hints.update(self.spec.train_overrides)
        return CocktailConfig.from_budget_hints(hints, seed=self.spec.seed), hints

    def _train_work(self, ctx: _ScenarioContext) -> Optional[_Work]:
        """Restore kappa* from the store, or the task that trains it.

        The key includes ``direct_baseline``: the CLI's train command
        produces kappa_d + record.json under the same budgets, and must never
        restore a matrix entry without them.
        """

        config, hints = self._train_config(ctx)
        key = self.store.key(
            "train",
            {
                "system": ctx.spec.name,
                "params": ctx.params,
                "cocktail": config,
                "seed": self.spec.seed,
                "direct_baseline": False,
            },
        )
        if self.reuse and self.store.contains(key):
            network = self.store.load_network(key, "kappa_star")
            ctx.student = NeuralController(network, name="kappa_star")
            self.report.cells_cached += 1
            self.tele.emit(CellCached, scenario=ctx.name, controller="kappa_star", cell="train")
            self.say(f"[{ctx.name}] kappa_star restored from the run store")
            return None
        if self.offline:
            self.missing.append(f"train/{key.digest[:16]} ({ctx.name})")
            return None

        def finish(outcome: Dict) -> None:
            network = _network(outcome["network"])
            self.store.save(
                key,
                {"experts": outcome["experts"], "dataset_size": outcome["dataset_size"]},
                networks={"kappa_star": network},
            )
            self.report.cells_computed += 1
            for stage, seconds in outcome["stage_seconds"].items():
                self.tele.emit(StageTiming, scenario=ctx.name, stage=stage, seconds=seconds)
            self.tele.emit(
                CellFinished,
                scenario=ctx.name,
                controller="kappa_star",
                cell="train",
                seconds=outcome["seconds"],
            )
            ctx.student = NeuralController(network, name="kappa_star")

        self.say(
            f"[{ctx.name}] training kappa_star ({hints.get('mixing_epochs', '?')} mixing epochs)"
        )
        return _Work(
            identity={"scenario": ctx.name, "controller": "kappa_star", "cell": "train"},
            fn=_train_task,
            args=(ctx.name, config, self.spec.seed),
            finish=finish,
        )

    # -- evaluate cells ------------------------------------------------
    def _evaluate_work(
        self, ctx: _ScenarioContext, controller_name: str, perturbation: str
    ) -> Optional[_Work]:
        identity = {
            "scenario": ctx.name,
            "controller": controller_name,
            "cell": "evaluate",
            "perturbation": perturbation,
        }

        def row_of(payload: Dict) -> Dict:
            return {
                **identity,
                "safe_rate": payload["safe_rate"],
                "mean_energy": payload["mean_energy"],
                "samples": payload["samples"],
            }

        student = None
        if controller_name == "kappa_star":
            network = ctx.student.network
            student = (network.architecture(), network.state_dict())
        controller = ctx.student if student is not None else ctx.experts[controller_name]
        key = self.store.key(
            "evaluate",
            {
                "system": ctx.spec.name,
                "params": ctx.params,
                "controller": _controller_identity(controller_name, controller),
                "perturbation": perturbation,
                "samples": self.spec.samples,
                "fraction": self.spec.fraction,
                "seed": self.spec.seed,
            },
        )
        if self.reuse and self.store.contains(key):
            payload = self.store.load_result(key)
            self.report.cells_cached += 1
            self.tele.emit(CellCached, **identity)
            self._record(row_of(payload))
            return None
        if self.offline:
            self.missing.append(
                f"evaluate/{key.digest[:16]} ({ctx.name}:{controller_name}:{perturbation})"
            )
            return None

        def finish(outcome: Dict) -> None:
            seconds = outcome.pop("seconds")
            self.tele.emit(CellFinished, seconds=seconds, safe_rate=outcome["safe_rate"], **identity)
            self.store.save(key, outcome)
            self.report.cells_computed += 1
            self._record(row_of(self.store.load_result(key)))

        return _Work(
            identity=identity,
            fn=_evaluate_task,
            args=(
                ctx.name,
                controller_name,
                perturbation,
                self.spec.samples,
                self.spec.fraction,
                self.spec.seed,
                student,
            ),
            finish=finish,
        )

    # -- verify cells --------------------------------------------------
    def _verify_work(self, ctx: _ScenarioContext) -> Optional[_Work]:
        from repro.verification.sweep import (
            SweepJob,
            is_cacheable,
            load_cached_result,
            save_sweep_result,
            scenario_budgets,
        )

        job = SweepJob.from_network(
            name=f"kappa_star@{ctx.name}",
            system=ctx.name,
            network=ctx.student.network,
            **scenario_budgets(ctx.name, **self.spec.verify_overrides),
        )
        identity = {"scenario": ctx.name, "controller": "kappa_star", "cell": "verify"}
        key = self.store.key("verify", job.cache_config())
        if self.reuse and self.store.contains(key):
            result = load_cached_result(self.store, key, job)
            self.report.cells_cached += 1
            self.tele.emit(CellCached, **identity)
            self._finish_verify(result)
            return None
        if self.offline:
            self.missing.append(f"verify/{key.digest[:16]} ({ctx.name})")
            return None

        def finish(result) -> None:
            if is_cacheable(result, job.time_budget_seconds):
                save_sweep_result(self.store, key, result)
            self.report.cells_computed += 1
            self._finish_verify(result)

        return _Work(identity=identity, fn=_verify_task, args=(job,), finish=finish)

    def _finish_verify(self, result) -> None:
        scenario = result.system
        self.tele.emit(
            SweepJobFinished,
            job=result.name,
            system=result.system,
            status=result.status,
            seconds=result.elapsed_seconds,
            cached=result.cached,
            verified=result.verified,
        )
        if not result.cached:
            self.tele.emit(
                CellFinished,
                scenario=scenario,
                controller="kappa_star",
                cell="verify",
                seconds=result.elapsed_seconds,
                status=result.status,
            )
        row = {"scenario": scenario, "controller": "kappa_star", "cell": "verify", "status": result.status}
        if result.error:
            row["error"] = result.error
        summary = dict(result.summary)
        summary.pop("controller", None)  # the row's controller column is the matrix name
        for key in _TIMING_KEYS:
            summary.pop(key, None)
        # Fresh summaries arrive in insertion order, replayed ones in
        # JSON-sorted order; sort both so the CSV header -- and with it the
        # whole file -- is byte-stable across resumed runs.
        row.update({key: summary[key] for key in sorted(summary)})
        self._record(row)

    # -- main flow -----------------------------------------------------
    def _telemetry_counters(self) -> Dict[str, int]:
        """Heartbeat payload: the report's counters (read-only snapshot)."""

        report = self.report
        return {
            "cells_done": report.cells_computed + report.cells_cached,
            "cells_computed": report.cells_computed,
            "cells_cached": report.cells_cached,
            "cells_skipped": report.cells_skipped,
        }

    def run(self) -> ScenarioMatrixReport:
        global _CONTEXTS

        contexts = self._contexts()
        cells = _enumerate_cells(
            [(ctx.name, ctx.controller_names) for ctx in contexts],
            self.spec.perturbations,
            include_verify=self.spec.train and self.spec.verify,
        )
        owned = cells if self.shard is None else [cells[p] for p in self.shard.owned(cells)]
        self.tele.emit(
            RunStarted,
            scenarios=tuple(self.names),
            cells_total=len(cells),
            cells_owned=len(owned),
            pid=os.getpid(),
        )
        previous, _CONTEXTS = _CONTEXTS, {ctx.name: ctx for ctx in contexts}
        try:
            with self.tele.heartbeats(self._telemetry_counters):
                self._execute(owned)
        finally:
            _CONTEXTS = previous

        if self.offline and self.missing:
            raise MatrixIncompleteError(self.missing)

        self.report.rows.sort(key=_row_position(cells))
        self.report.cells_skipped = len(owned) - len(self.report.rows)
        self.report.elapsed_seconds = time.perf_counter() - self.start
        # RunFinished.cells_stolen keeps its default 0 (the repository benchmark reads it).
        self.tele.emit(
            RunFinished,
            status=self.report.status,
            cells_computed=self.report.cells_computed,
            cells_cached=self.report.cells_cached,
            cells_skipped=self.report.cells_skipped,
            rows=len(self.report.rows),
            seconds=self.report.elapsed_seconds,
        )
        if self.shard is not None:
            self._write_shard_summary()
        return self.report

    def _execute(self, owned: Sequence[MatrixCell]) -> None:
        """Run the owned cells and the trainings they depend on.

        Trains go first, longest budget first, then the expert evaluate
        cells; a student's evaluate and verify cells jump the queue when it
        lands.  The executor keeps one task beyond ``width`` in flight, so
        ``CellStarted`` marks a cell as handed to it, not yet necessarily
        running.
        """

        students: Dict[str, List[MatrixCell]] = {}
        for cell in owned:
            if cell.controller == "kappa_star":
                students.setdefault(cell.scenario, []).append(cell)
        trains = [MatrixCell("train", name, "kappa_star") for name in students]
        width = self.spec.jobs if self.spec.jobs else default_worker_count()
        width = 0 if self.offline else min(width, len(owned) + len(trains))
        self.say(
            f"running {len(owned)} cell(s) and {len(trains)} training(s) "
            f"across {max(1, width)} process(es)"
        )

        def budget(cell: MatrixCell) -> Tuple[int, int]:
            config = self._train_config(_CONTEXTS[cell.scenario])[0]
            return (
                config.mixing.epochs * config.mixing.steps_per_epoch,
                config.distillation.epochs * config.distillation.dataset_size,
            )

        ready = deque(sorted(trains, key=budget, reverse=True))
        ready.extend(cell for cell in owned if cell.controller != "kappa_star")
        running: Dict[str, _Work] = {}

        def deliver(label: str, outcome) -> None:
            work = running.pop(label)
            work.finish(outcome)
            if work.identity["cell"] == "train":
                ready.extendleft(reversed(students[work.identity["scenario"]]))

        with TaskExecutor(width if width > 1 else 0, deliver) as executor:
            while True:
                while ready and not executor.full and not self._out_of_time():
                    cell = ready.popleft()
                    work = self._work(cell)
                    if work is None:
                        if cell.kind == "train" and _CONTEXTS[cell.scenario].student is not None:
                            ready.extendleft(reversed(students[cell.scenario]))
                        continue
                    executor.submit(work.label, work.fn, *work.args)
                    self.tele.emit(CellStarted, **work.identity)
                    running[work.label] = work
                if not running:
                    break
                executor.wait()

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
            "cells_skipped": self.report.cells_skipped,
            "rows": len(self.report.rows),
            "elapsed_seconds": self.report.elapsed_seconds,
        }
        with staging.open("w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(staging, path)


def run_scenario_matrix(
    spec: "MatrixJobSpec",
    *,
    store=None,
    run_dir: Optional[Union[str, Path]] = None,
    force: bool = False,
    shard: Optional[Union[str, ShardSpec]] = None,
    shard_time_budget: Optional[float] = None,
    offline: bool = False,
    telemetry: Optional[bool] = None,
    progress: Optional[Callable[[str], None]] = None,
    on_cell: Optional[Callable[[Dict], None]] = None,
) -> ScenarioMatrixReport:
    """Run the ``(scenario x controller x perturbation)`` matrix ``spec``.

    The :class:`~repro.jobs.messages.MatrixJobSpec` is the matrix's whole
    identity; every keyword here is execution context.  For every scenario
    (an empty ``spec.scenarios``: the whole catalog) the runner builds the
    plant and its default experts, optionally trains a Cocktail student
    (``spec.train``) on the scenario's budget hints scaled by
    ``spec.budget_scale``, evaluates every controller under every
    perturbation regime on the batched rollout engine, and verifies every
    trained student.  ``spec.jobs`` is the width of the process pool that
    runs all of these cells (``0``: one worker per CPU; ``1``: inline, no
    pool); results do not depend on it.  ``spec.train_overrides`` /
    ``spec.verify_overrides`` replace individual budget-hint keys after
    scaling (the smoke harness pins tiny values this way).

    Scenario names may be variants (``"vanderpol?mu=1.5"``); the override
    string travels into the verification worker, which rebuilds the exact
    plant through the registry.

    Every stage is keyed by the digest of its resolved config and flushed
    to a :class:`~repro.experiments.store.RunStore` as soon as it
    completes: ``store``, or one opened at ``run_dir``, or else a temporary
    store removed when the run returns or raises.  Cells already present
    are loaded instead of recomputed, so a rerun against the same store
    resumes; ``force=True`` recomputes and overwrites everything.  Rows
    carry no wall-clock columns -- timings live in the telemetry log -- so
    the same matrix always serialises to byte-identical CSV.  ``on_cell``
    is invoked with each row right after it is flushed and appended; an
    exception raised there aborts the run but loses no completed cell.

    ``shard`` (a :class:`ShardSpec` or ``"i/N"`` string; requires a store)
    restricts execution to that shard's slice of the grid
    (:meth:`ShardSpec.owned`); shards share nothing but the store and never
    wait on each other.  ``shard_time_budget`` bounds the shard's wall
    clock: on expiry it starts no further cell, counts the rest as
    ``cells_skipped`` and reports ``status == "resource-exhausted"``; a
    rerun of the same shard resumes them.  A sharded run writes a
    matrix manifest into the run directory; assemble the full CSV
    afterwards with :func:`merge_matrix_run` (``repro runs merge``).

    ``offline=True`` replays *everything* from the store and raises
    :class:`MatrixIncompleteError` if any cell is missing -- the merge
    primitive: the reassembled rows are byte-identical to a single-process
    run's because both paths serialise the same store entries in the same
    canonical order.

    ``telemetry`` controls the typed event log under ``<run_dir>/events/``
    (see :mod:`repro.telemetry`).  The default (``None``) turns it on for
    every executing run against a caller's store and off otherwise (the
    temporary store never gets one); ``False`` disables it explicitly, and
    ``True`` without a store (or with ``offline=True``, which executes
    nothing) is an error.  The log never influences rows, store entries or
    CSVs -- it is written beside them for ``repro runs watch`` / ``repro
    runs stats``, as ``events/main.jsonl`` (``events/shard-i-of-N.jsonl``
    for a shard).
    """

    manifest = matrix_manifest(spec)
    names = manifest["scenarios"]
    if not names:
        raise ValueError("no scenarios to run; the catalog is empty")
    if isinstance(shard, str):
        shard = ShardSpec.parse(shard)
    if offline and (force or shard is not None):
        raise ValueError("offline replay cannot be combined with force= or shard=")
    scratch = None
    if store or run_dir is not None:
        store = store or RunStore(run_dir)
        if offline and telemetry:
            raise ValueError("offline replay executes nothing; there is no telemetry to record")
        if telemetry is None:
            telemetry = not offline
    else:
        for wanted, what in (
            (shard is not None, "sharded runs need"),
            (offline, "offline replay needs"),
            (telemetry, "telemetry needs"),
        ):
            if wanted:
                raise ValueError(f"{what} a run store (pass store= or run_dir=)")
        scratch = tempfile.TemporaryDirectory(prefix="repro-matrix-")
        store, telemetry = RunStore(scratch.name), False

    if shard is not None:
        write_matrix_manifest(store.root, manifest)

    if telemetry:
        source = "main" if shard is None else f"shard-{shard.index}-of-{shard.count}"
        tele = TelemetryEmitter(store.root, source=source)
    else:
        tele = NullTelemetryEmitter()

    execution = _MatrixExecution(
        spec=spec,
        names=names,
        say=progress if progress is not None else (lambda message: None),
        emit=on_cell if on_cell is not None else (lambda row: None),
        store=store,
        reuse=not force,
        shard=shard,
        shard_time_budget=shard_time_budget,
        offline=offline,
        tele=tele,
    )
    try:
        return execution.run()
    finally:
        tele.close()
        if scratch is not None:
            scratch.cleanup()


def matrix_manifest(spec: "MatrixJobSpec") -> Dict:
    """The matrix identity: ``spec``'s fields, minus the pool width.

    A sharded run records it so the merge can replay the same grid, and it
    is the resolved config a matrix job's digest is taken over.  An empty
    ``spec.scenarios`` is spelled out as the catalog it stands for.
    """

    manifest = {
        key: dict(value) if isinstance(value, dict) else value
        for key, value in spec.to_json().items()
        if key not in ("type", "version", "jobs")
    }
    manifest["scenarios"] = manifest["scenarios"] or list_scenarios()
    return manifest


def merge_matrix_run(
    run_dir: Union[str, Path],
    progress: Optional[Callable[[str], None]] = None,
) -> ScenarioMatrixReport:
    """Reassemble a sharded run into the canonical single-process report.

    Reads the matrix manifest the shards wrote into ``run_dir`` and
    replays every cell from the store in canonical order (nothing
    executes; a missing cell raises :class:`MatrixIncompleteError`, a
    manifest that is not a matrix spec :class:`MatrixManifestError`).  The
    resulting report -- and its CSV -- is byte-identical to running the
    same matrix in a single process, which is what the shard regression
    pack pins.
    """

    from repro.jobs.messages import MatrixJobSpec
    from repro.utils.messages import MessageValidationError

    path = Path(run_dir) / MANIFEST_FILE
    try:
        manifest = read_matrix_manifest(run_dir)
    except json.JSONDecodeError as error:
        raise MatrixManifestError(f"{path} is not valid JSON: {error}")
    if not isinstance(manifest, dict):
        raise MatrixManifestError(
            f"{path} is not a matrix manifest: expected a JSON object, "
            f"got {type(manifest).__name__}"
        )
    try:
        spec = MatrixJobSpec.from_json(manifest)
    except MessageValidationError as error:
        raise MatrixManifestError(f"{path} does not describe a matrix this version runs: {error}")
    return run_scenario_matrix(spec, run_dir=run_dir, offline=True, progress=progress)


def _shard_worker(index: int, count: int, run_dir: str, spec: "MatrixJobSpec") -> None:
    """Worker-process body of :func:`run_sharded_matrix` (must pickle)."""

    run_scenario_matrix(spec, run_dir=run_dir, shard=ShardSpec(index=index, count=count))


def run_sharded_matrix(
    shards: int,
    run_dir: Union[str, Path],
    progress: Optional[Callable[[str], None]] = None,
    **matrix_kwargs,
) -> ScenarioMatrixReport:
    """Run ``shards`` local ``--shard i/N`` processes against one store, then merge.

    ``matrix_kwargs`` are the :class:`~repro.jobs.messages.MatrixJobSpec`
    fields of the grid.  The single-host stand-in for N hosts: each worker
    runs one :class:`ShardSpec` slice against the shared ``run_dir``
    (workers are plain non-daemonic processes, so each may host its own
    pool when ``jobs > 1``).  A crashed worker leaves its unfinished cells
    missing: the merge then raises :class:`MatrixIncompleteError` naming
    them, and rerunning against the same ``run_dir`` completes them.
    """

    from repro.jobs.messages import MatrixJobSpec
    from repro.utils.parallel import spawn_workers

    shards = int(shards)
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    spec = MatrixJobSpec(**matrix_kwargs)
    say = progress if progress is not None else (lambda message: None)
    run_dir = Path(run_dir)
    say(f"running {shards} matrix shard(s) against {run_dir}")
    exit_codes = spawn_workers(
        _shard_worker,
        [(index, shards, str(run_dir), spec) for index in range(1, shards + 1)],
    )
    failed = [index + 1 for index, code in enumerate(exit_codes) if code != 0]
    if failed:
        say(f"shard(s) {failed} exited abnormally; merging whatever the store holds")
    return merge_matrix_run(run_dir, progress=progress)
