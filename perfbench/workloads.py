"""The benchmark workloads: pinned inputs, timed operations, output checks.

Every budget, width, sample count and verify parameter is written out here
literally.  Nothing is read from the scenario registry's budget hints or
from CPU-count-derived defaults to *drive* a run; the registry is read only
by :func:`input_drift` to report when the program's own defaults stopped
matching the tables below (a changed workload, not a speed-up).

Each workload exposes ``labels`` (the operations one pass issues, in
order), ``run(label, index)`` (the timed operation, through the public
functions the CLI verbs call), ``check(label, outcome)`` (untimed; raises
:class:`CheckFailed`) and ``cleanup(index)``.
"""

from __future__ import annotations

import math
import shutil
from pathlib import Path
from typing import Dict, List, Optional

SCENARIOS = ("vanderpol", "3d", "cartpole", "pendulum", "acc")
PAPER_SCENARIOS = ("vanderpol", "3d", "cartpole")

#: Vectorisation widths, pinned so the same seed trains the same controller
#: on any machine.
WIDTHS = {"num_envs": 16, "train_batch_size": 128}

#: Full-scale training budgets of every catalog scenario.
TRAIN_BUDGETS = {
    "vanderpol": dict(mixing_epochs=10, mixing_steps=1024, distill_epochs=100, dataset_size=2500, eval_samples=150),
    "3d": dict(mixing_epochs=10, mixing_steps=1024, distill_epochs=100, dataset_size=2500, eval_samples=150),
    "cartpole": dict(mixing_epochs=10, mixing_steps=1024, distill_epochs=100, dataset_size=2500, eval_samples=150),
    "pendulum": dict(mixing_epochs=3, mixing_steps=768, distill_epochs=100, dataset_size=2500, eval_samples=150),
    "acc": dict(mixing_epochs=6, mixing_steps=768, distill_epochs=100, dataset_size=2500, eval_samples=150),
}

#: The distillation trajectory fraction each scenario trains with.  The job
#: spec has no field for it, so it is compared, not passed.
TRAJECTORY_FRACTION = {"vanderpol": 0.6, "3d": 0.6, "cartpole": 0.7, "pendulum": 0.7, "acc": 0.6}

#: Verification budgets of every catalog scenario.
VERIFY_BUDGETS = {
    "vanderpol": dict(target_error=0.5, degree=3, max_partitions=4096, reach_steps=15, reach_box_scale=0.1),
    "3d": dict(target_error=0.5, degree=3, max_partitions=4096, reach_steps=15, reach_box_scale=0.1),
    "cartpole": dict(target_error=0.8, degree=2, max_partitions=2048, reach_steps=10, reach_box_scale=0.1),
    "pendulum": dict(target_error=0.5, degree=3, max_partitions=2048, reach_steps=15, reach_box_scale=0.1),
    "acc": dict(target_error=0.5, degree=3, max_partitions=2048, reach_steps=15, reach_box_scale=0.1),
}
#: Invariant-set grid per dimension.  The 4-D cartpole runs reach only: a
#: 10^4-cell grid there takes 9.7 s and 0.9 GB per op (2-CPU x86-64 box),
#: which would make one analysis of one plant most of the workload.
INVARIANT_GRID = {"vanderpol": 10, "3d": 10, "cartpole": None, "pendulum": 10, "acc": 10}

#: Lowest no-perturbation safe rate of kappa* a train op may report.  The
#: student's rate at the full catalog budget swings with the training seed
#: (vanderpol 0.65-0.99, 3d 0.51-0.83, cartpole 0.02-0.96 on the seeds
#: tried), so the floors only catch a collapsed student, never a bad seed.
SAFE_RATE_FLOORS = {"vanderpol": 0.25, "3d": 0.05, "cartpole": 0.0}

#: The scenario matrix: whole catalog, three perturbation regimes.
MATRIX = dict(
    scenarios=SCENARIOS,
    perturbations=("none", "attack", "noise"),
    samples=200,
    fraction=0.1,
    train=True,
    verify=True,
    budget_scale=0.25,
    train_overrides=dict(WIDTHS),
)
MATRIX_JOBS = 2
#: Per-shard verification processes: 2 shards x 1 keeps the fan-out at 2.
SHARD_JOBS = 1
SHARDS = 2

#: The training budgets the matrix ends up with at ``budget_scale=0.25``.
MATRIX_TRAIN_BUDGETS = {
    "vanderpol": dict(mixing_epochs=2, mixing_steps=256, distill_epochs=25, dataset_size=625, eval_samples=38),
    "3d": dict(mixing_epochs=2, mixing_steps=256, distill_epochs=25, dataset_size=625, eval_samples=38),
    "cartpole": dict(mixing_epochs=2, mixing_steps=256, distill_epochs=25, dataset_size=625, eval_samples=38),
    "pendulum": dict(mixing_epochs=1, mixing_steps=192, distill_epochs=25, dataset_size=625, eval_samples=38),
    "acc": dict(mixing_epochs=2, mixing_steps=192, distill_epochs=25, dataset_size=625, eval_samples=38),
}

#: Closed-loop trajectories sampled per verify op to check the reach boxes.
CHECK_TRAJECTORIES = 64
#: Slack allowed when comparing sampled states against a reached box.
BOX_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def train_spec(scenario: str, seed: int, output: str):
    from repro.jobs.messages import TrainJobSpec

    return TrainJobSpec(
        system=scenario,
        output=output,
        eval_batch_size=0,
        seed=seed,
        **TRAIN_BUDGETS[scenario],
        **WIDTHS,
    )


def matrix_spec(seed: int, jobs: int):
    from repro.jobs.messages import MatrixJobSpec

    return MatrixJobSpec(seed=seed, jobs=jobs, **MATRIX)


def input_drift() -> List[str]:
    """Where the program's defaults no longer match the pinned tables.

    Train and verify pass every value explicitly, except the trajectory
    fraction; the matrix takes its per-scenario budgets from the registry
    (its API has only catalog-wide overrides), so a hint edit changes what
    the matrix computes.  Each entry names one differing field.
    """

    from repro.scenarios import resolve_scenario
    from repro.scenarios.matrix import scale_budget_hints

    drift = []
    for name in SCENARIOS:
        spec, _ = resolve_scenario(name)
        hints = spec.train_budget
        if float(hints.get("trajectory_fraction", 0.6)) != TRAJECTORY_FRACTION[name]:
            drift.append(f"{name}.trajectory_fraction")
        scaled = scale_budget_hints(hints, MATRIX["budget_scale"])
        for key, value in MATRIX_TRAIN_BUDGETS[name].items():
            if scaled.get(key) != value:
                drift.append(f"{name}.matrix.{key}")
        for key, value in VERIFY_BUDGETS[name].items():
            if spec.verify_budget.get(key) != value:
                drift.append(f"{name}.verify.{key}")
    return drift


def inputs_digest(workload: str, students: Dict[str, str]) -> str:
    """Digest of one workload's definition, via ``jobs.runner.resolve_job``.

    Specs are resolved at seed 0, so the digest is the same for every
    ``--seed`` and changes only when what the workload computes changes.
    """

    from repro.experiments.digest import config_digest
    from repro.jobs.runner import resolve_job

    if workload == "train":
        identity = [resolve_job(train_spec(name, 0, "")) for name in PAPER_SCENARIOS]
    elif workload == "verify":
        identity = {
            "students": students,
            "budgets": VERIFY_BUDGETS,
            "invariant_grid": INVARIANT_GRID,
        }
    else:
        identity = resolve_job(matrix_spec(0, MATRIX_JOBS))
    return config_digest({"workload": workload, "identity": identity, "drift": input_drift()})


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class _Workload:
    labels: tuple = ()

    def __init__(self, seed: int, workdir: Path, fixtures):
        self.seed = seed
        self.workdir = workdir
        self.fixtures = fixtures

    def _opdir(self, index: int) -> Path:
        return self.workdir / f"op-{index}"

    def cleanup(self, index: int) -> None:
        shutil.rmtree(self._opdir(index), ignore_errors=True)


class TrainWorkload(_Workload):
    """``execute_train`` on each paper system at its full catalog budget.

    Each pass over the three systems trains with its own program seed,
    drawn from the workload seed, so one run's medians span several seeds.
    """

    labels = PAPER_SCENARIOS

    def program_seed(self, index: int) -> int:
        import numpy as np

        sequence = np.random.SeedSequence([self.seed, index // len(self.labels)])
        return int(sequence.generate_state(1)[0] >> 1)

    def run(self, label: str, index: int):
        from repro.jobs import runner

        output = self._opdir(index)
        payload = runner.execute_train(train_spec(label, self.program_seed(index), str(output)))
        return payload, output

    def check(self, label: str, outcome) -> None:
        import numpy as np

        from repro.utils.persistence import load_student_controller

        payload, output = outcome
        network = load_student_controller(output).network
        finite = all(np.all(np.isfinite(array)) for array in network.state_dict().values())
        _require(finite, f"{label}: kappa* has non-finite weights")
        safe_rate = payload["metrics"]["kappa_star"]["safe_rate"]
        floor = SAFE_RATE_FLOORS[label]
        _require(
            floor <= safe_rate <= 1.0, f"{label}: kappa* safe rate {safe_rate} outside [{floor}, 1]"
        )


class VerifyWorkload(_Workload):
    """``verify_controller`` on the five frozen kappa* students."""

    labels = SCENARIOS

    def run(self, label: str, index: int):
        from repro.nn.network import MLP
        from repro.verification import verifier

        # Each op stands for one `repro verify` process: a freshly built
        # network and an empty Lipschitz memo.
        arrays, architecture = self.fixtures.students[label]
        network = MLP.from_architecture(architecture)
        network.load_state_dict(arrays)
        _clear_lipschitz_memo()
        system = self.fixtures.systems[label]
        budget = VERIFY_BUDGETS[label]
        report = verifier.verify_controller(
            system,
            network,
            name=f"kappa_star@{label}",
            target_error=budget["target_error"],
            degree=budget["degree"],
            max_partitions=budget["max_partitions"],
            reach_initial_box=system.initial_set.scale(budget["reach_box_scale"]),
            reach_steps=budget["reach_steps"],
            invariant_grid=INVARIANT_GRID[label],
        )
        return report, network

    def check(self, label: str, outcome) -> None:
        import numpy as np

        report, network = outcome
        system = self.fixtures.systems[label]
        budget = VERIFY_BUDGETS[label]
        _require(
            1 <= report.num_partitions <= budget["max_partitions"],
            f"{label}: {report.num_partitions} partitions outside 1..{budget['max_partitions']}",
        )
        _require(math.isfinite(report.approximation_error), f"{label}: epsilon is not finite")
        reach = report.reachability
        _require(
            reach is not None and (report.invariant is not None) == bool(INVARIANT_GRID[label]),
            f"{label}: an analysis is missing",
        )
        boxes = reach.boxes
        safe = [system.safe_region.contains_box(box, tolerance=BOX_TOLERANCE) for box in boxes]
        if reach.status == "verified":
            _require(
                all(safe) and reach.steps_completed == budget["reach_steps"]
                and len(boxes) == budget["reach_steps"] + 1,
                f"{label}: 'verified' but a reached box leaves the safe region",
            )
        elif reach.status == "unsafe":
            _require(not safe[-1] and all(safe[:-1]), f"{label}: 'unsafe' but the boxes disagree")
        else:
            raise CheckFailed(f"{label}: unexpected reach status {reach.status!r}")
        _require(len(boxes) - 1 <= reach.steps_completed, f"{label}: more boxes than steps")
        if report.invariant is not None:
            fraction = report.invariant.volume_fraction()
            _require(0.0 <= fraction <= 1.0, f"{label}: invariant fraction {fraction} out of range")

        # Sampled closed-loop trajectories of the network itself must stay
        # inside every reached box.
        rng = np.random.default_rng([self.seed, SCENARIOS.index(label)])
        disturbance = system.disturbance.bound()
        states = boxes[0].sample(rng, count=CHECK_TRAJECTORIES)
        for step, box in enumerate(boxes[1:], start=1):
            controls = system.clip_control_batch(network.predict(states))
            noise = disturbance.sample(rng, count=CHECK_TRAJECTORIES)
            states = system.dynamics_batch(states, controls, noise)
            inside = np.all(
                (states >= box.low - BOX_TOLERANCE) & (states <= box.high + BOX_TOLERANCE)
            )
            _require(bool(inside), f"{label}: a sampled trajectory leaves reach box {step}")


class MatrixWorkload(_Workload):
    """The catalog matrix, alternating two topologies over fresh run dirs.

    ``matrix`` is ``execute_matrix`` in one process (with its 2-worker
    verification pool); ``matrix-shard2`` is ``run_sharded_matrix``: two
    shards against one run dir, then the merge.  Both must write the same
    CSV bytes, so every op's CSV is compared with the run's first one,
    which is a single-process matrix of the same seed.
    """

    labels = ("matrix", "matrix-shard2")

    def __init__(self, seed: int, workdir: Path, fixtures):
        super().__init__(seed, workdir, fixtures)
        self.first_csv: Optional[bytes] = None
        self.planned: Optional[int] = None
        self.computed_ratios: List[float] = []
        self.telemetry: List[Dict[str, float]] = []

    def _plan(self) -> int:
        if self.planned is None:
            from repro.scenarios.matrix import plan_matrix_cells

            self.planned = len(
                plan_matrix_cells(
                    MATRIX["scenarios"], MATRIX["perturbations"], MATRIX["train"], MATRIX["verify"]
                )
            )
        return self.planned

    def run(self, label: str, index: int):
        from repro.jobs import runner
        from repro.scenarios import matrix

        run_dir = self._opdir(index)
        if label == "matrix":
            report = runner.execute_matrix(
                matrix_spec(self.seed, MATRIX_JOBS), run_dir=str(run_dir), telemetry=True
            )
        else:
            kwargs = dict(MATRIX, scenarios=list(MATRIX["scenarios"]))
            report = matrix.run_sharded_matrix(
                SHARDS, str(run_dir), seed=self.seed, jobs=SHARD_JOBS, **kwargs
            )
        return report, run_dir

    def check(self, label: str, outcome) -> None:
        report, run_dir = outcome
        _require(report.status == "ok", f"{label} status {report.status!r}")
        _require(
            report.num_cells == self._plan(),
            f"{label} produced {report.num_cells} cells, the plan has {self._plan()}",
        )
        if label == "matrix":
            attempted = report.cells_computed + report.cells_cached + report.cells_skipped
            self.computed_ratios.append(report.cells_computed / max(1, attempted))
        else:
            self._read_shard_telemetry(run_dir)
        csv = report.to_csv(run_dir / "matrix.csv").read_bytes()
        if self.first_csv is None:
            self.first_csv = csv
        _require(csv == self.first_csv, f"{label} CSV differs from the run's first CSV")

    def _read_shard_telemetry(self, run_dir: Path) -> None:
        from repro.telemetry.reader import read_events

        events = read_events(run_dir)
        finished = [event for event in events if event.TYPE == "run-finished"]
        _require(len(finished) == SHARDS, f"{len(finished)} shard(s) finished, expected {SHARDS}")
        computed = sum(event.cells_computed for event in finished)
        stolen = sum(event.cells_stolen for event in finished)
        self.telemetry.append(
            {
                "cells_stolen": float(stolen),
                "heartbeats": float(sum(event.TYPE == "shard-heartbeat" for event in events)),
                "stolen_ratio": stolen / max(1, computed),
            }
        )


WORKLOADS = {
    "train": TrainWorkload,
    "verify": VerifyWorkload,
    "matrix": MatrixWorkload,
}


def _clear_lipschitz_memo() -> None:
    from repro.nn import lipschitz

    memo = getattr(lipschitz, "_LIPSCHITZ_CACHE", None)
    if memo is not None:
        memo.clear()
