"""Hot-path speedup measurements and the centralized performance floors.

Each measured path repeats the scalar-vs-batched comparison its full
benchmark makes (``benchmarks/test_rollout_speed.py`` and friends) at a
reduced scale, so ``repro bench`` finishes in well under a minute while
exercising exactly the kernels the floors protect.  Timings alternate the
two arms and keep the per-arm minimum over ``repeats`` rounds, which is
robust against the scheduling noise of a loaded single-core box.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Minimum batched-vs-scalar speedup each hot path must keep.  These are
#: the single source of truth: the benchmark suite imports them, so a
#: ratchet here tightens the committed floors everywhere at once.
#: rollout was ratcheted from the original 3.0 once the rollout fast path
#: landed well clear of it.
FLOORS: Dict[str, float] = {
    "rollout": 5.0,
    "training": 3.0,
}

#: The measured hot paths, in report order.
BENCH_PATHS: Tuple[str, ...] = ("rollout", "training")

#: Committed baseline CSV (under :func:`results_dir`) per path, written by
#: the full benchmarks under ``REPRO_RECORD=1``.
BASELINE_CSVS: Dict[str, str] = {
    "rollout": "rollout_speed.csv",
    "training": "training_speed.csv",
}


def results_dir() -> Path:
    """The committed benchmark-results directory (``benchmarks/results``)."""

    return Path(__file__).resolve().parents[3] / "benchmarks" / "results"


@dataclass
class PathResult:
    """One hot path's measurement, compared against floor and baseline."""

    name: str
    #: Measured scalar/batched wall-clock ratio (higher is better).
    speedup: float
    #: The floor this path must keep (from :data:`FLOORS`).
    floor: float
    #: Speedup recorded in the committed baseline CSV, if present.
    baseline_speedup: Optional[float]
    #: Whether the measured speedup clears the floor.
    passed: bool
    #: Raw per-case timings backing the headline number.
    detail: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {
            "path": self.name,
            "speedup": round(self.speedup, 3),
            "floor": self.floor,
            "baseline_speedup": self.baseline_speedup,
            "passed": self.passed,
            "beats_baseline": (
                None if self.baseline_speedup is None else self.speedup >= self.baseline_speedup
            ),
            "detail": self.detail,
        }


@dataclass
class BenchReport:
    """All measured paths of one ``repro bench`` invocation."""

    results: List[PathResult]
    #: Wall-clock seconds the whole measurement took.
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    def result(self, name: str) -> PathResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(name)


def baseline_speedups(directory: Optional[Path] = None) -> Dict[str, Optional[float]]:
    """Headline speedup per path from the committed baseline CSVs.

    The headline row is the one each benchmark asserts its floor on: the
    *minimum* per-system rollout speedup and the ``train-data-path``
    training row.  Paths whose CSV is missing
    (e.g. a fresh clone before any ``REPRO_RECORD=1`` run) map to ``None``.
    """

    directory = results_dir() if directory is None else Path(directory)
    headline: Dict[str, Optional[float]] = {}
    for path_name, csv_name in BASELINE_CSVS.items():
        csv_path = directory / csv_name
        if not csv_path.exists():
            headline[path_name] = None
            continue
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:] if line.strip()]
        try:
            if path_name == "rollout":
                headline[path_name] = min(float(row[-1]) for row in rows)
            else:
                headline[path_name] = next(
                    float(row[-1]) for row in rows if row[0] == "train-data-path"
                )
        except (StopIteration, ValueError, IndexError):
            headline[path_name] = None
    return headline


def _ab_seconds(
    scalar: Callable[[], None], batched: Callable[[], None], repeats: int
) -> Tuple[float, float]:
    """Interleaved A/B timing: alternate the arms, keep each arm's minimum.

    Interleaving spreads slow scheduling quanta over both arms instead of
    letting one arm eat a whole noisy stretch; the minimum estimates the
    undisturbed cost.
    """

    best_scalar = best_batched = float("inf")
    for _ in range(max(1, int(repeats))):
        start = time.perf_counter()
        scalar()
        best_scalar = min(best_scalar, time.perf_counter() - start)
        start = time.perf_counter()
        batched()
        best_batched = min(best_batched, time.perf_counter() - start)
    return best_scalar, best_batched


# ----------------------------------------------------------------------
# Per-path measurements (reduced-scale mirrors of benchmarks/test_*_speed.py)
# ----------------------------------------------------------------------

def _measure_rollout(repeats: int, batch: int = 64) -> PathResult:
    from repro.experts import NeuralController
    from repro.nn.network import MLP
    from repro.systems import make_system
    from repro.systems.simulation import rollout, rollout_batch, sample_initial_states

    detail: Dict[str, Dict[str, float]] = {}
    speedups = []
    for system_name in ("vanderpol", "cartpole"):
        system = make_system(system_name)
        controller = NeuralController(
            MLP(system.state_dim, system.control_dim, hidden_sizes=(32, 32), seed=0)
        )
        initial_states = sample_initial_states(system, batch, rng=0)

        def scalar_sweep():
            generator = np.random.default_rng(0)
            for initial_state in initial_states:
                rollout(system, controller, initial_state, rng=generator)

        def batched_sweep():
            rollout_batch(system, controller, initial_states, rng=np.random.default_rng(0))

        scalar_seconds, batched_seconds = _ab_seconds(scalar_sweep, batched_sweep, repeats)
        speedup = scalar_seconds / max(batched_seconds, 1e-12)
        speedups.append(speedup)
        detail[system_name] = {
            "scalar_seconds": scalar_seconds,
            "batched_seconds": batched_seconds,
            "speedup": round(speedup, 2),
        }
    headline = min(speedups)
    return PathResult(
        name="rollout",
        speedup=headline,
        floor=FLOORS["rollout"],
        baseline_speedup=None,
        passed=headline >= FLOORS["rollout"],
        detail=detail,
    )


def _measure_training(
    repeats: int,
    collect_steps: int = 512,
    dataset_size: int = 600,
    teacher_steps: int = 128,
) -> PathResult:
    """Scale knobs exist for the ``bench_smoke`` tests; ``repro bench``
    always runs the defaults so reports stay comparable."""

    from repro.core.config import MixingConfig
    from repro.core.distillation import collect_distillation_dataset
    from repro.core.mixing import MixingTrainer
    from repro.experts import make_default_experts
    from repro.rl.ppo import PPOTrainer
    from repro.systems import make_system
    from repro.utils.parallel import default_num_envs, default_train_batch_size
    from repro.utils.seeding import set_global_seed

    system = make_system("vanderpol")
    experts = make_default_experts(system)
    num_envs = default_num_envs()
    batch_size = default_train_batch_size()

    set_global_seed(0)
    teacher = MixingTrainer(
        system,
        experts,
        config=MixingConfig(epochs=1, steps_per_epoch=teacher_steps, num_envs=num_envs, seed=0),
        rng=0,
    ).train()

    def _collect(width: int) -> None:
        set_global_seed(0)
        trainer = MixingTrainer(
            system,
            experts,
            config=MixingConfig(epochs=1, steps_per_epoch=collect_steps, num_envs=width, seed=0),
            rng=0,
        )
        ppo = PPOTrainer(
            trainer.env,
            policy=trainer._build_warm_started_policy(),
            config=trainer.config.ppo_config(),
            rng=trainer._rng,
        )
        ppo.collect_rollouts(collect_steps)

    def _dataset(width: int) -> None:
        collect_distillation_dataset(
            system, teacher, size=dataset_size, trajectory_fraction=0.6, rng=0, batch_size=width
        )

    def scalar_stage():
        _collect(1)
        _dataset(1)

    def vector_stage():
        _collect(num_envs)
        _dataset(batch_size)

    scalar_seconds, vector_seconds = _ab_seconds(scalar_stage, vector_stage, repeats)
    speedup = scalar_seconds / max(vector_seconds, 1e-12)
    return PathResult(
        name="training",
        speedup=speedup,
        floor=FLOORS["training"],
        baseline_speedup=None,
        passed=speedup >= FLOORS["training"],
        detail={
            "train-data-path": {
                "scalar_seconds": scalar_seconds,
                "vectorized_seconds": vector_seconds,
                "speedup": round(speedup, 2),
                "num_envs": num_envs,
                "train_batch_size": batch_size,
            }
        },
    )


_MEASUREMENTS: Dict[str, Callable[[int], PathResult]] = {
    "rollout": _measure_rollout,
    "training": _measure_training,
}


def run_bench(
    paths: Optional[Sequence[str]] = None,
    repeats: int = 3,
    baseline_dir: Optional[Path] = None,
) -> BenchReport:
    """Measure the requested hot paths and compare them to the baselines.

    ``paths`` defaults to all of :data:`BENCH_PATHS`; unknown names raise
    ``ValueError`` immediately rather than half-running.
    """

    selected = list(BENCH_PATHS) if paths is None else list(paths)
    unknown = [name for name in selected if name not in _MEASUREMENTS]
    if unknown:
        raise ValueError(f"unknown bench paths {unknown}: expected a subset of {BENCH_PATHS}")
    baselines = baseline_speedups(baseline_dir)
    start = time.perf_counter()
    results = []
    for name in selected:
        result = _MEASUREMENTS[name](repeats)
        result.baseline_speedup = baselines.get(name)
        results.append(result)
    return BenchReport(results=results, elapsed_seconds=time.perf_counter() - start)
