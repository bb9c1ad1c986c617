"""Micro-benchmark: vectorized vs. scalar training-stage throughput.

``repro train`` spends its wall clock in four places: PPO mixing (rollout
collection + policy/value updates), distillation dataset generation
(teacher rollouts + teacher labelling), and the student's SGD.  This PR
vectorized the *data paths* -- rollout collection now advances ``num_envs``
mixing environments in lockstep and dataset generation rolls/labels
``train_batch_size`` samples per batched call -- while the student SGD was
already minibatched and is untouched (it bounds the end-to-end gain, see
Amdahl).  This harness therefore:

* times the **train-stage data paths** (one PPO mixing epoch's collection
  + one full dataset generation) both ways -- ``num_envs=1`` /
  ``batch_size=1``, the scalar flow preserved as the bit-identical
  batch-of-one (pinned by ``tests/test_training_determinism.py``), versus
  the pinned vectorized widths (16/128) -- and asserts the vectorized path
  keeps at least the 3x :data:`MIN_SPEEDUP` floor (observed ~5-9x on
  one core);
* times the **full pipeline** (mixing + dataset + robust distillation) at
  both widths and records it to ``results/training_speed.csv`` as context
  (no floor: the SGD share is identical in both arms).

The scalar baseline is *conservative*: it runs the historical stream
through the new batch-of-one kernels, which already avoid some of the old
per-call overhead, so the recorded speedup understates the gain over the
literal pre-PR code.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro.core.config import DistillationConfig, MixingConfig
from repro.core.distillation import RobustDistiller, collect_distillation_dataset
from repro.core.mixing import MixingTrainer
from repro.experts import make_default_experts
from repro.rl.ppo import PPOTrainer
from repro.systems import make_system
from repro.core.config import DEFAULT_NUM_ENVS, DEFAULT_TRAIN_BATCH_SIZE
from repro.utils.seeding import set_global_seed

OUTPUT_DIR = Path(__file__).resolve().parent / "results"

#: Minimum vectorized-vs-scalar speedup of the train-stage data paths.
MIN_SPEEDUP = 3.0
COLLECT_STEPS = 2048
DATASET_SIZE = 2500
DISTILL_EPOCHS = 30
SYSTEM = "vanderpol"


def _ppo_collect_seconds(system, experts, num_envs: int) -> float:
    """One PPO mixing epoch's rollout collection at the given width."""

    set_global_seed(0)
    trainer = MixingTrainer(
        system,
        experts,
        config=MixingConfig(epochs=1, steps_per_epoch=COLLECT_STEPS, num_envs=num_envs, seed=0),
        rng=0,
    )
    ppo = PPOTrainer(
        trainer.env,
        policy=trainer._build_warm_started_policy(),
        config=trainer.config.ppo_config(),
        rng=trainer._rng,
    )
    start = time.perf_counter()
    buffer = ppo.collect_rollouts(COLLECT_STEPS)
    elapsed = time.perf_counter() - start
    assert len(buffer) >= COLLECT_STEPS
    return elapsed


def _teacher(system, experts):
    """A tiny trained mixed controller to use as the distillation teacher."""

    set_global_seed(0)
    trainer = MixingTrainer(
        system,
        experts,
        config=MixingConfig(epochs=1, steps_per_epoch=256, num_envs=DEFAULT_NUM_ENVS, seed=0),
        rng=0,
    )
    return trainer.train()


def _dataset_seconds(system, teacher, batch_size: int) -> float:
    start = time.perf_counter()
    dataset = collect_distillation_dataset(
        system, teacher, size=DATASET_SIZE, trajectory_fraction=0.6, rng=0, batch_size=batch_size
    )
    elapsed = time.perf_counter() - start
    assert len(dataset) == DATASET_SIZE
    return elapsed


def _pipeline_seconds(system, experts, num_envs: int, batch_size: int) -> float:
    """Mixing + dataset + robust distillation at the given widths."""

    set_global_seed(0)
    start = time.perf_counter()
    trainer = MixingTrainer(
        system,
        experts,
        config=MixingConfig(epochs=2, steps_per_epoch=1024, num_envs=num_envs, seed=0),
        rng=0,
    )
    mixed = trainer.train()
    dataset = collect_distillation_dataset(
        system, mixed, size=DATASET_SIZE, trajectory_fraction=0.6, rng=0, batch_size=batch_size
    )
    distiller = RobustDistiller(
        system,
        config=DistillationConfig(epochs=DISTILL_EPOCHS, dataset_size=DATASET_SIZE, seed=0),
        rng=0,
    )
    distiller.distill(dataset)
    return time.perf_counter() - start


def test_training_stage_speedup():
    system = make_system(SYSTEM)
    experts = make_default_experts(system)
    num_envs = DEFAULT_NUM_ENVS
    batch_size = DEFAULT_TRAIN_BATCH_SIZE
    teacher = _teacher(system, experts)

    scalar_collect = _ppo_collect_seconds(system, experts, num_envs=1)
    vector_collect = _ppo_collect_seconds(system, experts, num_envs=num_envs)
    scalar_dataset = _dataset_seconds(system, teacher, batch_size=1)
    vector_dataset = _dataset_seconds(system, teacher, batch_size=batch_size)

    scalar_stage = scalar_collect + scalar_dataset
    vector_stage = vector_collect + vector_dataset
    stage_speedup = scalar_stage / vector_stage

    scalar_pipeline = _pipeline_seconds(system, experts, num_envs=1, batch_size=1)
    vector_pipeline = _pipeline_seconds(system, experts, num_envs=num_envs, batch_size=batch_size)
    pipeline_speedup = scalar_pipeline / vector_pipeline

    # The CSV is a committed record of the trajectory across PRs; refresh an
    # existing file only on demand (REPRO_RECORD=1) so routine test runs that
    # jitter the timings do not dirty the working tree, but always write it
    # when missing (e.g. when regenerating from scratch).
    record = os.environ.get("REPRO_RECORD", "") not in ("", "0")
    csv_path = OUTPUT_DIR / "training_speed.csv"
    if record or not csv_path.exists():
        OUTPUT_DIR.mkdir(exist_ok=True)
        csv_path.write_text(
            "stage,system,num_envs,train_batch_size,scalar_seconds,vectorized_seconds,speedup\n"
            f"ppo-collect,{SYSTEM},{num_envs},,"
            f"{scalar_collect:.6f},{vector_collect:.6f},{scalar_collect / vector_collect:.2f}\n"
            f"dataset-generation,{SYSTEM},,{batch_size},"
            f"{scalar_dataset:.6f},{vector_dataset:.6f},{scalar_dataset / vector_dataset:.2f}\n"
            f"train-data-path,{SYSTEM},{num_envs},{batch_size},"
            f"{scalar_stage:.6f},{vector_stage:.6f},{stage_speedup:.2f}\n"
            f"full-pipeline,{SYSTEM},{num_envs},{batch_size},"
            f"{scalar_pipeline:.6f},{vector_pipeline:.6f},{pipeline_speedup:.2f}\n"
        )

    print(
        f"\ntrain-stage data path: scalar {scalar_stage:.2f}s, vectorized {vector_stage:.2f}s "
        f"-> {stage_speedup:.1f}x (collect {scalar_collect / vector_collect:.1f}x, "
        f"dataset {scalar_dataset / vector_dataset:.1f}x); "
        f"full pipeline {scalar_pipeline:.2f}s -> {vector_pipeline:.2f}s "
        f"({pipeline_speedup:.1f}x, SGD-bound)"
    )
    assert stage_speedup >= MIN_SPEEDUP, (
        f"vectorized train-stage data path only {stage_speedup:.1f}x faster than scalar "
        f"(floor is {MIN_SPEEDUP}x)"
    )
    # The end-to-end pipeline must not regress either: the vectorized widths
    # have to win outright, SGD share included.
    assert pipeline_speedup > 1.2, (
        f"vectorized full pipeline not faster than scalar ({pipeline_speedup:.2f}x)"
    )


def test_vectorized_widths_are_the_pinned_defaults():
    """The benchmark exercises the same defaults ``repro train`` resolves."""

    from repro.core.config import CocktailConfig

    config = CocktailConfig.from_budget_hints({}, seed=0)
    assert config.mixing.num_envs == DEFAULT_NUM_ENVS
    assert config.distillation.train_batch_size == DEFAULT_TRAIN_BATCH_SIZE
