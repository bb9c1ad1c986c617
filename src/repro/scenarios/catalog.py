"""The built-in scenario catalog.

Registers the paper's three test systems (Section IV) plus the two
extension scenarios that prove the registry end-to-end: the inverted
pendulum and the 3-state adaptive-cruise-control plant.  Each entry bundles
the plant constructor, the analytic expert pair, the batched interval
inclusion function and the per-scenario budget hints, so the systems
factory, the expert factory, the verifier and the CLI all resolve through
one table.

Importing :mod:`repro.scenarios` registers everything below; user code adds
its own workloads with :func:`repro.scenarios.register_scenario` (see
``docs/scenarios.md`` for a walkthrough).
"""

from __future__ import annotations

from repro.experts.factory import (
    acc_experts,
    cartpole_experts,
    pendulum_experts,
    three_dimensional_experts,
    vanderpol_experts,
)
from repro.scenarios.registry import ScenarioSpec, register_scenario
from repro.systems.acc import AdaptiveCruiseControl
from repro.systems.cartpole import CartPole
from repro.systems.linear3d import ThreeDimensionalSystem
from repro.systems.pendulum import InvertedPendulum
from repro.systems.vanderpol import VanDerPolOscillator
from repro.verification.system_models import (
    acc_interval,
    cartpole_interval,
    pendulum_interval,
    three_dimensional_interval,
    vanderpol_interval,
)

register_scenario(
    ScenarioSpec(
        name="vanderpol",
        description="Van der Pol oscillator, control on the velocity state (paper system 1)",
        system_factory=VanDerPolOscillator,
        expert_factory=vanderpol_experts,
        interval_dynamics=vanderpol_interval,
        aliases=("oscillator",),
        # The historical CLI default budgets.  Training vectorization
        # widths (``num_envs``/``train_batch_size``) are left unset: they
        # fall back to the pinned defaults of :mod:`repro.core.config`;
        # pass ``--num-envs 1 --train-batch-size 1`` for the historical
        # scalar stream.
        train_budget=dict(
            mixing_epochs=10,
            mixing_steps=1024,
            distill_epochs=100,
            dataset_size=2500,
            trajectory_fraction=0.6,
            eval_samples=150,
        ),
        verify_budget=dict(
            target_error=0.5, degree=3, max_partitions=4096, reach_steps=15, reach_box_scale=0.1
        ),
        tags=("paper",),
    )
)

register_scenario(
    ScenarioSpec(
        name="3d",
        description="3-D polynomial system of Sassi et al. (paper system 2)",
        system_factory=ThreeDimensionalSystem,
        expert_factory=three_dimensional_experts,
        interval_dynamics=three_dimensional_interval,
        aliases=("three_dimensional",),
        # The historical CLI default budgets (vectorization widths default
        # to repro.utils.parallel, see the vanderpol note).
        train_budget=dict(
            mixing_epochs=10,
            mixing_steps=1024,
            distill_epochs=100,
            dataset_size=2500,
            trajectory_fraction=0.6,
            eval_samples=150,
        ),
        verify_budget=dict(
            target_error=0.5, degree=3, max_partitions=4096, reach_steps=15, reach_box_scale=0.1
        ),
        tags=("paper",),
    )
)

register_scenario(
    ScenarioSpec(
        name="cartpole",
        description="Continuous-force cartpole balancing task (paper system 3)",
        system_factory=CartPole,
        expert_factory=cartpole_experts,
        interval_dynamics=cartpole_interval,
        train_budget=dict(
            mixing_epochs=10,
            mixing_steps=1024,
            distill_epochs=100,
            dataset_size=2500,
            trajectory_fraction=0.7,
            eval_samples=150,
            # Cartpole episodes die fast early in training, so a wide
            # lockstep batch keeps the PPO collection loop busy; this also
            # exercises the explicit-hint path of the vectorized trainer
            # (the other specs inherit the same pinned defaults).
            num_envs=16,
            train_batch_size=128,
        ),
        # The 4-D state makes Bernstein partitioning the most expensive of
        # the catalog: keep the degree low and the error target generous.
        verify_budget=dict(
            target_error=0.8, degree=2, max_partitions=2048, reach_steps=10, reach_box_scale=0.1
        ),
        tags=("paper",),
    )
)

register_scenario(
    ScenarioSpec(
        name="pendulum",
        description="Inverted pendulum about the upright equilibrium (catalog extension)",
        system_factory=InvertedPendulum,
        expert_factory=pendulum_experts,
        interval_dynamics=pendulum_interval,
        aliases=("inverted_pendulum",),
        # A short mixing run keeps the warm-started policy near the uniform
        # mixture (long quick-scale PPO drifts on this unstable plant; cf.
        # the cartpole note in benchmarks/conftest.py), and the higher
        # trajectory fraction concentrates distillation on the operating
        # distribution -- together they take the quick-scale student from
        # ~65% to 100% safe.
        train_budget=dict(
            mixing_epochs=3,
            mixing_steps=768,
            distill_epochs=100,
            dataset_size=2500,
            trajectory_fraction=0.7,
            eval_samples=150,
        ),
        verify_budget=dict(
            target_error=0.5, degree=3, max_partitions=2048, reach_steps=15, reach_box_scale=0.1
        ),
        tags=("extension",),
    )
)

register_scenario(
    ScenarioSpec(
        name="acc",
        description="Adaptive cruise control: gap error / relative velocity / ego acceleration",
        system_factory=AdaptiveCruiseControl,
        expert_factory=acc_experts,
        interval_dynamics=acc_interval,
        aliases=("cruise", "adaptive_cruise_control"),
        train_budget=dict(
            mixing_epochs=6,
            mixing_steps=768,
            distill_epochs=100,
            dataset_size=2500,
            trajectory_fraction=0.6,
            eval_samples=150,
        ),
        verify_budget=dict(
            target_error=0.5, degree=3, max_partitions=2048, reach_steps=15, reach_box_scale=0.1
        ),
        tags=("extension",),
    )
)
