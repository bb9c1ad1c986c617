"""Reproduction of "Cocktail: Learn a Better Neural Network Controller from
Multiple Experts via Adaptive Mixing and Robust Distillation" (DAC 2021).

The public API mirrors the paper's workflow::

    from repro import (
        make_system, make_default_experts, CocktailConfig, CocktailPipeline,
        evaluate_controllers,
    )

    system = make_system("vanderpol")
    experts = make_default_experts(system)
    result = CocktailPipeline(system, experts, CocktailConfig.fast()).run()
    metrics = evaluate_controllers(system, result.controllers(), samples=100)

Plants are resolved through the scenario catalog (:mod:`repro.scenarios`):
``make_system`` accepts any registered scenario name -- the paper's three
systems plus the catalog extensions -- including parameter-overridable
variants such as ``"vanderpol?mu=1.5"``, and ``register_scenario`` wires a
new workload into the factories, the verifier and the CLI at once.

See README.md for install/quickstart, docs/architecture.md for the module
map (including the batched Monte-Carlo rollout engine that all metrics run
on) and docs/scenarios.md for the scenario catalog; the ``benchmarks/``
harnesses regenerate the paper's tables and figures.
"""

from repro.core import (
    CocktailConfig,
    CocktailPipeline,
    CocktailResult,
    DirectDistiller,
    DistillationConfig,
    EvaluationConfig,
    MixedController,
    MixingConfig,
    MixingTrainer,
    RobustDistiller,
)
from repro.experiments import RunStore, config_digest
from repro.experts import Controller, make_default_experts
from repro.metrics import evaluate_controllers
from repro.scenarios import (
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_scenario_matrix,
)
from repro.systems import (
    AdaptiveCruiseControl,
    Box,
    CartPole,
    ControlSystem,
    InvertedPendulum,
    ThreeDimensionalSystem,
    VanDerPolOscillator,
    make_system,
)
from repro.utils import set_global_seed

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # systems
    "Box",
    "ControlSystem",
    "VanDerPolOscillator",
    "ThreeDimensionalSystem",
    "CartPole",
    "InvertedPendulum",
    "AdaptiveCruiseControl",
    "make_system",
    # scenarios
    "ScenarioSpec",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "run_scenario_matrix",
    # experiments
    "RunStore",
    "config_digest",
    # experts
    "Controller",
    "make_default_experts",
    # core framework
    "CocktailConfig",
    "MixingConfig",
    "DistillationConfig",
    "EvaluationConfig",
    "CocktailPipeline",
    "CocktailResult",
    "MixingTrainer",
    "MixedController",
    "RobustDistiller",
    "DirectDistiller",
    # evaluation
    "evaluate_controllers",
    # utilities
    "set_global_seed",
]
