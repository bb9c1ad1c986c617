"""Scenario catalog: one registry behind every dispatch layer.

A :class:`ScenarioSpec` bundles everything one control workload needs --
plant constructor + parameters, default analytic expert pair, batched
interval inclusion function, and training/verification budget hints --
behind a single name.  The systems factory
(:func:`repro.systems.make_system`), the expert factory
(:func:`repro.experts.make_default_experts`), the verifier's interval
models (:func:`repro.verification.system_models.interval_dynamics_batch`)
and the CLI ``--system`` arguments all resolve through this registry, so a
new workload is one ``register_scenario`` call instead of four hand edits.

Names support parameter-overridable variants (``"vanderpol?mu=1.5"``), and
:func:`run_scenario_matrix` fans ``(scenario x controller x perturbation)``
cells across the batched rollout and verification engines.  Importing this
package registers the built-in catalog (the paper's three systems plus the
pendulum and adaptive-cruise-control extensions).
"""

from repro.scenarios.registry import (
    ScenarioSpec,
    find_scenario,
    get_scenario,
    list_scenarios,
    make_scenario_system,
    register_scenario,
    resolve_scenario,
    scenario_specs,
    unregister_scenario,
)
from repro.scenarios import catalog  # noqa: F401  (registers the built-ins)
from repro.scenarios.matrix import (
    MatrixCell,
    MatrixIncompleteError,
    MatrixManifestError,
    ScenarioMatrixReport,
    ShardSpec,
    merge_matrix_run,
    plan_matrix_cells,
    run_scenario_matrix,
    run_sharded_matrix,
    scale_budget_hints,
)

__all__ = [
    "ScenarioSpec",
    "register_scenario",
    "unregister_scenario",
    "get_scenario",
    "find_scenario",
    "resolve_scenario",
    "list_scenarios",
    "scenario_specs",
    "make_scenario_system",
    "MatrixCell",
    "MatrixIncompleteError",
    "MatrixManifestError",
    "ScenarioMatrixReport",
    "ShardSpec",
    "merge_matrix_run",
    "plan_matrix_cells",
    "run_scenario_matrix",
    "run_sharded_matrix",
    "scale_budget_hints",
]
