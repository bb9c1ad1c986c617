"""Catalog-wide conformance of the vectorized training subsystem.

For every registered scenario, a tiny *vectorized* PPO-mixing +
distillation run must complete end to end, honour the scenario's training
budget hints (including the ``num_envs`` / ``train_batch_size``
vectorization widths), and produce a student controller that the
persistence layer -- and therefore ``repro evaluate`` -- can reload.  This
is the training-side sibling of the ``scenario_smoke`` train->evaluate->
verify cell in ``tests/test_scenarios_smoke.py`` and shares its marker so
``make scenario-smoke`` exercises both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.cocktail import CocktailPipeline
from repro.core.config import CocktailConfig
from repro.experts import make_default_experts
from repro.scenarios import get_scenario, list_scenarios
from repro.systems import make_system
from repro.utils.persistence import load_student_controller, save_cocktail_result
from repro.utils.seeding import set_global_seed

#: Tiny vectorized budgets: the assertion is that every scenario flows
#: through the vectorized trainer, not that the student is strong.
TINY_VECTORIZED = dict(
    mixing_epochs=1,
    mixing_steps=96,
    distill_epochs=5,
    dataset_size=160,
    eval_samples=8,
    num_envs=3,
    train_batch_size=24,
)


class TestBudgetHintThreading:
    def test_vectorization_hints_reach_the_configs(self):
        config = CocktailConfig.from_budget_hints(TINY_VECTORIZED, seed=0)
        assert config.mixing.num_envs == 3
        assert config.distillation.train_batch_size == 24
        assert config.mixing.ppo_config().num_envs == 3

    def test_missing_hints_fall_back_to_pinned_defaults(self):
        config = CocktailConfig.from_budget_hints({}, seed=0)
        assert config.mixing.num_envs == 16
        assert config.distillation.train_batch_size == 128

    def test_cartpole_spec_pins_explicit_widths(self):
        hints = get_scenario("cartpole").train_budget
        config = CocktailConfig.from_budget_hints(hints, seed=0)
        assert config.mixing.num_envs == hints["num_envs"]
        assert config.distillation.train_batch_size == hints["train_batch_size"]


@pytest.mark.scenario_smoke
@pytest.mark.parametrize("scenario", list_scenarios())
def test_vectorized_training_runs_and_reloads(scenario, tmp_path):
    set_global_seed(0)
    spec = get_scenario(scenario)
    system = make_system(scenario)
    experts = make_default_experts(system)

    # Tiny overrides on top of the scenario's own hints: the scenario keeps
    # scenario-specific keys (e.g. trajectory_fraction), the test pins the
    # budgets small and the vectorization widths on.
    hints = dict(spec.train_budget)
    hints.update(TINY_VECTORIZED)
    config = CocktailConfig.from_budget_hints(hints, seed=0)
    assert config.mixing.num_envs == TINY_VECTORIZED["num_envs"]
    assert config.mixing.epochs == TINY_VECTORIZED["mixing_epochs"]
    assert config.distillation.dataset_size == TINY_VECTORIZED["dataset_size"]

    result = CocktailPipeline(system, experts, config).run(include_direct_baseline=False)

    # The vectorized run respected its budget hints.
    assert len(result.dataset) == TINY_VECTORIZED["dataset_size"]
    assert result.loggers["mixing"].epochs() == TINY_VECTORIZED["mixing_epochs"]
    assert result.loggers["robust_distillation"].epochs() == TINY_VECTORIZED["distill_epochs"]

    # The student persists, reloads, and `repro evaluate` accepts it.
    directory = tmp_path / scenario
    save_cocktail_result(result, directory, record={"system": scenario})
    reloaded = load_student_controller(directory, name="kappa_star")
    state = system.initial_set.sample(np.random.default_rng(0))
    np.testing.assert_array_equal(reloaded(state), result.student(state))

    exit_code = main(
        [
            "evaluate",
            "--system", scenario,
            "--controller-dir", str(directory),
            "--controller", "kappa_star",
            "--samples", "4",
            "--seed", "0",
        ]
    )
    assert exit_code == 0
