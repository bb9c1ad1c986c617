"""Tests for the scenario registry: specs, resolution, variants, rewiring."""

import numpy as np
import pytest

from repro.experts import make_default_experts
from repro.scenarios import (
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
from repro.systems import AdaptiveCruiseControl, InvertedPendulum, make_system
from repro.systems.sets import Box
from repro.systems.vanderpol import VanDerPolOscillator


class TestCatalog:
    def test_builtins_registered(self):
        names = list_scenarios()
        for expected in ("vanderpol", "3d", "cartpole", "pendulum", "acc"):
            assert expected in names
        assert len(names) >= 5

    def test_specs_align_with_names(self):
        assert [spec.name for spec in scenario_specs()] == list_scenarios()

    def test_aliases_resolve(self):
        assert get_scenario("oscillator") is get_scenario("vanderpol")
        assert get_scenario("inverted_pendulum") is get_scenario("pendulum")
        assert get_scenario("cruise") is get_scenario("acc")

    def test_case_insensitive(self):
        assert get_scenario("VanDerPol") is get_scenario("vanderpol")

    def test_every_spec_is_complete(self):
        for spec in scenario_specs():
            assert spec.expert_factory is not None
            assert spec.interval_dynamics is not None
            assert spec.description
            system = spec.make_system()
            assert system.name == spec.name or find_scenario(system.name) is spec


class TestResolution:
    def test_unknown_scenario_lists_catalog(self):
        with pytest.raises(ValueError, match="vanderpol"):
            get_scenario("quadrotor")

    def test_find_scenario_returns_none(self):
        assert find_scenario("quadrotor") is None
        assert find_scenario(None) is None
        assert find_scenario("") is None

    def test_variant_overrides_parsed(self):
        spec, overrides = resolve_scenario("vanderpol?mu=1.5&horizon=50")
        assert spec.name == "vanderpol"
        assert overrides == {"mu": 1.5, "horizon": 50}

    def test_variant_bad_override_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            resolve_scenario("vanderpol?mu")

    def test_make_scenario_system_variant(self):
        system = make_scenario_system("vanderpol?mu=1.5")
        assert isinstance(system, VanDerPolOscillator)
        assert system.mu == 1.5

    def test_kwargs_win_over_variant(self):
        system = make_scenario_system("vanderpol?mu=1.5", mu=2.0)
        assert system.mu == 2.0


class TestMakeSystem:
    def test_make_system_goes_through_registry(self):
        assert isinstance(make_system("pendulum"), InvertedPendulum)
        assert isinstance(make_system("acc"), AdaptiveCruiseControl)
        assert isinstance(make_system("oscillator"), VanDerPolOscillator)

    def test_make_system_variant(self):
        assert make_system("vanderpol?mu=1.25").mu == 1.25

    def test_make_system_unknown_raises(self):
        with pytest.raises(ValueError):
            make_system("quadrotor")


class TestRegistration:
    def test_register_and_unregister_custom_scenario(self):
        spec = ScenarioSpec(
            name="test-double-integrator",
            description="registry round-trip test plant",
            system_factory=lambda **kwargs: VanDerPolOscillator(**kwargs),
            expert_factory=lambda system: make_default_experts(VanDerPolOscillator()),
            aliases=("test-di",),
        )
        register_scenario(spec)
        try:
            assert "test-double-integrator" in list_scenarios()
            assert get_scenario("test-di") is spec
            with pytest.raises(ValueError, match="already registered"):
                register_scenario(spec)
        finally:
            unregister_scenario("test-double-integrator")
        assert find_scenario("test-double-integrator") is None
        assert find_scenario("test-di") is None

    def test_unregister_unknown_raises(self):
        with pytest.raises(ValueError):
            unregister_scenario("never-registered")

    def test_overwrite_retires_dropped_aliases(self):
        first = ScenarioSpec(
            name="test-overwrite",
            description="v1",
            system_factory=VanDerPolOscillator,
            aliases=("test-ow-old",),
        )
        register_scenario(first)
        try:
            replacement = ScenarioSpec(
                name="test-overwrite",
                description="v2",
                system_factory=VanDerPolOscillator,
                aliases=("test-ow-new",),
            )
            register_scenario(replacement, overwrite=True)
            assert get_scenario("test-overwrite").description == "v2"
            assert get_scenario("test-ow-new") is get_scenario("test-overwrite")
            assert find_scenario("test-ow-old") is None  # dropped alias stops resolving
        finally:
            unregister_scenario("test-overwrite")

    def test_overwrite_wins_over_shadowing_alias(self):
        # "oscillator" is an alias of vanderpol; an explicit overwrite
        # registration under that name must become reachable.
        spec = ScenarioSpec(
            name="oscillator",
            description="standalone oscillator scenario",
            system_factory=VanDerPolOscillator,
        )
        register_scenario(spec, overwrite=True)
        try:
            assert get_scenario("oscillator") is spec
        finally:
            unregister_scenario("oscillator")
            # re-registering vanderpol restores its aliases for the suite
            register_scenario(get_scenario("vanderpol"), overwrite=True)
        assert get_scenario("oscillator").name == "vanderpol"

    def test_alias_collision_leaves_registry_untouched(self):
        # "oscillator" is already an alias of vanderpol: registration must
        # fail atomically, without leaving the name or earlier aliases behind.
        spec = ScenarioSpec(
            name="test-collider",
            description="alias collision probe",
            system_factory=VanDerPolOscillator,
            aliases=("test-fresh-alias", "oscillator"),
        )
        with pytest.raises(ValueError, match="oscillator"):
            register_scenario(spec)
        assert find_scenario("test-collider") is None
        assert find_scenario("test-fresh-alias") is None
        assert get_scenario("oscillator").name == "vanderpol"


class TestExpertFactoryRewiring:
    @pytest.mark.parametrize("name", ["pendulum", "acc"])
    def test_new_scenarios_get_expert_pairs(self, name):
        system = make_system(name)
        experts = make_default_experts(system)
        assert len(experts) == 2
        assert [expert.name for expert in experts] == ["kappa1", "kappa2"]
        for expert in experts:
            output = expert.batch_control(system.initial_set.center[None, :])
            assert output.shape == (1, system.control_dim)
            batched = expert.batch_control(np.stack([system.initial_set.center] * 3))
            assert batched.shape == (3, system.control_dim)

    def test_unregistered_system_raises_with_hint(self):
        class Custom:
            name = "custom"

        with pytest.raises(ValueError, match="register a scenario"):
            make_default_experts(Custom())


class TestBudgetHints:
    def test_config_from_budget_hints(self):
        from repro.core.config import CocktailConfig

        spec = get_scenario("pendulum")
        config = CocktailConfig.from_budget_hints(spec.train_budget, seed=7)
        assert config.mixing.epochs == spec.train_budget["mixing_epochs"]
        assert config.distillation.dataset_size == spec.train_budget["dataset_size"]
        assert config.evaluation.samples == spec.train_budget["eval_samples"]
        assert config.seed == 7

    def test_config_from_empty_hints_uses_defaults(self):
        from repro.core.config import CocktailConfig

        config = CocktailConfig.from_budget_hints({}, seed=0)
        assert config.mixing.epochs > 0
        assert config.distillation.dataset_size > 0

    def test_verify_budget_keys_match_sweep_job(self):
        from repro.verification.sweep import SweepJob
        import dataclasses

        field_names = {f.name for f in dataclasses.fields(SweepJob)}
        for spec in scenario_specs():
            assert set(spec.verify_budget) <= field_names


class TestMissingInclusionFunction:
    def test_unregistered_plant_raises_a_typed_error(self):
        from repro.verification.intervals import Interval
        from repro.verification.system_models import MissingInclusionFunction, interval_dynamics_batch

        class Anonymous(VanDerPolOscillator):
            name = "anon-plant-inclusion-probe"

        system = Anonymous()
        state = Interval(np.zeros((1, 2)), np.full((1, 2), 0.1))
        control = Interval([[-1.0]], [[1.0]])
        disturbance = Interval([-0.05], [0.05])
        with pytest.raises(MissingInclusionFunction, match="anon-plant-inclusion-probe") as raised:
            interval_dynamics_batch(system, state, control, disturbance)
        assert "register_scenario(..., interval_dynamics=...)" in str(raised.value)
        assert isinstance(raised.value, LookupError)


class TestNewPlants:
    def test_pendulum_shapes_and_sets(self):
        system = InvertedPendulum()
        assert system.state_dim == 2 and system.control_dim == 1
        assert system.safe_region.contains_box(system.initial_set)
        states = system.initial_set.center[None, :]
        nxt = system.dynamics_batch(states, np.zeros((1, 1)), np.zeros((1, 1)))
        assert nxt.shape == (1, 2)

    def test_pendulum_gravity_destabilises_open_loop(self):
        system = InvertedPendulum()
        states = np.array([[0.5, 0.0], [-0.5, 0.0]])
        for _ in range(40):
            states = system.dynamics_batch(states, np.zeros((2, 1)), np.zeros((2, 1)))
        assert np.all(np.abs(states[:, 0]) > 0.5)  # falls away from upright without control

    def test_acc_shapes_and_sets(self):
        system = AdaptiveCruiseControl()
        assert system.state_dim == 3 and system.control_dim == 1
        assert system.safe_region.contains_box(system.initial_set)
        assert isinstance(system.safe_region, Box)

    def test_acc_lag_tracks_command(self):
        system = AdaptiveCruiseControl(lag=0.5, dt=0.1)
        states = np.zeros((2, 3))
        commands = np.array([[1.0], [-0.5]])
        for _ in range(60):
            states = system.dynamics_batch(states, commands, np.zeros((2, 1)))
        np.testing.assert_allclose(states[:, 2], commands[:, 0], atol=1e-4)  # a converges to u

    def test_acc_rejects_nonpositive_lag(self):
        with pytest.raises(ValueError):
            AdaptiveCruiseControl(lag=0.0)
