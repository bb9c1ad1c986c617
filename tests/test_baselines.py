"""Tests for the switching-adaptation and fixed-ensemble baselines."""

import numpy as np
import pytest

from repro.baselines import (
    FixedWeightEnsemble,
    SwitchingController,
    SwitchingEnv,
    SwitchingTrainer,
    distill_fixed_ensemble,
)
from repro.core.config import DistillationConfig, MixingConfig
from repro.experts import make_default_experts
from repro.metrics import evaluate_robustness
from repro.rl.policies import CategoricalMLPPolicy
from repro.systems import make_system
from repro.systems.simulation import rollout_batch


class TestSwitchingEnv:
    def test_action_space_size(self, vanderpol, vanderpol_experts):
        env = SwitchingEnv(vanderpol, vanderpol_experts, rng=0)
        assert env.action_space.n == 2

    def test_requires_two_experts(self, vanderpol, vanderpol_experts):
        with pytest.raises(ValueError):
            SwitchingEnv(vanderpol, vanderpol_experts[:1])

    def test_action_selects_single_expert(self, vanderpol, vanderpol_experts):
        env = SwitchingEnv(vanderpol, vanderpol_experts, rng=0)
        states = np.array([[0.4, -0.4], [0.4, -0.4]])
        controls = env.actions_to_controls(np.array([[0.0], [1.0]]), states)
        np.testing.assert_array_equal(controls[:1], vanderpol_experts[0].batch_control(states[:1]))
        np.testing.assert_array_equal(controls[1:], vanderpol_experts[1].batch_control(states[1:]))

    def test_out_of_range_action_clamped(self, vanderpol, vanderpol_experts):
        env = SwitchingEnv(vanderpol, vanderpol_experts, rng=0)
        states = np.array([[0.1, 0.1], [0.1, 0.1]])
        controls = env.actions_to_controls(np.array([[7.0], [-3.0]]), states)
        np.testing.assert_array_equal(controls[:1], vanderpol_experts[1].batch_control(states[:1]))
        np.testing.assert_array_equal(controls[1:], vanderpol_experts[0].batch_control(states[1:]))

    def test_episode_runs(self, vanderpol, vanderpol_experts):
        env = SwitchingEnv(vanderpol, vanderpol_experts, rng=0)
        env.reset(initial_states=np.array([[0.2, 0.2]]))
        _, rewards, dones, _ = env.step(np.array([0]))
        assert np.isfinite(rewards[0])
        assert dones.shape == (1,) and dones.dtype == bool


class TestSwitchingController:
    def _controller(self, system, experts):
        policy = CategoricalMLPPolicy(system.state_dim, len(experts), hidden_sizes=(8,), seed=0)
        return SwitchingController(system, experts, policy)

    def test_control_matches_selected_expert(self, vanderpol, vanderpol_experts):
        controller = self._controller(vanderpol, vanderpol_experts)
        states = np.array([[0.3, 0.3]])
        index = controller.switching_profile(states)[0]
        np.testing.assert_allclose(
            controller.batch_control(states), np.clip(vanderpol_experts[index].batch_control(states), -20, 20)
        )

    @pytest.mark.parametrize("name", ["vanderpol", "3d", "cartpole"])
    def test_batch_control_rows_equal_control(self, name):
        system = make_system(name)
        controller = self._controller(system, make_default_experts(system))
        states = system.initial_set.sample(np.random.default_rng(3), count=200)
        batched = controller.batch_control(states)
        assert batched.shape == (200, system.control_dim)
        profile = controller.switching_profile(states)
        assert profile.tolist() == [controller.switching_profile(state)[0] for state in states]
        # Bit for bit, each row is its expert's one call on the gathered rows;
        # a multi-row linear kernel rounds differently from a one-row call on
        # some rows, so against row-by-row calls the rows agree to rounding.
        for index, expert in enumerate(controller.experts):
            rows = profile == index
            np.testing.assert_array_equal(
                batched[rows], system.clip_control_batch(expert.batch_control(states[rows]))
            )
        one_row = np.concatenate([controller.batch_control(states[i : i + 1]) for i in range(len(states))])
        np.testing.assert_allclose(batched, one_row, rtol=1e-14, atol=0.0)

    def test_batched_rollout_takes_one_policy_pass_per_step(self, vanderpol, vanderpol_experts):
        controller = self._controller(vanderpol, vanderpol_experts)
        passes = []
        act_batch = controller.policy.act_batch

        def counting_act_batch(states, **kwargs):
            passes.append(len(states))
            return act_batch(states, **kwargs)

        controller.policy.act_batch = counting_act_batch
        states = vanderpol.initial_set.sample(np.random.default_rng(0), count=8) * 0.5
        batch = rollout_batch(vanderpol, controller, states, horizon=5, rng=0)
        assert np.all(batch.steps == 5)
        assert passes == [8] * 5

    def test_switching_profile_indices_valid(self, vanderpol, vanderpol_experts):
        controller = self._controller(vanderpol, vanderpol_experts)
        states = vanderpol.initial_set.sample(np.random.default_rng(0), count=20)
        profile = controller.switching_profile(states)
        assert profile.shape == (20,)
        assert set(np.unique(profile)) <= {0, 1}

    def test_action_space_is_subset_of_mixing(self, vanderpol, vanderpol_experts):
        """The formal argument of Proposition 1: every switching action is a
        feasible mixing action (a one-hot weight vector inside the box)."""

        from repro.core.mixing import AdaptiveMixingEnv

        mixing_env = AdaptiveMixingEnv(vanderpol, vanderpol_experts, weight_bound=1.5, rng=0)
        switching_env = SwitchingEnv(vanderpol, vanderpol_experts, rng=0)
        count = len(vanderpol_experts)
        states = np.tile([0.4, -0.2], (count, 1))
        switching = switching_env.actions_to_controls(np.arange(count, dtype=float)[:, None], states)
        mixing = mixing_env.actions_to_controls(np.eye(count), states)
        np.testing.assert_allclose(vanderpol.clip_control_batch(mixing), vanderpol.clip_control_batch(switching))


class TestSwitchingTrainer:
    def test_short_training_produces_controller(self, vanderpol, vanderpol_experts):
        config = MixingConfig(epochs=2, steps_per_epoch=256, seed=0)
        trainer = SwitchingTrainer(vanderpol, vanderpol_experts, config=config, rng=0)
        controller = trainer.train()
        assert isinstance(controller, SwitchingController)
        assert trainer.logger is not None and trainer.logger.epochs() == 2
        rate = evaluate_robustness(vanderpol, controller, samples=40, rng=1).safe_rate
        assert 0.0 <= rate <= 1.0


class TestFixedEnsemble:
    def test_control_is_convex_combination(self, vanderpol, vanderpol_experts):
        ensemble = FixedWeightEnsemble(vanderpol, vanderpol_experts, weights=[0.25, 0.75])
        states = np.array([[0.2, 0.4], [-1.5, 2.0]])
        expected = 0.25 * vanderpol_experts[0].batch_control(states) + 0.75 * vanderpol_experts[1].batch_control(states)
        np.testing.assert_allclose(ensemble.batch_control(states), np.clip(expected, -20, 20))

    def test_default_weights_uniform(self, vanderpol, vanderpol_experts):
        ensemble = FixedWeightEnsemble(vanderpol, vanderpol_experts)
        np.testing.assert_allclose(ensemble.weights, [0.5, 0.5])

    def test_weights_must_be_convex(self, vanderpol, vanderpol_experts):
        with pytest.raises(ValueError):
            FixedWeightEnsemble(vanderpol, vanderpol_experts, weights=[0.9, 0.9])
        with pytest.raises(ValueError):
            FixedWeightEnsemble(vanderpol, vanderpol_experts, weights=[-0.5, 1.5])

    def test_requires_two_experts(self, vanderpol, vanderpol_experts):
        with pytest.raises(ValueError):
            FixedWeightEnsemble(vanderpol, vanderpol_experts[:1])

    def test_distill_fixed_ensemble(self, vanderpol, vanderpol_experts):
        config = DistillationConfig(hidden_sizes=(8,), epochs=10, dataset_size=200, seed=0)
        student = distill_fixed_ensemble(vanderpol, vanderpol_experts, config=config, rng=0)
        assert student.name == "fixed-ensemble-student"
        assert student.batch_control(np.array([[0.1, 0.1]])).shape == (1, 1)
