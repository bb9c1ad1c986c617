"""Tests for the adaptive-mixing step (Section III-A)."""

import numpy as np
import pytest

from repro.core.config import MixingConfig
from repro.baselines import FixedWeightEnsemble
from repro.core.mixing import AdaptiveMixingEnv, MixedController, MixingTrainer
from repro.metrics import evaluate_robustness
from repro.rl.policies import GaussianMLPPolicy


class TestMixingConfig:
    def test_weight_bound_must_allow_single_expert(self):
        with pytest.raises(ValueError):
            MixingConfig(weight_bound=0.5)

    def test_invalid_algorithm(self):
        with pytest.raises(ValueError):
            MixingConfig(algorithm="sac")

    def test_ppo_config_propagates_fields(self):
        config = MixingConfig(epochs=7, steps_per_epoch=99, objective="kl", seed=3)
        ppo = config.ppo_config()
        assert ppo.epochs == 7
        assert ppo.steps_per_epoch == 99
        assert ppo.objective == "kl"
        assert ppo.seed == 3


class TestAdaptiveMixingEnv:
    def test_action_space_is_weight_box(self, vanderpol, vanderpol_experts):
        env = AdaptiveMixingEnv(vanderpol, vanderpol_experts, weight_bound=1.5, rng=0)
        np.testing.assert_allclose(env.action_space.low, [-1.5, -1.5])
        np.testing.assert_allclose(env.action_space.high, [1.5, 1.5])

    def test_requires_two_experts(self, vanderpol, vanderpol_experts):
        with pytest.raises(ValueError):
            AdaptiveMixingEnv(vanderpol, vanderpol_experts[:1])

    def test_weight_bound_below_one_rejected(self, vanderpol, vanderpol_experts):
        with pytest.raises(ValueError):
            AdaptiveMixingEnv(vanderpol, vanderpol_experts, weight_bound=0.9)

    def test_per_expert_bounds(self, vanderpol, vanderpol_experts):
        env = AdaptiveMixingEnv(vanderpol, vanderpol_experts, weight_bound=[1.0, 2.0], rng=0)
        np.testing.assert_allclose(env.weight_bounds, [1.0, 2.0])

    def test_actions_to_controls_is_the_weighted_sum(self, vanderpol, vanderpol_experts):
        env = AdaptiveMixingEnv(vanderpol, vanderpol_experts, weight_bound=1.5, rng=0)
        states = np.array([[0.5, 0.5]])
        weights = np.array([[0.7, -0.3]])
        expected = 0.7 * vanderpol_experts[0].batch_control(states) - 0.3 * vanderpol_experts[1].batch_control(states)
        expected = np.clip(expected, -20.0, 20.0)
        control = vanderpol.clip_control_batch(env.actions_to_controls(weights, states))
        np.testing.assert_allclose(control, expected)

    def test_step_saturates_at_control_bound(self, vanderpol, vanderpol_experts):
        env = AdaptiveMixingEnv(vanderpol, vanderpol_experts, weight_bound=1.5, rng=0)
        env.reset(initial_states=np.array([[1.9, 1.9]]))  # both experts output large controls here
        _, _, _, info = env.step(np.array([[1.5, 1.5]]))
        assert np.all(np.abs(info["controls"]) <= 20.0)

    def test_weights_outside_bound_are_clipped(self, vanderpol, vanderpol_experts):
        env = AdaptiveMixingEnv(vanderpol, vanderpol_experts, weight_bound=1.0, rng=0)
        states = np.array([[0.2, 0.1]])
        inside = env.actions_to_controls(np.array([[1.0, 1.0]]), states)
        outside = env.actions_to_controls(np.array([[5.0, 5.0]]), states)
        np.testing.assert_array_equal(inside, outside)

    def test_episode_runs(self, vanderpol, vanderpol_experts):
        env = AdaptiveMixingEnv(vanderpol, vanderpol_experts, rng=0)
        env.reset(initial_states=np.array([[0.2, 0.2]]))
        for _ in range(5):
            _, rewards, dones, info = env.step(np.array([[0.5, 0.5]]))
            assert np.isfinite(rewards[0])
            if dones[0]:
                break


class TestMixedController:
    def _mixed(self, system, experts, prior=(0.5, 0.5)):
        policy = GaussianMLPPolicy(
            system.state_dim, len(experts), action_low=[-1.5] * len(experts), action_high=[1.5] * len(experts), seed=0
        )
        final = policy.mean_net.linear_layers()[-1]
        final.weight.data *= 0.0
        final.bias.data = np.asarray(prior, dtype=float)
        return MixedController(system, experts, policy, weight_bounds=[1.5] * len(experts))

    def test_weights_match_prior(self, vanderpol, vanderpol_experts):
        mixed = self._mixed(vanderpol, vanderpol_experts, prior=(0.8, 0.2))
        np.testing.assert_allclose(mixed.weights_batch(np.array([[0.3, -0.3]])), [[0.8, 0.2]])

    def test_control_matches_manual_combination(self, vanderpol, vanderpol_experts):
        mixed = self._mixed(vanderpol, vanderpol_experts, prior=(0.8, 0.2))
        states = np.array([[0.5, -0.5], [1.5, 1.5]])
        expected = np.clip(
            0.8 * vanderpol_experts[0].batch_control(states) + 0.2 * vanderpol_experts[1].batch_control(states),
            -20.0,
            20.0,
        )
        np.testing.assert_allclose(mixed.batch_control(states), expected)

    def test_weights_are_clipped_to_bounds(self, vanderpol, vanderpol_experts):
        mixed = self._mixed(vanderpol, vanderpol_experts, prior=(4.0, -4.0))
        weights = mixed.weights_batch(np.zeros((1, 2)))
        assert np.all(np.abs(weights) <= 1.5)

    def test_num_parameters_counts_policy(self, vanderpol, vanderpol_experts):
        mixed = self._mixed(vanderpol, vanderpol_experts)
        assert mixed.num_parameters() > 0

    def test_uniform_mixture_reference(self, vanderpol, vanderpol_experts):
        # The no-learning reference: the fixed ensemble at its default equal weights.
        mixture = FixedWeightEnsemble(vanderpol, vanderpol_experts)
        states = np.array([[0.2, 0.3]])
        expected = 0.5 * (vanderpol_experts[0].batch_control(states) + vanderpol_experts[1].batch_control(states))
        np.testing.assert_allclose(mixture.batch_control(states), np.clip(expected, -20, 20))


class TestMixingTrainer:
    def test_short_ppo_training_produces_safe_mixture(self, vanderpol, vanderpol_experts):
        config = MixingConfig(epochs=2, steps_per_epoch=256, seed=0)
        trainer = MixingTrainer(vanderpol, vanderpol_experts, config=config, rng=0)
        mixed = trainer.train()
        assert isinstance(mixed, MixedController)
        # Thanks to the warm start, even a tiny training budget keeps the
        # mixed controller near the uniform mixture and thus reasonably safe.
        assert evaluate_robustness(vanderpol, mixed, samples=60, rng=1).safe_rate > 0.6
        assert trainer.logger is not None and trainer.logger.epochs() == 2

    def test_warm_start_prior_defaults_to_uniform(self, vanderpol, vanderpol_experts):
        trainer = MixingTrainer(vanderpol, vanderpol_experts, config=MixingConfig(seed=0), rng=0)
        np.testing.assert_allclose(trainer._initial_weight_prior(), [0.5, 0.5])

    def test_warm_start_prior_custom(self, vanderpol, vanderpol_experts):
        config = MixingConfig(initial_weights=[1.0, 0.0], seed=0)
        trainer = MixingTrainer(vanderpol, vanderpol_experts, config=config, rng=0)
        np.testing.assert_allclose(trainer._initial_weight_prior(), [1.0, 0.0])

    def test_warm_start_prior_validation(self, vanderpol, vanderpol_experts):
        config = MixingConfig(initial_weights=[1.0, 0.0, 0.5], seed=0)
        trainer = MixingTrainer(vanderpol, vanderpol_experts, config=config, rng=0)
        with pytest.raises(ValueError):
            trainer._initial_weight_prior()

    def test_warm_started_policy_outputs_prior(self, vanderpol, vanderpol_experts):
        trainer = MixingTrainer(vanderpol, vanderpol_experts, config=MixingConfig(seed=0), rng=0)
        policy = trainer._build_warm_started_policy()
        weights = policy.mean_actions(np.array([[0.7, -0.7]]))
        np.testing.assert_allclose(weights, [[0.5, 0.5]], atol=0.05)

    def test_ddpg_algorithm_path(self, vanderpol, vanderpol_experts):
        config = MixingConfig(algorithm="ddpg", epochs=1, seed=0)
        trainer = MixingTrainer(vanderpol, vanderpol_experts, config=config, rng=0)
        mixed = trainer.train(epochs=1)
        assert isinstance(mixed, MixedController)
        control = mixed.batch_control(np.array([[0.1, 0.1]]))
        assert control.shape == (1, 1)
