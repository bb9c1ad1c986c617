"""Tests for the DDPG trainer."""

import numpy as np
import pytest
from finite_differences import numerical_gradient

from repro.nn.network import hard_update
from repro.rl.ddpg import DDPGConfig, DDPGTrainer
from repro.rl.env import ControlEnv, RewardFunction
from test_rl_ppo import PointMassEnv


class TestDDPGConfig:
    def test_invalid_episodes(self):
        with pytest.raises(ValueError):
            DDPGConfig(episodes=0)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            DDPGConfig(gamma=0.0)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            DDPGConfig(tau=2.0)


class TestDDPGMechanics:
    def _trainer(self, **overrides):
        defaults = dict(
            episodes=2,
            batch_size=32,
            warmup_steps=20,
            hidden_sizes=(16, 16),
            buffer_capacity=5000,
            seed=0,
        )
        defaults.update(overrides)
        env = PointMassEnv(horizon=20, seed=0)
        return DDPGTrainer(env, config=DDPGConfig(**defaults), rng=0)

    def test_warmup_uses_random_actions(self):
        trainer = self._trainer()
        actions = [trainer.select_action(np.zeros(1), explore=True) for _ in range(10)]
        assert np.std([a[0] for a in actions]) > 0.0

    def test_exploit_action_is_deterministic(self):
        trainer = self._trainer()
        a = trainer.select_action(np.array([0.3]), explore=False)
        b = trainer.select_action(np.array([0.3]), explore=False)
        np.testing.assert_allclose(a, b)

    def test_update_without_enough_samples_is_noop(self):
        trainer = self._trainer()
        stats = trainer.update()
        assert stats == {"critic_loss": 0.0, "actor_loss": 0.0}

    def test_update_changes_networks_and_targets(self):
        trainer = self._trainer()
        rng = np.random.default_rng(0)
        for _ in range(100):
            state = rng.uniform(-1, 1, size=1)
            action = rng.uniform(-1, 1, size=1)
            trainer.buffer.add(state, action, -float(state[0] ** 2), state + 0.2 * action, False)
        actor_before = trainer.actor.net.state_dict()
        target_before = {k: v.copy() for k, v in trainer.target_actor.net.state_dict().items()}
        stats = trainer.update()
        assert np.isfinite(stats["critic_loss"]) and np.isfinite(stats["actor_loss"])
        actor_after = trainer.actor.net.state_dict()
        assert any(not np.allclose(actor_before[k], actor_after[k]) for k in actor_before)
        target_after = trainer.target_actor.net.state_dict()
        assert any(not np.allclose(target_before[k], target_after[k]) for k in target_before)

    def test_target_initialised_from_online_networks(self):
        trainer = self._trainer()
        point = np.array([0.2])
        np.testing.assert_allclose(
            trainer.target_actor.net.predict(point), trainer.actor.net.predict(point)
        )

    def test_train_logs_episodes_and_decays_noise(self):
        trainer = self._trainer(episodes=3)
        initial_noise = trainer._noise_scale
        logger = trainer.train()
        assert logger.epochs() == 3
        assert trainer._noise_scale < initial_noise

    def test_actions_respect_bounds_during_training(self):
        trainer = self._trainer(episodes=1)
        trainer.train()
        for _ in range(20):
            action = trainer.select_action(np.array([0.5]), explore=True)
            assert np.all(np.abs(action) <= 1.0 + 1e-9)


class TestDDPGGradients:
    """The critic and actor gradients of one update against central
    differences of their losses, taken just before each optimizer steps."""

    def test_match_finite_differences(self):
        config = DDPGConfig(episodes=1, batch_size=6, hidden_sizes=(5,), max_grad_norm=1e6, seed=1)
        trainer = DDPGTrainer(PointMassEnv(seed=1), config=config, rng=1)
        rng = np.random.default_rng(2)
        states, actions = rng.uniform(-1, 1, size=(6, 1)), rng.uniform(-1, 1, size=(6, 1))
        rewards, dones = rng.normal(size=6), np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        next_states = states + 0.2 * actions
        for row in range(6):
            trainer.buffer.add(states[row], actions[row], rewards[row], next_states[row], bool(dones[row]))
        trainer.buffer.sample = lambda size: (states, actions, rewards, next_states, dones)
        next_q = trainer.target_critic.q_values(next_states, trainer.target_actor.actions(next_states))
        targets = rewards + config.gamma * (1.0 - dones) * next_q

        def critic_loss():
            return np.mean((trainer.critic.q_values(states, actions) - targets) ** 2)

        def actor_loss():
            return -np.mean(trainer.critic.q_values(states, trainer.actor.actions(states)))

        losses = []

        def checking(optimizer, loss):
            step = optimizer.apply_gradients

            def apply_gradients(grads, max_grad_norm=None):
                for parameter, grad in zip(optimizer.parameters, grads):
                    numeric = numerical_gradient(loss, parameter.data)
                    np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)
                losses.append(loss())
                step(grads, max_grad_norm)

            return apply_gradients

        trainer.critic_optimizer.apply_gradients = checking(trainer.critic_optimizer, critic_loss)
        trainer.actor_optimizer.apply_gradients = checking(trainer.actor_optimizer, actor_loss)
        stats = trainer.update()
        assert [stats["critic_loss"], stats["actor_loss"]] == pytest.approx(losses, rel=1e-12)


class TestDDPGLearning:
    def test_point_mass_improves(self):
        env = PointMassEnv(horizon=20, seed=2)
        config = DDPGConfig(
            episodes=25,
            batch_size=64,
            warmup_steps=100,
            actor_lr=1e-3,
            critic_lr=1e-3,
            exploration_noise=0.3,
            hidden_sizes=(32, 32),
            seed=2,
        )
        trainer = DDPGTrainer(env, config=config, rng=2)
        logger = trainer.train()
        returns = logger.series("episode_return")
        assert np.mean(returns[-5:]) > np.mean(returns[:5])

    def test_runs_on_vanderpol_control_env(self, vanderpol):
        env = ControlEnv(vanderpol, reward=RewardFunction(state_weight=1.0), horizon=25, rng=0)
        config = DDPGConfig(episodes=2, batch_size=32, warmup_steps=20, hidden_sizes=(16,), seed=0)
        trainer = DDPGTrainer(env, config=config, rng=0)
        logger = trainer.train()
        assert logger.epochs() == 2
