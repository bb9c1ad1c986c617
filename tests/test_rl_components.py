"""Tests for spaces, buffers, GAE and the environment wrapper."""

import numpy as np
import pytest

from repro.rl.buffers import ReplayBuffer, RolloutBuffer
from repro.rl.env import ControlEnv, RewardFunction
from repro.rl.gae import compute_gae
from repro.rl.spaces import BoxSpace, DiscreteSpace


class TestSpaces:
    def test_box_space_sample_and_contains(self):
        space = BoxSpace([-1, 0], [1, 2])
        rng = np.random.default_rng(0)
        for _ in range(50):
            sample = space.sample(rng)
            assert space.contains(sample)
        assert not space.contains([2.0, 0.0])

    def test_box_space_scalar_bounds(self):
        space = BoxSpace(-2.0, 2.0, dimension=3)
        assert space.dimension == 3
        np.testing.assert_allclose(space.low, [-2, -2, -2])

    def test_box_space_validation(self):
        with pytest.raises(ValueError):
            BoxSpace([1.0], [0.0])
        with pytest.raises(ValueError):
            BoxSpace(0.0, 1.0)  # scalar without dimension

    def test_discrete_space(self):
        space = DiscreteSpace(4)
        rng = np.random.default_rng(0)
        samples = {space.sample(rng) for _ in range(100)}
        assert samples <= {0, 1, 2, 3}
        assert space.contains(3)
        assert not space.contains(4)

    def test_discrete_space_validation(self):
        with pytest.raises(ValueError):
            DiscreteSpace(0)


class TestRolloutBuffer:
    def _filled_buffer(self, length=10):
        buffer = RolloutBuffer()
        for index in range(length):
            buffer.add_batch(
                states=np.array([[float(index), 0.0]]),
                actions=np.array([[0.1 * index]]),
                rewards=[1.0],
                dones=[index == length - 1],
                values=[0.5],
                log_probs=[-1.0],
            )
        return buffer

    def test_length_and_arrays(self):
        buffer = self._filled_buffer(10)
        assert len(buffer) == 10
        arrays = buffer.arrays()
        assert arrays["states"].shape == (10, 2)
        assert arrays["actions"].shape == (10, 1)
        assert arrays["dones"][-1]

    def test_minibatches_require_advantages(self):
        buffer = self._filled_buffer(4)
        with pytest.raises(RuntimeError):
            list(buffer.minibatches(2))

    def test_minibatches_cover_all_transitions(self):
        buffer = self._filled_buffer(10)
        buffer.set_advantages(np.arange(10.0), np.arange(10.0), normalize=False)
        seen = 0
        for batch in buffer.minibatches(3, rng=0):
            seen += len(batch["states"])
        assert seen == 10

    def test_advantage_normalization(self):
        buffer = self._filled_buffer(8)
        buffer.set_advantages(np.arange(8.0), np.arange(8.0), normalize=True)
        assert abs(float(buffer.advantages.mean())) < 1e-9
        assert float(buffer.advantages.std()) == pytest.approx(1.0, abs=1e-6)

    def test_clear(self):
        buffer = self._filled_buffer(5)
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.advantages is None

    def test_arrays_are_float64_whatever_the_input_precision(self):
        buffer = RolloutBuffer(num_envs=2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            buffer.add_batch(
                states=rng.normal(size=(2, 3)).astype(np.float32),
                actions=rng.normal(size=(2, 1)).astype(np.float32),
                rewards=rng.normal(size=2).astype(np.float32),
                dones=np.array([False, False]),
                values=rng.normal(size=2).astype(np.float32),
                log_probs=rng.normal(size=2).astype(np.float32),
            )
        buffer.last_values = rng.normal(size=2).astype(np.float32)
        stacked = buffer.time_major()
        for key in ("states", "actions", "rewards", "values", "log_probs"):
            assert stacked[key].dtype == np.float64, key
        assert stacked["dones"].dtype == bool
        assert buffer.bootstrap_values().dtype == np.float64
        buffer.set_advantages(np.ones(10, dtype=np.float32), np.ones(10, dtype=np.float32))
        assert buffer.advantages.dtype == np.float64
        assert buffer.returns.dtype == np.float64


class TestReplayBuffer:
    def test_add_and_sample(self):
        buffer = ReplayBuffer(100, state_dim=3, action_dim=1, rng=0)
        for index in range(50):
            buffer.add(np.full(3, index), [0.5], 1.0, np.full(3, index + 1), False)
        assert len(buffer) == 50
        states, actions, rewards, next_states, dones = buffer.sample(16)
        assert states.shape == (16, 3)
        assert actions.shape == (16, 1)
        assert rewards.shape == (16,)
        assert np.all(dones == 0.0)

    def test_capacity_wraparound(self):
        buffer = ReplayBuffer(10, state_dim=1, action_dim=1, rng=0)
        for index in range(25):
            buffer.add([index], [0.0], 0.0, [index + 1], False)
        assert len(buffer) == 10
        states, *_ = buffer.sample(10)
        assert states.min() >= 15  # only the most recent transitions remain

    def test_sample_empty_raises(self):
        buffer = ReplayBuffer(10, 1, 1)
        with pytest.raises(RuntimeError):
            buffer.sample(4)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0, 1, 1)


class TestGAE:
    """With ``lam = 1`` and zero values, GAE's returns are the discounted
    reward-to-go, reset at episode ends and bootstrapped at truncation."""

    @staticmethod
    def _returns(rewards, dones, gamma, last_value=0.0):
        rewards = np.asarray(rewards, dtype=np.float64)
        advantages, returns = compute_gae(
            rewards, np.zeros_like(rewards), dones, gamma=gamma, lam=1.0, last_value=last_value
        )
        np.testing.assert_array_equal(advantages, returns)
        return returns

    def test_discounted_returns_simple(self):
        returns = self._returns([1.0, 1.0, 1.0], np.array([False, False, True]), gamma=0.5)
        np.testing.assert_allclose(returns, [1.75, 1.5, 1.0])

    def test_discounted_returns_bootstrap(self):
        returns = self._returns([0.0], np.array([False]), gamma=0.9, last_value=10.0)
        np.testing.assert_allclose(returns, [9.0])

    def test_episode_boundary_resets_return(self):
        returns = self._returns([1.0, 1.0, 5.0], np.array([False, True, True]), gamma=1.0)
        np.testing.assert_allclose(returns, [2.0, 1.0, 5.0])

    def test_gae_matches_returns_with_lambda_one_zero_values(self):
        rewards = np.array([1.0, 2.0, 3.0])
        dones = np.array([False, False, True])
        advantages, returns = compute_gae(rewards, np.zeros(3), dones, gamma=0.9, lam=1.0)
        expected = [1.0 + 0.9 * 2.0 + 0.81 * 3.0, 2.0 + 0.9 * 3.0, 3.0]
        np.testing.assert_allclose(advantages, expected)
        np.testing.assert_allclose(returns, expected)

    def test_gae_zero_when_values_are_perfect(self):
        # One-step episode with value equal to the reward: zero advantage.
        advantages, _ = compute_gae(
            np.array([2.0]), np.array([2.0]), np.array([True]), gamma=0.99, lam=0.95
        )
        np.testing.assert_allclose(advantages, [0.0])

    def test_gae_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_gae(np.zeros(3), np.zeros(2), np.zeros(3, dtype=bool), 0.9, 0.9)


class TestControlEnv:
    def test_reset_and_step(self, vanderpol):
        env = ControlEnv(vanderpol, rng=0)
        observations = env.reset()
        assert observations.shape == (1, 2)
        next_observations, rewards, dones, info = env.step([[0.0]])
        assert next_observations.shape == (1, 2)
        assert rewards.shape == dones.shape == (1,)
        assert rewards.dtype == np.float64 and dones.dtype == bool
        assert "safe" in info and "controls" in info

    def test_step_before_reset_raises(self, vanderpol):
        env = ControlEnv(vanderpol, rng=0)
        with pytest.raises(RuntimeError):
            env.step([[0.0]])

    def test_episode_terminates_at_horizon(self, vanderpol):
        env = ControlEnv(vanderpol, horizon=5, rng=0)
        env.reset(initial_states=np.zeros((1, 2)))
        done = False
        steps = 0
        while not done:
            _, _, dones, _ = env.step([[0.0]])
            done = bool(dones[0])
            steps += 1
        assert steps <= 5

    def test_safety_violation_terminates_and_punishes(self, vanderpol):
        env = ControlEnv(vanderpol, rng=0)
        env.reset(initial_states=np.array([[1.99, 1.99]]))
        _, rewards, dones, info = env.step([[20.0]])
        assert dones[0]
        assert not info["safe"][0]
        assert rewards[0] == pytest.approx(env.reward.punishment)

    def test_reward_decreases_with_energy(self):
        reward = RewardFunction(energy_weight=0.1, survival_bonus=1.0)
        controls = np.array([[1.0], [10.0]])
        low, high = reward.batch(np.zeros((2, 2)), controls, np.zeros((2, 2)), [True, True])
        assert high < low

    def test_reward_punishment_on_unsafe(self):
        reward = RewardFunction(punishment=-50.0)
        rewards = reward.batch(np.zeros((1, 2)), np.zeros((1, 1)), np.zeros((1, 2)), [False])
        assert rewards[0] == pytest.approx(-50.0)

    def test_action_space_matches_control_bound(self, vanderpol):
        env = ControlEnv(vanderpol)
        np.testing.assert_allclose(env.action_space.low, [-20.0])
        np.testing.assert_allclose(env.action_space.high, [20.0])

    def test_reset_to_specific_state(self, vanderpol):
        env = ControlEnv(vanderpol, rng=0)
        observations = env.reset(initial_states=np.array([[0.3, -0.3]]))
        np.testing.assert_allclose(observations, [[0.3, -0.3]])
