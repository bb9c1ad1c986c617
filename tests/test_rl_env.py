"""Tests for the lockstep control environment (ControlEnv and its subclasses).

The width-1 environment is pinned bit-for-bit against the frozen legacy
collection loop in ``tests/test_training_determinism.py`` and, through the
trained weights, by ``tests/test_rl_digests.py``; this file covers the
mechanics themselves: lockstep shapes, horizon bookkeeping, caller-driven
per-row resets, the subclass hooks and the batched reward function.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.switching import SwitchingEnv
from repro.core.mixing import AdaptiveMixingEnv
from repro.experts import make_default_experts
from repro.rl.env import ControlEnv, RewardFunction
from repro.systems import make_system


class _Noise:
    """Uniform observation noise with a batched draw."""

    def perturb_batch(self, states, generator):
        return states + generator.uniform(-0.01, 0.01, size=states.shape)


@pytest.fixture
def vanderpol_env():
    return ControlEnv(make_system("vanderpol"), rng=0, num_envs=4)


class TestRewardFunctionBatch:
    def test_rows_are_the_paper_reward(self):
        reward = RewardFunction(punishment=-50.0, energy_weight=0.1, state_weight=0.01)
        rng = np.random.default_rng(0)
        states = rng.normal(size=(16, 3))
        controls = rng.normal(size=(16, 2))
        next_states = rng.normal(size=(16, 3))
        safe = rng.uniform(size=16) < 0.5
        batched = reward.batch(states, controls, next_states, safe)
        for index in range(16):
            expected = (
                1.0 - 0.1 * np.sum(np.abs(controls[index])) - 0.01 * np.sum(next_states[index] ** 2)
                if safe[index]
                else -50.0
            )
            assert batched[index] == pytest.approx(expected, rel=1e-12)

    def test_zero_state_weight_skips_state_cost(self):
        reward = RewardFunction(state_weight=0.0)
        batched = reward.batch(
            np.ones((2, 2)), np.zeros((2, 1)), np.full((2, 2), 1e6), np.array([True, True])
        )
        np.testing.assert_array_equal(batched, [reward.survival_bonus] * 2)


class TestControlEnv:
    def test_reset_and_step_shapes(self, vanderpol_env):
        env = vanderpol_env
        observations = env.reset()
        assert observations.shape == (4, env.state_dim)
        actions = np.zeros((4, env.action_dim))
        observations, rewards, dones, info = env.step(actions)
        assert observations.shape == (4, env.state_dim)
        assert rewards.shape == dones.shape == (4,)
        assert info["controls"].shape == (4, env.action_dim)
        assert info["next_states"].shape == (4, env.state_dim)

    def test_step_before_reset_raises(self, vanderpol_env):
        with pytest.raises(RuntimeError):
            vanderpol_env.step(np.zeros((4, 1)))

    def test_invalid_num_envs_rejected(self):
        with pytest.raises(ValueError):
            ControlEnv(make_system("vanderpol"), rng=0, num_envs=0)

    def test_horizon_triggers_done_and_never_auto_resets(self):
        env = ControlEnv(make_system("vanderpol"), horizon=3, rng=0, num_envs=2)
        env.reset(initial_states=np.zeros((2, 2)))
        for step in range(3):
            _obs, _rewards, dones, info = env.step(np.zeros((2, 1)))
            np.testing.assert_array_equal(info["steps"], step + 1)
            assert np.all(dones) == (step == 2)
        # No reset from the caller: the episodes stay over.
        _obs, _rewards, dones, info = env.step(np.zeros((2, 1)))
        np.testing.assert_array_equal(info["steps"], 4)
        assert np.all(dones)
        # A caller reset restarts the step count.
        env.reset(initial_states=np.zeros((2, 2)))
        _obs, _rewards, dones, info = env.step(np.zeros((2, 1)))
        np.testing.assert_array_equal(info["steps"], 1)
        assert not np.any(dones)

    def test_unsafe_rows_end_individually(self):
        system = make_system("vanderpol")
        env = ControlEnv(system, rng=0, num_envs=3)
        # Row 1 starts near the safe-region boundary and is pushed outward
        # with the maximal control until it leaves X: done for that row only.
        edge = system.safe_region.high * 0.99
        env.reset(initial_states=np.stack([np.zeros(2), edge, np.zeros(2)]))
        actions = np.stack([[0.0], [system.control_bound.high[0]], [0.0]])
        for _ in range(system.horizon):
            _obs, rewards, dones, info = env.step(actions)
            if dones[1]:
                break
        assert dones[1] and not dones[0] and not dones[2]
        assert rewards[1] == env.reward.punishment
        assert not system.initial_set.contains(env._states[1])

    @pytest.mark.parametrize("rows", [np.array([False, True, False, True]), np.array([1, 3])],
                             ids=["mask", "index"])
    def test_reset_restarts_only_the_given_rows(self, vanderpol_env, rows):
        env = vanderpol_env
        env.reset(initial_states=np.zeros((4, 2)))
        env.step(np.zeros((4, 1)))
        before = env._states.copy()
        observations = env.reset(rows=rows)
        assert observations.shape == (2, env.state_dim)
        np.testing.assert_array_equal(env._states[[0, 2]], before[[0, 2]])
        np.testing.assert_array_equal(env._states[[1, 3]], observations)
        np.testing.assert_array_equal(env._steps, [1, 0, 1, 0])
        for state in observations:
            assert env.system.initial_set.contains(state)

    def test_reset_rows_takes_their_initial_states(self, vanderpol_env):
        env = vanderpol_env
        env.reset()
        fresh = np.array([[0.1, 0.2]])
        np.testing.assert_array_equal(env.reset(rows=[2], initial_states=fresh), fresh)
        np.testing.assert_array_equal(env._states[2], fresh[0])
        with pytest.raises(ValueError):
            env.reset(rows=[0, 1], initial_states=fresh)

    def test_first_reset_must_restart_every_row(self, vanderpol_env):
        with pytest.raises(RuntimeError):
            vanderpol_env.reset(rows=[0])

    def test_row_reset_draws_like_the_old_auto_reset(self):
        """Step then reset the done rows consumes the stream in the order
        disturbance, observation noise, fresh ``X0`` states, their noise."""

        system = make_system("vanderpol")
        noise = _Noise()
        env = ControlEnv(system, horizon=2, perturbation=noise, rng=3, num_envs=3)
        env.reset(initial_states=np.zeros((3, 2)))
        env.step(np.zeros((3, 1)))
        # Replay both steps' draws, then the reset's, on a reference generator.
        generator = np.random.default_rng(3)
        noise.perturb_batch(np.zeros((3, 2)), generator)
        states = system.step_batch(np.zeros((3, 2)), np.zeros((3, 1)), rng=generator)
        noise.perturb_batch(states, generator)
        states = system.step_batch(states, np.zeros((3, 1)), rng=generator)
        expected = noise.perturb_batch(states, generator)
        fresh = system.initial_set.sample(generator, count=3)
        expected_fresh = noise.perturb_batch(fresh, generator)

        observations, _rewards, dones, _info = env.step(np.zeros((3, 1)))
        assert np.all(dones)
        np.testing.assert_array_equal(observations, expected)
        np.testing.assert_array_equal(env.reset(rows=dones), expected_fresh)
        np.testing.assert_array_equal(env._states, fresh)

    def test_discrete_action_vector_maps_one_action_per_row(self):
        """Regression: a categorical policy's ``(N,)`` action vector must be
        treated as one action per row, not transposed into a single
        ``(1, N)`` batch row (which silently broadcast row 0's control to
        every environment)."""

        system = make_system("vanderpol")
        experts = make_default_experts(system)
        env = SwitchingEnv(system, experts, rng=0, num_envs=4)
        states = system.initial_set.sample(np.random.default_rng(2), count=4)
        env.reset(initial_states=states)
        actions = np.array([0, 1, 0, 1])  # alternate the selected expert
        _obs, _rewards, _dones, info = env.step(actions)
        assert info["controls"].shape == (4, system.control_dim)
        for action in (0, 1):  # each expert runs once, on the rows that selected it
            rows = actions == action
            expected = system.clip_control_batch(experts[action].batch_control(states[rows]))
            np.testing.assert_array_equal(info["controls"][rows], expected)
        # Rows given different experts at the same step must not all
        # receive row 0's control.
        assert not np.allclose(info["controls"][0], info["controls"][1])

    def test_wrong_action_row_count_rejected(self, vanderpol_env):
        vanderpol_env.reset()
        with pytest.raises(ValueError):
            vanderpol_env.step(np.zeros((3, 1)))

    def test_subclass_hook_maps_actions_to_controls(self):
        class DoublingEnv(ControlEnv):
            def actions_to_controls(self, actions, states):
                return 2.0 * actions

        env = DoublingEnv(make_system("vanderpol"), rng=0, num_envs=3)
        env.reset(initial_states=np.zeros((3, 2)))
        actions = np.array([[0.1], [0.2], [0.3]])
        _obs, _rewards, _dones, info = env.step(actions)
        np.testing.assert_allclose(info["controls"], 2.0 * actions)


class TestAdaptiveMixingEnv:
    def test_carries_its_width_and_bounds(self):
        system = make_system("vanderpol")
        experts = make_default_experts(system)
        env = AdaptiveMixingEnv(system, experts, weight_bound=[1.5, 2.0], rng=0, num_envs=5)
        assert env.num_envs == 5
        np.testing.assert_array_equal(env.weight_bounds, [1.5, 2.0])
        assert env.reset().shape == (5, system.state_dim)

    def test_batched_controls_match_per_row_weighted_sums(self):
        system = make_system("vanderpol")
        experts = make_default_experts(system)
        env = AdaptiveMixingEnv(system, experts, rng=0, num_envs=6)
        rng = np.random.default_rng(1)
        states = system.safe_region.sample(rng, count=6)
        actions = rng.uniform(-1.0, 1.0, size=(6, len(experts)))
        batched = system.clip_control_batch(env.actions_to_controls(actions, states))
        for index in range(6):
            row = states[index : index + 1]
            expected = system.clip_control_batch(
                sum(weight * expert.batch_control(row) for weight, expert in zip(actions[index], experts))
            )
            np.testing.assert_allclose(batched[index], expected[0], rtol=1e-12, atol=1e-12)

    def test_requires_two_experts(self):
        system = make_system("vanderpol")
        with pytest.raises(ValueError):
            AdaptiveMixingEnv(system, make_default_experts(system)[:1], num_envs=2)

    def test_weight_bound_validation(self):
        system = make_system("vanderpol")
        with pytest.raises(ValueError):
            AdaptiveMixingEnv(system, make_default_experts(system), [1.5, 1.5, 1.5], num_envs=2)
