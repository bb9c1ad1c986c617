"""Property-based tests for batched GAE and the vectorized rollout buffer.

No hypothesis-style library is vendored into the image, so "property-based"
here means seeded random generation over many independently-drawn cases:
arbitrary horizons, environment counts and done-masks (including the
degenerate all-done / never-done / done-everywhere patterns).  The
properties:

* ``compute_gae_batch`` equals per-column scalar ``compute_gae`` **bit for
  bit** under every done-mask -- episode boundaries never leak across
  columns, and the batch-of-one case is the scalar kernel;
* the ``(T, N)`` ``RolloutBuffer`` flattens time-major and its minibatches
  partition exactly the ``T * N`` stored transitions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rl.buffers import RolloutBuffer
from repro.rl.gae import compute_gae, compute_gae_batch


def _random_done_mask(rng, horizon, num_envs):
    """A random mask mixing episode patterns, including degenerate ones."""

    pattern = rng.integers(0, 4)
    if pattern == 0:
        return np.zeros((horizon, num_envs), dtype=bool)  # never done
    if pattern == 1:
        return np.ones((horizon, num_envs), dtype=bool)  # done every step
    if pattern == 2:  # done exactly at the end of each column
        mask = np.zeros((horizon, num_envs), dtype=bool)
        mask[-1, :] = True
        return mask
    return rng.uniform(size=(horizon, num_envs)) < rng.uniform(0.05, 0.6)


class TestBatchedGAEProperties:
    @pytest.mark.parametrize("trial", range(25))
    def test_batched_equals_per_column_scalar_bitwise(self, trial):
        rng = np.random.default_rng(trial)
        horizon = int(rng.integers(1, 40))
        num_envs = int(rng.integers(1, 9))
        rewards = rng.normal(scale=10.0, size=(horizon, num_envs))
        values = rng.normal(scale=5.0, size=(horizon, num_envs))
        dones = _random_done_mask(rng, horizon, num_envs)
        last_values = rng.normal(size=num_envs)
        gamma = float(rng.uniform(0.8, 1.0))
        lam = float(rng.uniform(0.5, 1.0))

        batched_adv, batched_ret = compute_gae_batch(
            rewards, values, dones, gamma=gamma, lam=lam, last_values=last_values
        )
        for column in range(num_envs):
            scalar_adv, scalar_ret = compute_gae(
                rewards[:, column],
                values[:, column],
                dones[:, column],
                gamma=gamma,
                lam=lam,
                last_value=last_values[column],
            )
            np.testing.assert_array_equal(batched_adv[:, column], scalar_adv)
            np.testing.assert_array_equal(batched_ret[:, column], scalar_ret)

    def test_episode_boundary_blocks_advantage_flow(self):
        # With done=True at step t, the advantage at t must ignore everything
        # after t: r[t] - v[t] exactly, for every column independently.
        rewards = np.array([[1.0, 2.0], [100.0, -50.0]])
        values = np.array([[0.5, 0.25], [3.0, 4.0]])
        dones = np.array([[True, False], [True, True]])
        adv, _ = compute_gae_batch(
            rewards, values, dones, gamma=0.9, lam=0.9, last_values=np.array([9.0, 9.0])
        )
        assert adv[0, 0] == rewards[0, 0] - values[0, 0]
        # Column 1 step 0 is not done: it bootstraps from v[1, 1] and chains.
        delta_1 = rewards[1, 1] + 0.9 * 0.0 - values[1, 1]
        delta_0 = rewards[0, 1] + 0.9 * values[1, 1] - values[0, 1]
        assert adv[1, 1] == delta_1
        np.testing.assert_allclose(adv[0, 1], delta_0 + 0.9 * 0.9 * delta_1)

    def test_truncation_bootstraps_last_values_per_env(self):
        rewards = np.zeros((1, 3))
        values = np.zeros((1, 3))
        dones = np.array([[False, True, False]])
        last_values = np.array([10.0, 10.0, -4.0])
        adv, _ = compute_gae_batch(
            rewards, values, dones, gamma=0.5, lam=1.0, last_values=last_values
        )
        np.testing.assert_array_equal(adv[0], [5.0, 0.0, -2.0])

    def test_float32_inputs_give_float64_outputs_of_their_cast(self):
        rng = np.random.default_rng(0)
        rewards = rng.normal(size=(20, 4)).astype(np.float32)
        values = rng.normal(size=(20, 4)).astype(np.float32)
        dones = rng.random(size=(20, 4)) < 0.1
        last = rng.normal(size=4).astype(np.float32)
        adv, ret = compute_gae_batch(rewards, values, dones, 0.99, 0.95, last)
        assert adv.dtype == np.float64 and ret.dtype == np.float64
        adv64, ret64 = compute_gae_batch(
            rewards.astype(np.float64), values.astype(np.float64), dones, 0.99, 0.95,
            last.astype(np.float64),
        )
        np.testing.assert_array_equal(adv, adv64)
        np.testing.assert_array_equal(ret, ret64)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            compute_gae_batch(
                np.zeros((4, 2)), np.zeros((4, 3)), np.zeros((4, 2), dtype=bool),
                gamma=0.9, lam=0.9, last_values=np.zeros(2),
            )
        with pytest.raises(ValueError):
            compute_gae_batch(
                np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 2), dtype=bool),
                gamma=0.9, lam=0.9, last_values=np.zeros(3),
            )


class TestVectorizedRolloutBufferProperties:
    def _vector_buffer(self, rng, horizon, num_envs, state_dim=3, action_dim=2):
        buffer = RolloutBuffer(num_envs=num_envs)
        slices = []
        for _ in range(horizon):
            step = dict(
                states=rng.normal(size=(num_envs, state_dim)),
                actions=rng.normal(size=(num_envs, action_dim)),
                rewards=rng.normal(size=num_envs),
                dones=rng.uniform(size=num_envs) < 0.3,
                values=rng.normal(size=num_envs),
                log_probs=rng.normal(size=num_envs),
            )
            buffer.add_batch(**step)
            slices.append(step)
        return buffer, slices

    @pytest.mark.parametrize("trial", range(10))
    def test_flatten_is_time_major(self, trial):
        rng = np.random.default_rng(100 + trial)
        horizon = int(rng.integers(1, 12))
        num_envs = int(rng.integers(1, 6))
        buffer, slices = self._vector_buffer(rng, horizon, num_envs)
        assert len(buffer) == horizon * num_envs

        data = buffer.arrays()
        for step, step_slice in enumerate(slices):
            for env in range(num_envs):
                flat = step * num_envs + env
                np.testing.assert_array_equal(data["states"][flat], step_slice["states"][env])
                np.testing.assert_array_equal(data["actions"][flat], step_slice["actions"][env])
                assert data["rewards"][flat] == step_slice["rewards"][env]
                assert bool(data["dones"][flat]) == bool(step_slice["dones"][env])

        time_major = buffer.time_major()
        assert time_major["states"].shape == (horizon, num_envs, 3)
        np.testing.assert_array_equal(
            time_major["rewards"].reshape(-1), data["rewards"]
        )

    @pytest.mark.parametrize("trial", range(10))
    def test_minibatches_partition_all_transitions(self, trial):
        rng = np.random.default_rng(200 + trial)
        horizon = int(rng.integers(1, 10))
        num_envs = int(rng.integers(1, 5))
        batch_size = int(rng.integers(1, 8))
        buffer, _ = self._vector_buffer(rng, horizon, num_envs)
        total = len(buffer)
        buffer.set_advantages(np.arange(float(total)), np.arange(float(total)), normalize=False)

        seen_advantages = []
        count = 0
        for batch in buffer.minibatches(batch_size, rng=0):
            count += len(batch["advantages"])
            seen_advantages.extend(batch["advantages"].tolist())
            assert batch["states"].shape[1:] == (3,)
        assert count == total
        assert sorted(seen_advantages) == list(np.arange(float(total)))

    def test_width_1_buffer_flattens_to_its_steps(self):
        rng = np.random.default_rng(0)
        buffer = RolloutBuffer(num_envs=1)
        steps = []
        for _ in range(7):
            step = (
                rng.normal(size=3), rng.normal(size=2), float(rng.normal()),
                bool(rng.uniform() < 0.3), float(rng.normal()), float(rng.normal()),
            )
            state, action, reward, done, value, log_prob = step
            buffer.add_batch(state[None], action[None], [reward], [done], [value], [log_prob])
            steps.append(step)
        buffer.last_values = np.array([0.75])

        data = buffer.arrays()
        for index, key in enumerate(("states", "actions", "rewards", "dones", "values", "log_probs")):
            np.testing.assert_array_equal(data[key], np.array([step[index] for step in steps]))
            np.testing.assert_array_equal(buffer.time_major()[key].reshape(data[key].shape), data[key])
        assert buffer.time_major()["states"].shape == (7, 1, 3)
        np.testing.assert_array_equal(buffer.bootstrap_values(), [0.75])

    def test_add_batch_rejects_the_wrong_row_count(self):
        buffer = RolloutBuffer(num_envs=2)
        with pytest.raises(ValueError):
            buffer.add_batch(np.zeros((1, 2)), np.zeros((1, 1)), [0.0], [False], [0.0], [0.0])
        with pytest.raises(ValueError):
            buffer.add_batch(
                np.zeros((3, 2)), np.zeros((3, 1)), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3)
            )

    def test_clear_resets_vector_state(self):
        buffer = RolloutBuffer(num_envs=2)
        buffer.add_batch(
            np.zeros((2, 3)), np.zeros((2, 1)), np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2)
        )
        buffer.last_values = np.ones(2)
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.last_values is None
