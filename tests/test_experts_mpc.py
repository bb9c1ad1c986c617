"""Tests for the sampling-based MPC expert."""

import numpy as np
import pytest

from repro.experts.mpc import MPCController
from repro.systems.simulation import rollout


@pytest.fixture
def mpc(vanderpol):
    return MPCController(vanderpol, horizon=6, num_samples=32, num_iterations=2, rng=0)


class TestMPCConstruction:
    def test_invalid_horizon(self, vanderpol):
        with pytest.raises(ValueError):
            MPCController(vanderpol, horizon=0)

    def test_invalid_samples(self, vanderpol):
        with pytest.raises(ValueError):
            MPCController(vanderpol, num_samples=2)

    def test_invalid_elite_fraction(self, vanderpol):
        with pytest.raises(ValueError):
            MPCController(vanderpol, elite_fraction=0.0)


class TestMPCBehaviour:
    def test_control_is_bounded(self, vanderpol, mpc):
        states = vanderpol.initial_set.sample(np.random.default_rng(0), count=5)
        controls = mpc.batch_control(states)
        assert controls.shape == (5, 1)
        assert np.all(np.abs(controls) <= 20.0 + 1e-12)

    def test_pushes_state_towards_origin(self, vanderpol, mpc):
        states = np.array([[1.0, 1.0], [1.0, 1.0]])
        controls = np.concatenate([mpc.batch_control(states[:1]), np.zeros((1, 1))])
        next_state, baseline = vanderpol.dynamics_batch(states, controls, np.zeros((2, 1)))
        assert np.linalg.norm(next_state) < np.linalg.norm(baseline)

    def test_stabilises_short_rollout(self, vanderpol):
        mpc = MPCController(vanderpol, horizon=8, num_samples=48, num_iterations=2, rng=1)
        trajectory = rollout(vanderpol, mpc, [0.8, -0.6], horizon=25, rng=0)
        assert trajectory.safe
        assert np.linalg.norm(trajectory.states[-1]) < np.linalg.norm(trajectory.states[0])

    def test_rows_search_independently_in_lockstep(self, vanderpol):
        """Row ``i`` of a batch is the CEM search a lone call makes on the
        ``i``-th slice of the same draws: one ``(N, S, horizon, m)`` draw per
        iteration, consumed row-major."""

        states = np.array([[1.0, 1.0], [-0.5, 0.8], [0.2, -1.4]])
        batched = MPCController(vanderpol, horizon=5, num_samples=16, num_iterations=1, rng=3)
        controls = batched.batch_control(states)
        draws = np.random.default_rng(3).normal(0.0, 20.0, size=(3, 16, 5, 1))
        for row, state in enumerate(states):
            samples = np.clip(draws[row], -20.0, 20.0)
            costs = batched._sequence_costs(state[None, :], samples[None])[0]
            np.testing.assert_allclose(controls[row], samples[np.argmin(costs), 0], rtol=1e-12)

    def test_memoryless(self, vanderpol):
        state = np.array([[0.5, 0.5]])
        first = MPCController(vanderpol, horizon=4, num_samples=16, rng=0)
        fresh = MPCController(vanderpol, horizon=4, num_samples=16, rng=0)
        first.batch_control(np.array([[1.5, -1.0]]))
        second_call = first.batch_control(state)
        # A repeat call differs only through the generator stream it consumes.
        fresh.batch_control(np.array([[0.0, 0.0]]))
        np.testing.assert_array_equal(second_call, fresh.batch_control(state))

    def test_unsafe_predictions_penalised(self, threed):
        # From a state near the boundary the MPC must brake rather than push out.
        mpc = MPCController(threed, horizon=5, num_samples=48, num_iterations=2, rng=0)
        states = np.array([[0.45, 0.3, 0.2], [0.45, 0.3, 0.2]])
        controls = np.concatenate([mpc.batch_control(states[:1]), np.zeros((1, 1))])
        next_state, uncontrolled = threed.dynamics_batch(states, controls, np.zeros((2, 3)))
        assert next_state[2] <= uncontrolled[2]  # z is braked downward

    def test_sequence_costs_match_one_sequence_at_a_time(self, vanderpol):
        mpc = MPCController(vanderpol, horizon=4, num_samples=8, rng=0)
        samples = np.random.default_rng(1).uniform(-30.0, 30.0, size=(8, 4, 1))
        state = np.array([1.5, 1.0])
        costs = mpc._sequence_costs(state[None, :], samples[None])[0]
        penalised = 0
        for sample, cost in zip(samples, costs):
            expected, current = 0.0, state[None, :]
            for control in sample:
                applied = vanderpol.clip_control_batch(control[None, :])
                current = vanderpol.dynamics_batch(current, applied, np.zeros((1, 1)))
                expected += current[0] @ mpc.state_cost @ current[0]
                expected += applied[0] @ mpc.control_cost @ applied[0]
                if not vanderpol.is_safe_batch(current)[0]:
                    expected += mpc.unsafe_penalty
                    penalised += 1
            assert cost == pytest.approx(expected, rel=1e-12)
        assert penalised > 0  # the unsafe penalty is exercised

    def test_usable_as_mixing_expert(self, vanderpol, vanderpol_experts):
        from repro.core.mixing import AdaptiveMixingEnv

        mpc = MPCController(vanderpol, horizon=4, num_samples=16, num_iterations=1, rng=0)
        env = AdaptiveMixingEnv(vanderpol, [vanderpol_experts[0], mpc], weight_bound=1.5, rng=0)
        env.reset(initial_states=np.array([[0.2, 0.2]]))
        _, rewards, _, _ = env.step(np.array([[0.5, 0.5]]))
        assert np.isfinite(rewards[0])
