"""Tests for closed-loop simulation and the Monte-Carlo estimator of Sr and e."""

import numpy as np
import pytest

from repro.experts import FunctionController, ZeroController
from repro.metrics import evaluate_robustness
from repro.systems.simulation import rollout, sample_initial_states


def _stabilising(states):
    """Feedback-linearising controller used as a known-safe reference."""

    s1, s2 = states[:, 0], states[:, 1]
    return (-(1 - s1**2) * s2 + s1 - 4 * s1 - 6 * s2)[:, None]


def _destabilising(states):
    """Pushes the state outward: guaranteed to violate safety quickly."""

    return 20.0 * np.where(states[:, 1:] != 0, np.sign(states[:, 1:]), 1.0)


stabilising_controller = FunctionController(_stabilising, name="stabilising")
destabilising_controller = FunctionController(_destabilising, name="destabilising")


class TestRollout:
    def test_safe_rollout_full_horizon(self, vanderpol):
        trajectory = rollout(vanderpol, stabilising_controller, [0.5, 0.5], rng=0)
        assert trajectory.safe
        assert trajectory.steps == vanderpol.horizon
        assert len(trajectory.states) == vanderpol.horizon + 1
        assert trajectory.violation_step is None

    def test_energy_accumulates_absolute_control(self, vanderpol):
        trajectory = rollout(vanderpol, stabilising_controller, [0.5, 0.5], rng=0)
        np.testing.assert_allclose(trajectory.energy, np.sum(np.abs(trajectory.controls)))

    def test_unsafe_rollout_stops_early(self, vanderpol):
        trajectory = rollout(vanderpol, destabilising_controller, [1.5, 1.5], rng=0)
        assert not trajectory.safe
        assert trajectory.steps < vanderpol.horizon
        assert trajectory.violation_step is not None

    def test_unsafe_initial_state(self, vanderpol):
        trajectory = rollout(vanderpol, stabilising_controller, [3.0, 0.0], rng=0)
        assert not trajectory.safe
        assert trajectory.steps == 0
        assert trajectory.violation_step == 0

    def test_stop_on_violation_false_runs_full_horizon(self, vanderpol):
        trajectory = rollout(
            vanderpol, destabilising_controller, [1.5, 1.5], rng=0, stop_on_violation=False
        )
        assert trajectory.steps == vanderpol.horizon
        assert not trajectory.safe

    def test_custom_horizon(self, vanderpol):
        trajectory = rollout(vanderpol, stabilising_controller, [0.1, 0.1], horizon=7, rng=0)
        assert trajectory.steps == 7

    def test_controls_are_clipped(self, vanderpol):
        huge = FunctionController(lambda states: np.full((len(states), 1), 1000.0))
        trajectory = rollout(vanderpol, huge, [0.0, 0.0], horizon=5, rng=0)
        assert np.all(np.abs(trajectory.controls) <= 20.0)

    def test_perturbation_applied_to_observation_only(self, vanderpol):
        # A perturbation that zeroes the observation: the controller sees zeros
        # (and outputs zero control), but the true state still evolves.
        observed = []

        def spy(states):
            observed.append(states.copy())
            return np.zeros((len(states), 1))

        spy_controller = FunctionController(spy)

        class ZeroObservation:
            def perturb_batch(self, states, rng):
                return np.zeros_like(states)

        zero_observation = ZeroObservation()
        trajectory = rollout(
            vanderpol, spy_controller, [0.5, 0.5], horizon=3, perturbation=zero_observation, rng=0
        )
        assert all(np.allclose(entry, 0.0) for entry in observed)
        assert not np.allclose(trajectory.states[-1], trajectory.states[0])

    def test_reproducible_with_same_seed(self, vanderpol):
        a = rollout(vanderpol, stabilising_controller, [0.5, -0.5], rng=123)
        b = rollout(vanderpol, stabilising_controller, [0.5, -0.5], rng=123)
        np.testing.assert_allclose(a.states, b.states)


class TestMetrics:
    def test_sample_initial_states_shape(self, vanderpol):
        states = sample_initial_states(vanderpol, 50, rng=0)
        assert states.shape == (50, 2)
        assert all(vanderpol.initial_set.contains(state) for state in states)

    def test_sample_initial_states_invalid_count(self, vanderpol):
        with pytest.raises(ValueError):
            sample_initial_states(vanderpol, 0)

    def test_safe_rate_good_controller_high(self, vanderpol):
        rate = evaluate_robustness(vanderpol, stabilising_controller, samples=80, rng=0).safe_rate
        assert rate > 0.9

    def test_safe_rate_bad_controller_low(self, vanderpol):
        rate = evaluate_robustness(vanderpol, destabilising_controller, samples=80, rng=0).safe_rate
        assert rate < 0.5

    def test_safe_rate_bounds(self, vanderpol):
        rate = evaluate_robustness(vanderpol, ZeroController(1), samples=40, rng=0).safe_rate
        assert 0.0 <= rate <= 1.0

    def test_energy_zero_controller(self, vanderpol):
        # Short horizon so that some uncontrolled trajectories remain safe;
        # those contribute exactly zero energy.
        energy = evaluate_robustness(vanderpol, ZeroController(1), samples=20, horizon=3, rng=0).mean_energy
        assert energy == pytest.approx(0.0)

    def test_evaluate_robustness_aggregation(self, vanderpol):
        initial_states = sample_initial_states(vanderpol, 30, rng=0)
        result = evaluate_robustness(vanderpol, stabilising_controller, initial_states=initial_states, rng=0)
        assert result.samples == 30
        assert result.num_safe == len(result.energies)
        assert result.safe_rate == result.num_safe / result.samples
        assert result.mean_energy == float(np.mean(result.energies))

    def test_evaluate_robustness_all_unsafe_gives_inf_energy(self, vanderpol):
        initial_states = np.array([[3.0, 3.0], [2.5, 2.5]])  # outside the safe region
        result = evaluate_robustness(vanderpol, stabilising_controller, initial_states=initial_states, rng=0)
        assert (result.samples, result.num_safe, result.energies) == (2, 0, [])
        assert result.safe_rate == 0.0
        assert np.isinf(result.mean_energy)

    def test_energy_average_over_safe_trajectories_only(self, vanderpol):
        # Mix a doomed initial state with safe ones: the mean energy must be
        # finite and computed only from the safe trajectories.
        initial_states = np.vstack([np.array([[3.0, 3.0]]), sample_initial_states(vanderpol, 5, rng=1) * 0.1])
        result = evaluate_robustness(vanderpol, stabilising_controller, initial_states=initial_states, rng=0)
        assert 0.0 < result.safe_rate < 1.0
        assert np.isfinite(result.mean_energy)
