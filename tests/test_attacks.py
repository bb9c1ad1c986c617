"""Tests for measurement noise, FGSM attacks and the closed-loop adversaries."""

import numpy as np
import pytest
from finite_differences import numerical_gradient

from repro.attacks import (
    FGSMAttack,
    GaussianMeasurementNoise,
    GradientClosedLoopAttack,
    UniformMeasurementNoise,
    WorstCaseSampler,
    fgsm_perturbation_batch,
    perturbation_budget,
)
from repro.attacks.adversary import safety_margin
from repro.attacks.fgsm import _control_change_gradient_batch
from repro.experts import LinearStateFeedback, NeuralController
from repro.metrics import evaluate_robustness
from repro.nn.network import MLP
from repro.systems.simulation import rollout_batch, sample_initial_states
from repro.utils.seeding import get_rng


class TestNoise:
    def test_uniform_noise_bounded(self):
        noise = UniformMeasurementNoise([0.1, 0.2])
        states = np.tile([1.0, -1.0], (200, 1))
        perturbed = noise.perturb_batch(states, np.random.default_rng(0))
        assert perturbed.shape == states.shape
        assert np.all(np.abs(perturbed - states) <= [0.1, 0.2])

    def test_uniform_noise_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            UniformMeasurementNoise([-0.1])

    def test_gaussian_noise_truncated(self):
        noise = GaussianMeasurementNoise(0.1, bound_multiplier=2.0)
        perturbed = noise.perturb_batch(np.zeros((200, 3)), np.random.default_rng(0))
        assert perturbed.shape == (200, 3)
        assert np.all(np.abs(perturbed) <= 0.2 + 1e-12)

    def test_magnitude(self):
        np.testing.assert_allclose(UniformMeasurementNoise([0.3, 0.4]).magnitude(), [0.3, 0.4])


class TestPerturbationBudget:
    def test_fraction_of_state_scale(self, vanderpol):
        budget = perturbation_budget(vanderpol, 0.1)
        np.testing.assert_allclose(budget, [0.2, 0.2])

    def test_cartpole_budget_uses_each_bound(self, cartpole):
        budget = perturbation_budget(cartpole, 0.1)
        assert budget[0] == pytest.approx(0.24)
        assert budget[2] == pytest.approx(0.0209)

    def test_negative_fraction_rejected(self, vanderpol):
        with pytest.raises(ValueError):
            perturbation_budget(vanderpol, -0.1)


class TestFGSM:
    def _neural_controller(self):
        return NeuralController(MLP(2, 1, hidden_sizes=(16,), seed=0), name="net")

    def test_perturbation_within_bound(self):
        controller = self._neural_controller()
        state = np.array([0.5, -0.5])
        perturbed = fgsm_perturbation_batch(controller, state[None, :], bound=[0.1, 0.2])[0]
        assert np.all(np.abs(perturbed - state) <= [0.1 + 1e-12, 0.2 + 1e-12])

    def test_perturbation_moves_every_coordinate_to_the_bound(self):
        controller = self._neural_controller()
        state = np.array([0.5, -0.5])
        perturbed = fgsm_perturbation_batch(controller, state[None, :], bound=0.1)[0]
        np.testing.assert_allclose(np.abs(perturbed - state), [0.1, 0.1])

    def test_maximize_changes_control_more_than_random(self):
        controller = self._neural_controller()
        rng = np.random.default_rng(0)
        state = np.array([0.3, 0.2])
        bound = 0.2
        nominal = controller.batch_control(state[None, :])[0, 0]
        adversarial = fgsm_perturbation_batch(controller, state[None, :], bound)
        adversarial_shift = abs(controller.batch_control(adversarial)[0, 0] - nominal)
        randoms = state + rng.uniform(-bound, bound, size=(32, 2))
        random_shifts = np.abs(controller.batch_control(randoms)[:, 0] - nominal)
        assert adversarial_shift >= np.mean(random_shifts)

    @pytest.mark.parametrize("scaled", [False, True])
    def test_input_gradient_matches_finite_differences(self, scaled):
        """The closed-form input gradient is ``d (c^T kappa(s)) / ds``, with
        ``c`` the sign of the nominal control, scaled output included."""

        network = MLP(3, 2, hidden_sizes=(6, 5), output_activation="tanh" if scaled else "identity", seed=4)
        bounds = dict(output_low=[-3.0, 0.0], output_high=[1.0, 2.0]) if scaled else {}
        controller = NeuralController(network, **bounds)
        states = np.random.default_rng(5).normal(size=(7, 3))
        direction = np.sign(controller.batch_control(states))
        gradient = _control_change_gradient_batch(controller, states)
        probe = states.copy()
        numeric = numerical_gradient(lambda: np.sum(direction * controller.batch_control(probe)), probe)
        np.testing.assert_allclose(gradient, numeric, rtol=1e-6, atol=1e-9)

    def test_black_box_fallback_for_non_neural_controller(self):
        controller = LinearStateFeedback([[2.0, -1.0]])
        state = np.array([0.4, 0.4])
        perturbed = fgsm_perturbation_batch(controller, state[None, :], bound=0.05)[0]
        assert np.all(np.abs(perturbed - state) <= 0.05 + 1e-12)

    def test_attack_probability_zero_is_identity(self):
        controller = self._neural_controller()
        attack = FGSMAttack(controller, bound=0.1, probability=0.0)
        states = np.array([[0.1, 0.1], [-0.3, 0.2]])
        np.testing.assert_array_equal(attack.perturb_batch(states, np.random.default_rng(0)), states)

    def test_attack_probability_validation(self):
        with pytest.raises(ValueError):
            FGSMAttack(self._neural_controller(), bound=0.1, probability=1.5)

    def test_attack_degrades_safe_rate(self, vanderpol):
        # A mediocre linear controller should lose measurable safety under a
        # strong FGSM attack on its measurements.  The opposing direction
        # (making the controller under-react) is the harmful one against a
        # weak stabilising controller; the alternating attack nets out close
        # to the clean rate on this plant.
        controller = LinearStateFeedback([[0.4, 0.6]])
        clean = evaluate_robustness(vanderpol, controller, samples=80, rng=0).safe_rate
        attack = FGSMAttack(
            controller, perturbation_budget(vanderpol, 0.15), alternate=False, maximize_control=False
        )
        generator = get_rng(0)
        states = sample_initial_states(vanderpol, 80, rng=generator)
        attacked = rollout_batch(vanderpol, controller, states, perturbation=attack, rng=generator).safe_rate
        assert attacked < clean


class TestAdversaries:
    def test_safety_margin_sign(self, vanderpol):
        assert safety_margin(vanderpol, np.zeros(2)) > 0
        assert safety_margin(vanderpol, np.array([2.5, 0.0])) < 0

    def test_safety_margin_keeps_leading_axes(self, vanderpol):
        states = np.array([[[0.0, 0.0], [2.5, 0.0]], [[1.5, -1.0], [0.0, -1.9]]])
        np.testing.assert_allclose(safety_margin(vanderpol, states), [[2.0, -0.5], [0.5, 0.1]])

    def test_worst_case_sampler_reduces_margin(self, vanderpol):
        controller = LinearStateFeedback([[0.4, 0.6]])
        adversary = WorstCaseSampler(vanderpol, controller, bound=perturbation_budget(vanderpol, 0.15), candidates=8)
        rng = np.random.default_rng(0)
        states = np.array([[1.2, 1.2], [-1.0, 0.5], [0.3, -1.4]])

        def next_margins(observations):
            controls = vanderpol.clip_control_batch(controller.batch_control(observations))
            return safety_margin(vanderpol, vanderpol.dynamics_batch(states, controls, np.zeros((3, 1))))

        adversarial_observations = adversary.perturb_batch(states, rng)
        assert np.all(np.abs(adversarial_observations - states) <= adversary.bound + 1e-12)
        assert np.all(next_margins(adversarial_observations) <= next_margins(states) + 1e-12)

    def test_worst_case_sampler_draws_each_rows_candidates_in_turn(self, vanderpol):
        """The batched draw consumes the stream like one candidate list per
        row, in row order: with no corners and ``candidates=3``, row ``i``'s
        random candidates are draws ``3i .. 3i + 2`` of the stream."""

        controller = LinearStateFeedback([[0.4, 0.6]])
        bound = np.array([0.2, 0.1])
        adversary = WorstCaseSampler(vanderpol, controller, bound=bound, candidates=3, include_corners=False)
        states = np.array([[1.2, 1.2], [-1.0, 0.5]])
        observations = adversary.perturb_batch(states, np.random.default_rng(7))
        reference = np.random.default_rng(7)
        for state, observation in zip(states, observations):
            candidates = [state] + [state + reference.uniform(-bound, bound) for _ in range(3)]
            assert any(np.array_equal(observation, candidate) for candidate in candidates)

    def test_worst_case_sampler_validation(self, vanderpol):
        with pytest.raises(ValueError):
            WorstCaseSampler(vanderpol, LinearStateFeedback([[1.0, 1.0]]), bound=0.1, candidates=0)

    def test_gradient_attack_within_budget(self, vanderpol):
        controller = LinearStateFeedback([[1.0, 2.0]])
        attack = GradientClosedLoopAttack(vanderpol, controller, bound=[0.1, 0.1])
        states = np.array([[0.5, 0.5], [-0.2, 1.1]])
        perturbed = attack.perturb_batch(states, np.random.default_rng(0))
        np.testing.assert_allclose(np.abs(perturbed - states), 0.1)

    def test_gradient_attack_matches_one_axis_at_a_time(self, vanderpol):
        """Reference: central differences of the next-state margin, one state
        and one axis per plant step."""

        controller = LinearStateFeedback([[0.4, 0.6]])
        bound = np.array([0.2, 0.1])
        attack = GradientClosedLoopAttack(vanderpol, controller, bound=bound, epsilon=1e-4)
        states = vanderpol.initial_set.sample(np.random.default_rng(4), count=6) * 0.9

        def margin_after(state, observation):
            control = vanderpol.clip_control_batch(controller.batch_control(observation[None, :]))
            next_state = vanderpol.dynamics_batch(state[None, :], control, np.zeros((1, 1)))
            return safety_margin(vanderpol, next_state[0])

        for state, perturbed in zip(states, attack.perturb_batch(states, None)):
            gradient = np.zeros(2)
            for axis in range(2):
                step = np.zeros(2)
                step[axis] = 1e-4
                gradient[axis] = (margin_after(state, state + step) - margin_after(state, state - step)) / 2e-4
            sign = np.where(gradient == 0.0, 1.0, np.sign(gradient))
            np.testing.assert_array_equal(perturbed, state - bound * sign)

    def test_gradient_attack_reduces_margin_on_average(self, vanderpol):
        controller = LinearStateFeedback([[0.4, 0.6]])
        attack = GradientClosedLoopAttack(vanderpol, controller, bound=perturbation_budget(vanderpol, 0.15))
        rng = np.random.default_rng(0)
        states = vanderpol.initial_set.sample(rng, count=20) * 0.8

        def next_margins(observations):
            controls = vanderpol.clip_control_batch(controller.batch_control(observations))
            return safety_margin(vanderpol, vanderpol.dynamics_batch(states, controls, np.zeros((20, 1))))

        observations = attack.perturb_batch(states, rng)
        assert np.mean(next_margins(states) - next_margins(observations)) >= 0.0
