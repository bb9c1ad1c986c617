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
    fgsm_perturbation,
    perturbation_budget,
)
from repro.attacks.adversary import safety_margin
from repro.attacks.fgsm import _control_change_gradient_batch
from repro.experts import LinearStateFeedback, NeuralController
from repro.nn.network import MLP
from repro.systems.simulation import safe_control_rate


class TestNoise:
    def test_uniform_noise_bounded(self):
        noise = UniformMeasurementNoise([0.1, 0.2])
        rng = np.random.default_rng(0)
        state = np.array([1.0, -1.0])
        for _ in range(200):
            perturbed = noise(state, rng)
            assert np.all(np.abs(perturbed - state) <= [0.1, 0.2])

    def test_uniform_noise_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            UniformMeasurementNoise([-0.1])

    def test_gaussian_noise_truncated(self):
        noise = GaussianMeasurementNoise(0.1, bound_multiplier=2.0)
        rng = np.random.default_rng(0)
        state = np.zeros(3)
        for _ in range(200):
            assert np.all(np.abs(noise(state, rng)) <= 0.2 + 1e-12)

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
        perturbed = fgsm_perturbation(controller, state, bound=[0.1, 0.2])
        assert np.all(np.abs(perturbed - state) <= [0.1 + 1e-12, 0.2 + 1e-12])

    def test_perturbation_moves_every_coordinate_to_the_bound(self):
        controller = self._neural_controller()
        state = np.array([0.5, -0.5])
        perturbed = fgsm_perturbation(controller, state, bound=0.1)
        np.testing.assert_allclose(np.abs(perturbed - state), [0.1, 0.1])

    def test_maximize_changes_control_more_than_random(self):
        controller = self._neural_controller()
        rng = np.random.default_rng(0)
        state = np.array([0.3, 0.2])
        bound = 0.2
        nominal = controller(state)
        adversarial_shift = abs(controller(fgsm_perturbation(controller, state, bound))[0] - nominal[0])
        random_shifts = [
            abs(controller(state + rng.uniform(-bound, bound, size=2))[0] - nominal[0]) for _ in range(32)
        ]
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
        perturbed = fgsm_perturbation(controller, state, bound=0.05)
        assert np.all(np.abs(perturbed - state) <= 0.05 + 1e-12)

    def test_attack_probability_zero_is_identity(self):
        controller = self._neural_controller()
        attack = FGSMAttack(controller, bound=0.1, probability=0.0)
        state = np.array([0.1, 0.1])
        np.testing.assert_allclose(attack(state, np.random.default_rng(0)), state)

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
        clean = safe_control_rate(vanderpol, controller, samples=80, rng=0)
        attack = FGSMAttack(
            controller, perturbation_budget(vanderpol, 0.15), alternate=False, maximize_control=False
        )
        attacked = safe_control_rate(vanderpol, controller, samples=80, perturbation=attack, rng=0)
        assert attacked < clean


class TestAdversaries:
    def test_safety_margin_sign(self, vanderpol):
        assert safety_margin(vanderpol, np.zeros(2)) > 0
        assert safety_margin(vanderpol, np.array([2.5, 0.0])) < 0

    def test_worst_case_sampler_reduces_margin(self, vanderpol):
        controller = LinearStateFeedback([[0.4, 0.6]])
        adversary = WorstCaseSampler(vanderpol, controller, bound=perturbation_budget(vanderpol, 0.15), candidates=8)
        rng = np.random.default_rng(0)
        state = np.array([1.2, 1.2])

        def next_margin(observation):
            control = vanderpol.clip_control(controller(observation))
            return safety_margin(vanderpol, vanderpol.dynamics(state, control, np.zeros(1)))

        adversarial_observation = adversary(state, rng)
        assert next_margin(adversarial_observation) <= next_margin(state) + 1e-12

    def test_worst_case_sampler_validation(self, vanderpol):
        with pytest.raises(ValueError):
            WorstCaseSampler(vanderpol, LinearStateFeedback([[1.0, 1.0]]), bound=0.1, candidates=0)

    def test_gradient_attack_within_budget(self, vanderpol):
        controller = LinearStateFeedback([[1.0, 2.0]])
        attack = GradientClosedLoopAttack(vanderpol, controller, bound=[0.1, 0.1])
        state = np.array([0.5, 0.5])
        perturbed = attack(state, np.random.default_rng(0))
        assert np.all(np.abs(perturbed - state) <= 0.1 + 1e-12)

    def test_gradient_attack_reduces_margin_on_average(self, vanderpol):
        controller = LinearStateFeedback([[0.4, 0.6]])
        attack = GradientClosedLoopAttack(vanderpol, controller, bound=perturbation_budget(vanderpol, 0.15))
        rng = np.random.default_rng(0)
        reductions = []
        for _ in range(20):
            state = vanderpol.initial_set.sample(rng) * 0.8
            control_clean = vanderpol.clip_control(controller(state))
            clean_margin = safety_margin(vanderpol, vanderpol.dynamics(state, control_clean, np.zeros(1)))
            observation = attack(state, rng)
            control_attacked = vanderpol.clip_control(controller(observation))
            attacked_margin = safety_margin(
                vanderpol, vanderpol.dynamics(state, control_attacked, np.zeros(1))
            )
            reductions.append(clean_margin - attacked_margin)
        assert np.mean(reductions) >= 0.0
