"""Tests for the PGD (iterated FGSM) attack."""

import numpy as np
import pytest

from repro.attacks import PGDAttack, fgsm_perturbation_batch, pgd_perturbation_batch
from repro.experts import NeuralController
from repro.nn.network import MLP


@pytest.fixture
def controller():
    return NeuralController(MLP(2, 1, hidden_sizes=(16,), seed=0))


class TestPGDPerturbation:
    def test_stays_within_bound(self, controller):
        states = np.array([[0.4, -0.3], [-0.8, 0.6], [0.0, 0.05]])
        perturbed = pgd_perturbation_batch(controller, states, bound=[0.1, 0.2], steps=5)
        assert np.all(np.abs(perturbed - states) <= [0.1 + 1e-12, 0.2 + 1e-12])

    def test_invalid_steps(self, controller):
        with pytest.raises(ValueError):
            pgd_perturbation_batch(controller, np.zeros((1, 2)), bound=0.1, steps=0)

    def test_at_least_as_strong_as_fgsm(self, controller):
        total = 20
        states = np.random.default_rng(0).uniform(-1, 1, size=(total, 2))
        nominal = controller.batch_control(states)[:, 0]
        fgsm = fgsm_perturbation_batch(controller, states, 0.15)
        pgd = pgd_perturbation_batch(controller, states, 0.15, steps=5)
        fgsm_shift = np.abs(controller.batch_control(fgsm)[:, 0] - nominal)
        pgd_shift = np.abs(controller.batch_control(pgd)[:, 0] - nominal)
        stronger = int(np.count_nonzero(pgd_shift >= fgsm_shift - 1e-9))
        assert stronger >= int(0.7 * total)

    def test_single_step_full_size_matches_fgsm(self, controller):
        states = np.array([[0.2, 0.7], [-0.5, 0.1]])
        fgsm = fgsm_perturbation_batch(controller, states, 0.1)
        pgd = pgd_perturbation_batch(controller, states, 0.1, steps=1, step_size_fraction=1.0)
        np.testing.assert_allclose(pgd, fgsm)


class TestPGDAttackWrapper:
    def test_probability_zero_is_identity(self, controller):
        attack = PGDAttack(controller, bound=0.1, probability=0.0)
        states = np.array([[0.3, 0.3], [-0.1, 0.4]])
        np.testing.assert_array_equal(attack.perturb_batch(states, np.random.default_rng(0)), states)

    def test_validation(self, controller):
        with pytest.raises(ValueError):
            PGDAttack(controller, bound=0.1, probability=2.0)
        with pytest.raises(ValueError):
            PGDAttack(controller, bound=0.1, steps=0)

    def test_usable_in_rollout(self, vanderpol, controller):
        from repro.attacks import perturbation_budget
        from repro.systems.simulation import rollout

        attack = PGDAttack(controller, perturbation_budget(vanderpol, 0.1), steps=3)
        trajectory = rollout(vanderpol, controller, [0.1, 0.1], horizon=10, perturbation=attack, rng=0)
        assert trajectory.steps <= 10
